"""Brute-force certification oracles: certified grid searches over 3- and
6-periodic cyclic schedules.  Each function that computes with numpy
imports it in its body, so importing this module, the package or its
names does not load numpy; the first oracle call does.  A grid that
_check_grid refuses never loads it.

The grid searches evaluate exact objective values on a regular grid, so the
reported best value can only overestimate the true minimum, and by at most
certified_tolerance (a Lipschitz bound times the grid spacing).  Both run on
geom.local_frame(t): t moved near the origin and scaled by a power of two to
a diameter in [1, 2).  Scaling best_value back is exact and the edge
parameters need no mapping, so the results scale exactly with t and depend
on its offset only through the rounding of its own coordinates.

The grid minimum itself is exact: the 3-periodic search skips only grid
rows and cells that a proven lower bound places above an attained grid
value by more than a margin of 1e-9 diameters, first Fagnano's bound per u1
row (reflect PA across AB and across AC), then Heron's bound per (u1, u3)
pair, so pruning leaves best_value and certified_tolerance unchanged.  The
frame keeps every coordinate within a few diameters, so the margin prunes
alike at any offset.  It scores every kept pair in a few chunked min-plus
blocks.  The 6-periodic grid minimum is exact too: a chain DP over
the three distinct distance matrices of its edge pattern, with no local
refinement, so both report grid points, each the float nearest to i / N.
The point grids of all segments are one (segments, 2, N+1) array of x and y
rows, built from one flat array of segment ends; a phase picks its points
by a slice or one fancy index, and each distance matrix is one hypot.  Each
chain DP step lays its sums out [prev, r, next] in C order and takes the min
over the leading axis.  Either search refuses, before it allocates anything,
a grid that would hold more than MAX_GRID_FLOATS float64s at once.
"""

from __future__ import annotations

import math

from .geom import EdgeId, Record, Triangle, local_frame, reflect_point, slot_setters

# Each min-plus temporary holds at most this many float64s (~1 MB): the
# 3-periodic search scores kept (u1, u3) pairs in blocks of this size over
# u2, and the 6-periodic chain DP batches start indices to fit it.
_CHUNK = 1 << 17

# A search refuses a grid that would hold more than this many float64s at once
# (512 MiB), over all live arrays: 6 (n+1)^2 for the two (3, n+1, n+1)
# operands of the 6-periodic slab's hypot, and 3 (n+1)^2 for the 3-periodic
# Heron bound where the Fagnano bound keeps every row (the closing legs and
# the two operands of the Heron legs' hypot).
MAX_GRID_FLOATS = 1 << 26


class SearchResult(Record):
    """A grid oracle's best value and its parameters, certified to within
    certified_tolerance of the true minimum of the objective."""

    __slots__ = __match_args__ = ("best_value", "best_params", "grid_n", "objective", "certified_tolerance")

    def __init__(
        self,
        best_value: float,
        best_params: list[float],
        grid_n: int,
        objective: str,  # "gap1" or "gap2"
        certified_tolerance: float,
    ):
        for store, value in zip(_SET_SEARCH_RESULT, (best_value, best_params, grid_n, objective, certified_tolerance)):
            store(self, value)


_SET_SEARCH_RESULT = slot_setters(SearchResult)


def _check_grid(grid_n: int, slabs: int) -> None:
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    floats = slabs * (grid_n + 1) ** 2
    if floats > MAX_GRID_FLOATS:
        raise ValueError(
            f"grid_n {grid_n} needs {floats} float64s at once, "
            f"above the limit of {MAX_GRID_FLOATS}"
        )


def _grid(grid_n: int):
    """The grid parameters i / grid_n, i = 0..grid_n, each the float
    nearest to i / grid_n (one correctly rounded division)."""
    import numpy as np
    return np.arange(grid_n + 1) / grid_n


def _segment_grids(segments, us):
    """grids[m] = (xs, ys): the points s + u (f - s), u in us, of the m-th
    segment (s, f), all segments from one flat array of their ends."""
    import numpy as np
    ends = np.array([c for seg in segments for p in seg for c in (p.x, p.y)]).reshape(-1, 2, 2, 1)
    s, f = ends[:, 0], ends[:, 1]
    return s + us * (f - s)


def _dist(p, q):
    """d[..., i, j] = |p_i q_j| for points given as x and y rows, p (..., 2, m)
    and q (..., 2, n); hypot is symmetric in sign, so d is |q_j p_i| too."""
    import numpy as np
    d = p[..., 0, :, None] - q[..., 0, None, :]
    return np.hypot(d, p[..., 1, :, None] - q[..., 1, None, :], out=d)


def _fagnano_rows(t: Triangle, us):
    """The grids of PA, PB, PC (edges A, B, C), R_AC(PA) and R_AB(PA) at
    parameters us, and Fagnano's bound rho_i for each point PA_i of edge BC.

    For every PB on line AC and PC on line AB, the cycle PA_i PB PC has
    length |R_AC(PA_i) PB| + |PB PC| + |PC R_AB(PA_i)| >= rho_i =
    |R_AC(PA_i) R_AB(PA_i)|, with equality at the orthic triangle.  Each
    reflection is affine and fixes the end of BC on its mirror, so it maps
    BC onto the segment from R_AC(B) to C, and from B to R_AB(C)."""
    import numpy as np
    mirrored = (reflect_point(t.b, (t.a, t.c)), t.c), (t.b, reflect_point(t.c, (t.a, t.b)))
    grids = _segment_grids((*t.edges, *mirrored), us)
    return grids, np.hypot(*(grids[3] - grids[4]))


def grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the inscribed-triangle perimeter (the 1-gap of a cyclic
    3-periodic schedule) over a (grid_n+1)^3 grid, one parameter per edge.

    Value and tie-breaking (first (u1, u3) in row order, then first u2) are
    those of the full grid.  Whole u1 rows whose Fagnano bound exceeds an
    attained grid value are skipped first; in the rows left, so are the
    (u1, u3) pairs whose Heron bound does."""
    _check_grid(grid_n, 3)
    import numpy as np
    local, _, scale = local_frame(t)
    us = _grid(grid_n)
    grids, rho = _fagnano_rows(local, us)
    pb, pc = grids[1], grids[2]
    # The upper bound is the attained total at the Heron argmin of the row
    # with the smallest Fagnano bound.  By Heron's reflection, |PA PB| +
    # |PB PC| >= |R_AC(PA) PC| for every PB on line AC, so |PA_i PC_k| +
    # |R_AC(PA_i) PC_k| bounds every cycle through PA_i and PC_k.
    i0 = int(rho.argmin())
    heron0 = _dist(grids[::3, :, i0, None], pc)[:, 0]  # from PA_i0 and R_AC(PA_i0)
    k0 = int((heron0[0] + heron0[1]).argmin())
    legs = _dist(grids[[0, 2], :, [i0, k0]].T, pb)  # from PA_i0 and PC_k0
    upper = (legs[0] + legs[1]).min() + heron0[0, k0]
    # In the local frame every coordinate and length is below a few
    # diameters, so both bounds and the totals are each within a few ulps of
    # the diameter (~1e-15 of it).  The 1e-9 margin dwarfs that, so every
    # skipped row's or pair's total is strictly above the grid minimum.
    bound = upper + 1e-9 * local.diameter
    rows = np.flatnonzero(rho <= bound)
    pa, ra = grids[::3, :, rows]
    d_ca = _dist(pa, pc)  # the closing leg |PC_k PA_i|
    keep = d_ca + _dist(ra, pc) <= bound  # keep[r, k]: PA_rows[r], PC_k
    cols = np.flatnonzero(keep.any(axis=0))
    keep, d_ca = keep[:, cols].ravel(), d_ca[:, cols].ravel()  # row-major (r, c) positions
    d_ab = _dist(pa, pb)
    d_bc = _dist(pc[:, cols], pb)  # only the columns a kept pair uses
    # Score the kept pairs in row-major order: min over u2 of |PA PB| +
    # |PB PC|, plus |PC PA|.  Blocks of keep's positions, not an index
    # array of every kept pair, bound each temporary to _CHUNK floats.
    best = math.inf
    step = _CHUNK // (grid_n + 1)
    for lo in range(0, keep.size, step):
        p = lo + np.flatnonzero(keep[lo : lo + step])
        if not p.size:
            continue
        r, c = np.divmod(p, cols.size)
        tot = d_ab[r]
        tot += d_bc[c]
        totals = tot.min(axis=1) + d_ca[p]
        s = int(totals.argmin())
        if totals[s] < best:
            # the middle parameter only for the block's winning (u1, u3) pair
            best, best_idx = float(totals[s]), (rows[r[s]], int(tot[s].argmin()), cols[c[s]])
    return SearchResult(
        best_value=best * scale,
        best_params=[float(us[i]) for i in best_idx],
        grid_n=grid_n,
        objective="gap1",
        certified_tolerance=6.0 * t.diameter / grid_n,
    )


# Edge visitation pattern of the 6-periodic search; each edge appears twice,
# so the 2-gap of such a schedule equals the full cycle length.
GAP2_PATTERN = (EdgeId.A, EdgeId.C, EdgeId.B, EdgeId.A, EdgeId.C, EdgeId.B)


def _min_cycle_6(dist) -> tuple[float, list[int]]:
    """Min over u1..u6 of the closed chain sum, with backpointer recovery.

    dist is a (3, n+1, n+1) slab: dist[s % 3] is the distance matrix
    between stop s and stop s+1 (0-based, stop 6 wrapping to stop 0).  The
    chain DP runs for a chunk of start indices i0 at once and keeps each
    step's value matrix vs[s][r, j].  A step adds the next leg to the last
    values in a [prev, r, next] block in C order and takes the min over its
    leading axis, prev, a reduction over whole contiguous rows.  The
    winner's backpointers are argmins of the same sums, so ties go to the
    first i0, then the first index of each later stop, as a loop over i0
    would give.
    """
    import numpy as np
    n1 = dist.shape[1]
    best = math.inf
    best_idx: list[int] = [0] * 6
    step = max(1, _CHUNK // (n1 * n1))
    for lo in range(0, n1, step):
        # vs[s][r, j]: best chain from stop 0 = lo + r to stop s = j
        vs = [dist[0, lo : lo + step]]
        for s in range(1, 5):
            vs.append(np.add(vs[-1].T[:, :, None], dist[s % 3][:, None, :], order="C").min(axis=0))
        tot_last = vs[4] + dist[2, :, lo : lo + step].T
        r, i5 = divmod(int(tot_last.argmin()), n1)
        val = float(tot_last[r, i5])
        if val < best:
            best = val
            best_idx = [lo + r, 0, 0, 0, 0, i5]
            for s in range(4, 0, -1):
                best_idx[s] = int((vs[s - 1][r] + dist[s % 3][:, best_idx[s + 1]]).argmin())
    return best, best_idx


def grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the 2-gap over cyclic 6-periodic generators with edge pattern
    (A,C,B,A,C,B) on a (grid_n+1)^6 grid, one parameter per stop.

    The grid minimum is exact (the chain DP of _min_cycle_6 over the three
    distinct distance matrices), with no local refinement: each of
    best_params is a grid point, and certified_tolerance bounds how far
    best_value lies above the true minimum."""
    _check_grid(grid_n, 6)
    local, _, scale = local_frame(t)
    us = _grid(grid_n)
    # GAP2_PATTERN has period 3: stops 3-5 repeat the grids of stops 0-2, and
    # the grids of stops 0-3 give the three distinct legs.
    grids = _segment_grids([local.edges[e] for e in GAP2_PATTERN[:4]], us)
    best_val, idx = _min_cycle_6(_dist(grids[:3], grids[1:]))
    return SearchResult(
        best_value=best_val * scale,
        best_params=[float(us[i]) for i in idx],
        grid_n=grid_n,
        objective="gap2",
        certified_tolerance=12.0 * t.diameter / grid_n,
    )

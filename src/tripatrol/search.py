"""Brute-force certification oracles: certified grid searches over 3- and
6-periodic cyclic schedules.  It imports numpy at module level; the package
imports this module only on first access to its names, so the constructive
geometry never loads numpy.

The grid searches evaluate exact objective values on a regular grid, so the
reported best value can only overestimate the true minimum, and by at most
certified_tolerance (a Lipschitz bound times the grid spacing).  The grid
minimum itself is exact: the 3-periodic search skips only grid rows and
cells that a proven lower bound places above an attained grid value, first
Fagnano's bound per u1 row (reflect PA across AB and across AC), then
Heron's bound per (u1, u3) pair, so pruning leaves best_value and
certified_tolerance unchanged.  The 6-periodic grid minimum is exact too: a
chain DP over six distance matrices built in one slab, with no local
refinement.  Either search refuses, before it allocates anything, a grid
whose largest array would exceed MAX_GRID_FLOATS.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import EdgeId, Point, Record, Triangle, reflect_point, slot_setters

# The 6-periodic chain DP batches start indices so that one batch's min-plus
# temporary holds at most this many float64s (~1 MB).
_CHUNK = 1 << 17

# A search refuses a grid whose largest array would hold more than this many
# float64s (512 MiB): 6 (n+1)^2 for the 6-periodic slab, and 3 (n+1)^2 for
# the 3-periodic Heron bound where the margin keeps every row.
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
            f"grid_n {grid_n} needs {floats} float64s in one array, "
            f"above the limit of {MAX_GRID_FLOATS}"
        )


def _segment_grid(s: Point, f: Point, us: np.ndarray) -> np.ndarray:
    return np.stack(
        [s.x + us * (f.x - s.x), s.y + us * (f.y - s.y)], axis=-1
    )


def _edge_grid(t: Triangle, e: EdgeId, us: np.ndarray) -> np.ndarray:
    return _segment_grid(*t.edges[e], us)


def _dist_matrix(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1], out=out)


def _cycle_totals(
    pa_i: np.ndarray, pb: np.ndarray, pc_ks: np.ndarray, d_bc: np.ndarray
) -> np.ndarray:
    """Shortest grid cycle through PA_i, some PB_j and each point of pc_ks,
    given d_bc[j, s] = |PB_j pc_ks[s]|; same float operations as a full
    min-plus cube, so the same bits."""
    d_ab = _dist_matrix(pa_i[None], pb)[0]
    d_ca = _dist_matrix(pc_ks, pa_i[None])[:, 0]
    return (d_ab[:, None] + d_bc).min(axis=0) + d_ca


def _fagnano_rows(t: Triangle, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_AC(PA_i) and Fagnano's bound rho_i for the points PA_i of edge BC
    at parameters us.

    For every PB on line AC and PC on line AB, the cycle PA_i PB PC has
    length |R_AC(PA_i) PB| + |PB PC| + |PC R_AB(PA_i)| >= rho_i =
    |R_AC(PA_i) R_AB(PA_i)|, with equality at the orthic triangle.  Each
    reflection is affine and fixes the end of BC on its mirror, so it maps
    BC onto the segment from R_AC(B) to C, and from B to R_AB(C)."""
    ra = _segment_grid(reflect_point(t.b, (t.a, t.c)), t.c, us)
    rc = _segment_grid(t.b, reflect_point(t.c, (t.a, t.b)), us)
    return ra, np.hypot(*(ra - rc).T)


def _heron(pa: np.ndarray, ra: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """lb[i, k] = |pa_i pc_k| + |ra_i pc_k|, where ra_i = R_AC(pa_i).  By
    Heron's reflection, |PA PB| + |PB PC| >= |R_AC(PA) PC| for every PB on
    line AC, so lb[i, k] bounds every cycle through pa_i and pc_k."""
    return _dist_matrix(pa, pc) + _dist_matrix(ra, pc)


def grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the inscribed-triangle perimeter (the 1-gap of a cyclic
    3-periodic schedule) over a (grid_n+1)^3 grid, one parameter per edge.

    Value and tie-breaking (first (u1, u3) in row order, then first u2) are
    those of the full grid.  Whole u1 rows whose Fagnano bound exceeds an
    attained grid value are skipped first; in the rows left, so are the
    (u1, u3) pairs whose Heron bound does."""
    _check_grid(grid_n, 3)
    us = np.arange(grid_n + 1) / grid_n
    pa = _edge_grid(t, EdgeId.A, us)
    pb = _edge_grid(t, EdgeId.B, us)
    pc = _edge_grid(t, EdgeId.C, us)
    ra, rho = _fagnano_rows(t, us)
    # The upper bound is the attained total at the Heron argmin of the row
    # with the smallest Fagnano bound.
    i0 = int(rho.argmin())
    k0 = int(_heron(pa[[i0]], ra[[i0]], pc).argmin())
    upper = _cycle_totals(pa[i0], pb, pc[[k0]], _dist_matrix(pb, pc[[k0]]))[0]
    # Both bounds and the totals are each within a few ulps of |coord| +
    # diameter (~1e-15 of it).  The 1e-9 margin dwarfs that, so every
    # skipped row's or pair's total is strictly above the grid minimum; far
    # from the origin it keeps more (every row at |coord| ~ 1e9 * diameter).
    scale = t.diameter + max(abs(x) for v in t.vertices for x in v.as_tuple())
    bound = upper + 1e-9 * scale
    rows = np.flatnonzero(rho <= bound)
    keep = _heron(pa[rows], ra[rows], pc) <= bound  # keep[r, k]: PA_rows[r], PC_k
    cols = np.flatnonzero(keep.any(axis=0))
    d_bc = _dist_matrix(pb, pc[cols])  # only the columns a kept pair uses
    best = math.inf
    bi = bk = 0
    # One grid row per step keeps each temporary within one (n+1)^2 slice.
    for r in np.flatnonzero(keep.any(axis=1)):
        ks = np.flatnonzero(keep[r])
        i = int(rows[r])
        totals = _cycle_totals(pa[i], pb, pc[ks], d_bc[:, np.searchsorted(cols, ks)])
        s = int(totals.argmin())
        if totals[s] < best:
            best, bi, bk = float(totals[s]), i, int(ks[s])
    # Recover the middle parameter only for the winning (u1, u3) pair.
    legs = _dist_matrix(pa[[bi]], pb)[0] + _dist_matrix(pb, pc[[bk]])[:, 0]
    best_idx = (bi, int(legs.argmin()), bk)
    return SearchResult(
        best_value=best,
        best_params=[float(us[i]) for i in best_idx],
        grid_n=grid_n,
        objective="gap1",
        certified_tolerance=6.0 * t.diameter / grid_n,
    )


# Edge visitation pattern of the 6-periodic search; each edge appears twice,
# so the 2-gap of such a schedule equals the full cycle length.
GAP2_PATTERN = (EdgeId.A, EdgeId.C, EdgeId.B, EdgeId.A, EdgeId.C, EdgeId.B)


def _min_cycle_6(dist: np.ndarray) -> tuple[float, list[int]]:
    """Min over u1..u6 of the closed chain sum, with backpointer recovery.

    dist is a (6, n+1, n+1) slab: dist[i] is the distance matrix between
    stop i and stop i+1 (0-based, stop 6 wrapping to stop 0).  The chain DP
    runs for a chunk of start indices i0 at once; ties go to the first i0,
    then the first index of each later stop, as a loop over i0 would give.
    """
    n1 = dist.shape[1]
    best = math.inf
    best_idx: list[int] = [0] * 6
    step = max(1, _CHUNK // (n1 * n1))
    for lo in range(0, n1, step):
        i0s = np.arange(lo, min(n1, lo + step))
        v = dist[0, i0s]  # v[r, j]: best chain from stop 0 = i0s[r] to j
        bps = []
        for d in dist[1:5]:
            # [r, next, prev], C order so the reductions below copy nothing
            tot = np.add(v[:, None, :], d.T, order="C")
            bps.append(tot.argmin(axis=2))
            v = tot.min(axis=2)
            del tot  # free this chunk before the next step allocates its own
        tot_last = v + dist[5][:, i0s].T
        r, i5 = divmod(int(tot_last.argmin()), n1)
        val = float(tot_last[r, i5])
        if val < best:
            best = val
            idx = [int(i0s[r]), 0, 0, 0, 0, i5]
            for s in range(4, 0, -1):
                idx[s] = int(bps[s - 1][r, idx[s + 1]])
            best_idx = idx
    return best, best_idx


def grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the 2-gap over cyclic 6-periodic generators with edge pattern
    (A,C,B,A,C,B) on a (grid_n+1)^6 grid, one parameter per stop.

    The grid minimum is exact (the chain DP of _min_cycle_6 over the six
    distance matrices, built in one slab), with no local refinement: each
    of best_params is a grid point, and certified_tolerance bounds how far
    best_value lies above the true minimum."""
    _check_grid(grid_n, 6)
    n1 = grid_n + 1
    us = np.linspace(0.0, 1.0, n1)
    # GAP2_PATTERN has period 3, so dist[3:6] is dist[0:3] bit for bit.
    grids = [_edge_grid(t, e, us) for e in GAP2_PATTERN[:3]]
    dist = np.empty((6, n1, n1))
    for i in range(3):
        _dist_matrix(grids[i], grids[(i + 1) % 3], out=dist[i])
    dist[3:] = dist[:3]
    best_val, idx = _min_cycle_6(dist)
    return SearchResult(
        best_value=best_val,
        best_params=[float(us[i]) for i in idx],
        grid_n=grid_n,
        objective="gap2",
        certified_tolerance=12.0 * t.diameter / grid_n,
    )

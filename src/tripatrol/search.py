"""Brute-force certification oracles: certified grid searches over 3- and
6-periodic cyclic schedules.  The 3-periodic search runs on math alone.
The 6-periodic one imports numpy in the functions that compute with it, so
importing this module, the package or its names does not load numpy; the
first 6-periodic call does.  A grid that _check_grid refuses never loads it.

The grid searches evaluate exact objective values on a regular grid, so the
reported best value can only overestimate the true minimum, and by at most
certified_tolerance (a Lipschitz bound times the grid spacing).  Both run on
geom.local_frame(t): t moved near the origin and scaled by a power of two to
a diameter in [1, 2).  Scaling best_value back is exact and the edge
parameters need no mapping, so the results scale exactly with t and depend
on its offset only through the rounding of its own coordinates.  Both
report grid points, each the float nearest to i / N.

The grid minimum itself is exact.  The 3-periodic search minimizes three
functions, each convex in its one grid parameter, as a sum of norms of
affine maps is (Boyd & Vandenberghe, Convex Optimization, 3.2): Fagnano's
bound per u1 row (reflect PA across AB and across AC), Heron's bound per
(u1, u3) pair, and |PA PB| + |PB PC| over u2 for a pair.  A convex
function's sublevel sets on the grid are single runs of cells, and its grid
minimum lies next to its continuous minimizer, one projection or one Heron
reflection away; _run walks each run from there.  Rows and pairs whose
bound exceeds an attained grid value by more than 1e-9 diameters are
skipped, and each u2 walk ends 1e-12 diameters above the least value it has
seen.  The frame keeps every coordinate within a few diameters, so both
dwarf the rounding and act alike at any offset: best_value, the parameters
and their tie-breaking are those of the full cube with math.hypot
distances.

The 6-periodic grid minimum is exact too: a chain DP over the three
distinct distance matrices of its edge pattern, with no local refinement.
The point grids of its segments are one (segments, 2, N+1) array of x and y
rows, built from one flat array of segment ends, and each distance matrix
is one hypot.  Each chain DP step lays its sums out [prev, r, next] in C
order and takes the min over the leading axis.  Either search refuses,
before it computes anything, a grid above MAX_GRID_FLOATS.
"""

from __future__ import annotations

from math import hypot, inf

from .geom import EdgeId, Record, Triangle, local_frame, reflect_point, slot_setters

# Each min-plus temporary holds at most this many float64s (~1 MB): the
# 6-periodic chain DP batches start indices to fit it.
_CHUNK = 1 << 17

# The 6-periodic search refuses a grid that would hold more than this many
# float64s at once (512 MiB), 6 (n+1)^2 for the two (3, n+1, n+1) operands
# of its slab's hypot.  The 3-periodic search holds no grid, but keeps the
# cap 3 (n+1)^2 <= MAX_GRID_FLOATS, N <= 4728, so that the grids it refuses
# and the exit codes of `search --period 3` stay as they were.
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


def _segments(t: Triangle) -> list[tuple[float, float, float, float]]:
    """The segments PA, PB, PC (edges A, B, C), R_AC(PA) and R_AB(PA) as
    (sx, sy, dx, dy): the point at parameter u is (sx + u dx, sy + u dy).

    Each reflection is affine and fixes the end of BC on its mirror, so it
    maps BC onto the segment from R_AC(B) to C, and from B to R_AB(C)."""
    mirrored = (reflect_point(t.b, (t.a, t.c)), t.c), (t.b, reflect_point(t.c, (t.a, t.b)))
    return [(s.x, s.y, f.x - s.x, f.y - s.y) for s, f in (*t.edges, *mirrored)]


def _cell(u: float, n: int) -> int:
    """The grid cell of 0..n nearest to the parameter u, clamped."""
    return min(max(round(u * n), 0), n)


def _heron(px: float, py: float, qx: float, qy: float, seg) -> float:
    """The parameter u of the point X of seg's line minimizing |P X| + |X Q|
    (Heron): X divides the feet of P and Q in the ratio of their distances
    from the line, whichever sides of it they lie on."""
    sx, sy, dx, dy = seg
    px, py, qx, qy = px - sx, py - sy, qx - sx, qy - sy
    hp, hq = abs(dx * py - dy * px), abs(dx * qy - dy * qx)
    tp, tq = dx * px + dy * py, dx * qx + dy * qy
    if hp + hq:
        tp += (tq - tp) * hp / (hp + hq)
    return tp / (dx * dx + dy * dy)


def _run(f, k: int, n: int, bound: float, slack: float = inf) -> tuple[int, int, int, float]:
    """Walk a convex f over the grid cells 0..n from cell k: descend to a
    local minimum, then extend both ways while f stays at or below
    min(bound, least + slack), least being the smallest value seen so far.

    Returns (lo, hi, arg, least): the run lo..hi, empty (lo > hi) when the
    local minimum is above bound, and its first smallest value f(arg).
    Each sublevel set of a convex f is one run of cells, and rounding moves
    the computed values by a few ulps only, so the run holds every cell
    whose value is below the threshold by more than that.  With slack
    above the rounding, it holds every cell equal to f's least value on the
    grid, and arg is the first of them.  Each cell is evaluated once."""
    least = f(k)
    # Descend, one cell at a time, toward a strictly smaller neighbour;
    # left and right end as f(k - 1) and f(k + 1), inf beyond the grid.
    right = f(k + 1) if k < n else inf
    left = None
    while right < least:
        k, left, least = k + 1, least, right
        right = f(k + 1) if k < n else inf
    if left is None:
        left = f(k - 1) if k else inf
        while left < least:
            k, right, least = k - 1, least, left
            left = f(k - 1) if k else inf
    if least > bound:
        return k + 1, k, k, least
    lo = hi = arg = k
    top = min(bound, least + slack)
    while lo and left <= top:
        lo -= 1
        if left <= least:  # a tie further left comes first
            least, arg, top = left, lo, min(bound, left + slack)
        if lo:
            left = f(lo - 1)
    while hi < n and right <= top:
        hi += 1
        if right < least:
            least, arg, top = right, hi, min(bound, right + slack)
        if hi < n:
            right = f(hi + 1)
    return lo, hi, arg, least


def grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the inscribed-triangle perimeter (the 1-gap of a cyclic
    3-periodic schedule) over a (grid_n+1)^3 grid, one parameter per edge.

    Value and tie-breaking (first (u1, u3) in row order, then first u2) are
    those of the full grid.  The u1 rows kept are the run whose Fagnano
    bound is within an attained grid value; in each, the u3 columns kept
    are the run whose Heron bound is; each kept pair's u2 is the run
    around its least |PA PB| + |PB PC|."""
    _check_grid(grid_n, 3)
    local, _, scale = local_frame(t)
    n = grid_n
    seg_a, seg_b, seg_c, seg_r, seg_q = _segments(local)
    (asx, asy, adx, ady), (bsx, bsy, bdx, bdy), (csx, csy, cdx, cdy) = seg_a, seg_b, seg_c
    (rsx, rsy, rdx, rdy), (qsx, qsy, qdx, qdy) = seg_r, seg_q
    # In the local frame every coordinate and length is below a few
    # diameters, so the bounds and the totals are each within a few ulps of
    # the diameter (~1e-15 of it).  The 1e-9 margin of the bounds and the
    # 1e-12 slack of the u2 walk dwarf that, so every skipped row, pair or
    # u2 is strictly above the grid minimum.
    slack = 1e-12 * local.diameter

    def rho(i):
        # Fagnano: for every PB on line AC and PC on line AB, the cycle
        # PA PB PC has length |R_AC(PA) PB| + |PB PC| + |PC R_AB(PA)| >=
        # |R_AC(PA) R_AB(PA)|, with equality at the orthic triangle.
        u = i / n
        return hypot(rsx + u * rdx - (qsx + u * qdx), rsy + u * rdy - (qsy + u * qdy))

    def row(i):
        """PA_i, Heron's bound on the cycles through PA_i and each PC_k,
        and the cell of the bound's continuous minimizer.  By Heron's
        reflection, |PA PB| + |PB PC| >= |R_AC(PA) PC| for every PB on line
        AC, so |PA_i PC_k| + |R_AC(PA_i) PC_k| bounds every such cycle."""
        u = i / n
        pax, pay, rax, ray = asx + u * adx, asy + u * ady, rsx + u * rdx, rsy + u * rdy

        def heron(k):
            v = k / n
            x, y = csx + v * cdx, csy + v * cdy
            return hypot(x - pax, y - pay) + hypot(x - rax, y - ray)

        return pax, pay, heron, _cell(_heron(pax, pay, rax, ray, seg_c), n)

    def score(pax, pay, k):
        """The least grid total of the cycles through PA and PC_k, and its
        first u2 cell: min over u2 of |PA PB| + |PB PC|, plus |PC PA|."""
        v = k / n
        pcx, pcy = csx + v * cdx, csy + v * cdy

        def legs(j):
            w = j / n
            x, y = bsx + w * bdx, bsy + w * bdy
            return hypot(pax - x, pay - y) + hypot(x - pcx, y - pcy)

        _, _, j, least = _run(legs, _cell(_heron(pax, pay, pcx, pcy, seg_b), n), n, inf, slack)
        return least + hypot(pcx - pax, pcy - pay), j

    # The upper bound is the attained total at the cells nearest the
    # continuous minimizers: rho(u) = 2 sin A |A PA(u)|, least at the foot of
    # the altitude from A, and then Heron's bound in that row.
    i0 = _cell(((local.a.x - asx) * adx + (local.a.y - asy) * ady) / (adx * adx + ady * ady), n)
    pax, pay, _, k0 = row(i0)
    upper = score(pax, pay, k0)
    bound = upper[0] + 1e-9 * local.diameter
    best = inf
    lo, hi, _, _ = _run(rho, i0, n, bound)
    for i in range(lo, hi + 1):
        pax, pay, heron, k = row(i)
        klo, khi, _, _ = _run(heron, k, n, bound)
        for k in range(klo, khi + 1):
            total, j = upper if (i, k) == (i0, k0) else score(pax, pay, k)
            if total < best:
                best, best_idx = total, (i, j, k)
    return SearchResult(
        best_value=best * scale,
        best_params=[i / n for i in best_idx],
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
    best = inf
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

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

The 6-periodic grid minimum is exact too, with no local refinement.  Its
edge pattern ACBACB has period 3, so a cycle is two half paths over the
same three distance matrices, BC(x) -> AB -> AC -> BC(y) and back; the
cycle's least value is min h[x, y] + h[y, x], h the shortest half path,
each half's legs added in turn and then the two halves: the same real
objective as the six legs added in turn.  fl(a + b) == fl(b + a), so ties
go to the first pair in row order, x <= y.  The segments' point grids are
one (2, segments, N+1) array and the three distance matrices one hypot;
h is two min-plus products on batches of x rows.  Before it computes
anything, the 6-periodic search refuses a grid above MAX_GRID_FLOATS and
the 3-periodic one a grid above MAX_GRID3_N.
"""

from __future__ import annotations

from math import hypot, inf

from .geom import EdgeId, Record, Triangle, edge_frame, foot_on_edge, local_frame, slot_setters

# Each min-plus temporary holds at most this many float64s (~1 MB): the
# 6-periodic search batches x rows to fit it.
_CHUNK = 1 << 17

# The 6-periodic search refuses a grid that would hold more than this many
# float64s at once (512 MiB), 6 (n+1)^2 for the two (3, n+1, n+1) operands
# of its slab's hypot: N <= 3343.
MAX_GRID_FLOATS = 1 << 26

# The 3-periodic search holds no grid, and its walks evaluate a few dozen
# distances at any N.  It refuses N above this, the largest grid whose three
# (N+1)^2 distance matrices an earlier numpy search held within
# MAX_GRID_FLOATS, so that the grids `search --period 3` accepts and its exit
# codes stay as they were.
MAX_GRID3_N = 4728


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
        _set_best_value(self, best_value)
        _set_best_params(self, best_params)
        _set_grid_n(self, grid_n)
        _set_objective(self, objective)
        _set_certified_tolerance(self, certified_tolerance)


_set_best_value, _set_best_params, _set_grid_n, _set_objective, _set_certified_tolerance = slot_setters(SearchResult)


def _check_grid(grid_n: int, period: int) -> None:
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    if period == 3:
        if grid_n > MAX_GRID3_N:
            raise ValueError(f"grid_n {grid_n} is above the 3-periodic search's limit of {MAX_GRID3_N}")
        return
    floats = 6 * (grid_n + 1) ** 2
    if floats > MAX_GRID_FLOATS:
        raise ValueError(
            f"grid_n {grid_n} needs {floats} float64s at once, "
            f"above the limit of {MAX_GRID_FLOATS}"
        )


def _segments(t: Triangle) -> list[tuple[float, float, float, float]]:
    """The segments PA, PB, PC (edges A, B, C), R_AC(PA) and R_AB(PA) as
    (sx, sy, dx, dy): the point at parameter u is (sx + u dx, sy + u dy).

    Each reflection is affine and fixes the end of BC on its mirror, so it
    maps BC onto the segment from R_AC(B) to C, and from B to R_AB(C).  Each
    image is 2 * foot - p, the foot from geom's segment kernel.  No side
    here has length 0, which edge_frame refuses: on the local frame every
    side exceeds 1e-9 diameters (Triangle's collinearity test)."""
    ax, ay, bx, by, cx, cy = t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y
    fx, fy, _ = foot_on_edge(bx, by, *edge_frame(t.a, t.c))
    rx, ry = 2.0 * fx - bx, 2.0 * fy - by
    fx, fy, _ = foot_on_edge(cx, cy, *edge_frame(t.a, t.b))
    qx, qy = 2.0 * fx - cx, 2.0 * fy - cy
    return [
        (bx, by, cx - bx, cy - by),
        (ax, ay, cx - ax, cy - ay),
        (ax, ay, bx - ax, by - ay),
        (rx, ry, cx - rx, cy - ry),
        (bx, by, qx - bx, qy - by),
    ]


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
    first = row(i0)
    pax, pay, _, k0 = first
    upper = score(pax, pay, k0)
    bound = upper[0] + 1e-9 * local.diameter
    best = inf
    lo, hi, _, _ = _run(rho, i0, n, bound)
    for i in range(lo, hi + 1):
        pax, pay, heron, k = first if i == i0 else row(i)
        klo, khi, _, _ = _run(heron, k, n, bound)
        for k in range(klo, khi + 1):
            total, j = upper if (i, k) == (i0, k0) else score(pax, pay, k)
            if total < best:
                best, best_idx = total, (i, j, k)
    return SearchResult(best * scale, [i / n for i in best_idx], n, "gap1", 6.0 * t.diameter / n)


# Edge visitation pattern of the 6-periodic search; each edge appears twice,
# so the 2-gap of such a schedule equals the full cycle length.
GAP2_PATTERN = (EdgeId.A, EdgeId.C, EdgeId.B, EdgeId.A, EdgeId.C, EdgeId.B)


def _min_cycle_6(dist) -> tuple[float, list[int]]:
    """Min over u1..u6 of the closed cycle's length, with its grid cells.

    dist is a (3, n+1, n+1) slab: dist[s][i, j] is the distance from cell i
    of stop s to cell j of stop s+1 (stop 3 is BC again).  v1 = min over j
    of dist[0][x, j] + dist[1][j, k], then h = min over k of v1[x, k] +
    dist[2][k, y]; each product lays its sums out [inner, x, next] in C
    order and takes the min over the leading axis, whole contiguous rows,
    for a batch of x rows whose sums fit _CHUNK floats.  The winner's inner
    cells are the first argmins of the same sums, k before j, per half.
    """
    import numpy as np
    d0, d1, d2 = dist
    n1 = dist.shape[1]
    step = max(1, _CHUNK // (n1 * n1))
    v1, h = np.empty((2, n1, n1))
    for lo in range(0, n1, step):
        rows = slice(lo, lo + step)
        np.add(d0[rows].T[:, :, None], d1[:, None, :], order="C").min(axis=0, out=v1[rows])
        np.add(v1[rows].T[:, :, None], d2[:, None, :], order="C").min(axis=0, out=h[rows])
    tot = h + h.T
    x, y = divmod(int(tot.argmin()), n1)
    best_idx = [x, 0, 0, y, 0, 0]
    for s, (a, b) in ((1, (x, y)), (4, (y, x))):
        k = int((v1[a] + d2[:, b]).argmin())
        best_idx[s : s + 2] = int((d0[a] + d1[:, k]).argmin()), k
    return float(tot[x, y]), best_idx


def grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the 2-gap over cyclic 6-periodic generators with edge pattern
    (A,C,B,A,C,B) on a (grid_n+1)^6 grid, one parameter per stop.

    The grid minimum is exact (_min_cycle_6's half paths over the three
    distinct distance matrices), with no local refinement: each of
    best_params is a grid point, best_params[0] <= best_params[3], and
    certified_tolerance bounds how far best_value lies above the true
    minimum."""
    _check_grid(grid_n, 6)
    import numpy as np
    local, _, scale = local_frame(t)
    n = grid_n
    # GAP2_PATTERN has period 3: stops 3-5 repeat the segments of stops 0-2,
    # and the segments of stops 0-3 give the three distinct legs.  ends has
    # the rows sx, sy, dx, dy of those four segments, x and y the rows of
    # their grid points s + u (f - s), u = i / n.
    edges = [local.edges[e] for e in GAP2_PATTERN[:4]]
    ends = np.array([(s.x, s.y, f.x - s.x, f.y - s.y) for s, f in edges]).T
    x, y = ends[:2, :, None] + ends[2:, :, None] * (np.arange(n + 1) / n)
    # d[s, i, j] = |P_i Q_j|, P_i and Q_j the grid points of stops s and s + 1.
    d = x[:3, :, None] - x[1:, None, :]
    best_val, idx = _min_cycle_6(np.hypot(d, y[:3, :, None] - y[1:, None, :], out=d))
    return SearchResult(best_val * scale, [i / n for i in idx], n, "gap2", 12.0 * t.diameter / n)

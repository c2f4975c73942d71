"""Reference grid oracles: the full (n+1)^3 min-plus cube for the 3-periodic
search, and for the 6-periodic one the plain definition of its half paths
and a loop over every pair of BC cells.  Each computes its distances as its
search does: the 3-periodic cube with math.hypot, the 6-periodic ones with
np.hypot.

grid_search_3periodic and grid_search_6periodic_gap2 run these bodies on
geom.local_frame(t)'s triangle and map the result back as tripatrol.search
does: best_value times the frame's scale, certified_tolerance from t's own
diameter.  tripatrol.search must return exactly the same SearchResult as
these on every triangle, so its pruning and batching change no bit.  The
caller_frame_* searches run the same bodies on t itself, an independent
check of the frame.  chain_grid_search_6periodic_gap2 is the 6-periodic
search as a six-leg left fold, one chain DP per start cell: another float
evaluation of the same cycle lengths.  They are slow and kept only for the
tests to compare against.
"""

import math

import numpy as np

from reference_geom import reflect_point
from tripatrol.geom import EdgeId, Triangle, local_frame
from tripatrol.search import GAP2_PATTERN, SearchResult


def _edge_grid(t: Triangle, e: EdgeId, us: np.ndarray) -> np.ndarray:
    s, f = t.edges[e]
    return np.stack([s.x + us * (f.x - s.x), s.y + us * (f.y - s.y)], axis=-1)


def _dist_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = p[:, None, :] - q[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


def _math_dist_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """_dist_matrix with math.hypot, the distance the 3-periodic search uses."""
    q = q.tolist()
    return np.array([[math.hypot(x - u, y - v) for u, v in q] for x, y in p.tolist()])


def _in_local_frame(search, t: Triangle, grid_n: int, lipschitz: float) -> SearchResult:
    local, _, scale = local_frame(t)
    res = search(local, grid_n)
    return SearchResult(
        best_value=res.best_value * scale,
        best_params=res.best_params,
        grid_n=grid_n,
        objective=res.objective,
        certified_tolerance=lipschitz * t.diameter / grid_n,
    )


def grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    return _in_local_frame(caller_frame_grid_search_3periodic, t, grid_n, 6.0)


def grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    return _in_local_frame(caller_frame_grid_search_6periodic_gap2, t, grid_n, 12.0)


def caller_frame_grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.arange(grid_n + 1) / grid_n
    pa = _edge_grid(t, EdgeId.A, us)
    pb = _edge_grid(t, EdgeId.B, us)
    pc = _edge_grid(t, EdgeId.C, us)
    d_ab = _math_dist_matrix(pa, pb)
    d_bc = _math_dist_matrix(pb, pc)
    d_ca = _math_dist_matrix(pc, pa)

    best = math.inf
    bi = bk = 0
    n1 = grid_n + 1
    chunk = max(1, min(n1, (1 << 17) // (n1 * n1) + 1))
    for lo in range(0, n1, chunk):
        hi = min(n1, lo + chunk)
        # cube[i, j, k] = |PA_i PB_j| + |PB_j PC_k| over the u1-chunk
        cube = d_ab[lo:hi, :, None] + d_bc[None, :, :]
        totals = cube.min(axis=1) + d_ca.T[lo:hi]
        flat = int(np.argmin(totals))
        i_loc, k_loc = np.unravel_index(flat, totals.shape)
        val = float(totals[i_loc, k_loc])
        if val < best:
            best = val
            bi, bk = lo + int(i_loc), int(k_loc)
    bj = int(np.argmin(d_ab[bi, :] + d_bc[:, bk]))
    return SearchResult(
        best_value=best,
        best_params=[float(us[i]) for i in (bi, bj, bk)],
        grid_n=grid_n,
        objective="gap1",
        certified_tolerance=6.0 * t.diameter / grid_n,
    )


def numpy_hypot_cube_3periodic(t: Triangle, grid_n: int, upper: float):
    """The 3-periodic cube on t with np.hypot distances in place of
    math.hypot's: (least, (i, j, k), total), least its smallest
    total, (i, j, k) the first cell holding it in the search's order and
    total(i, j, k) any cell's total.  Only (u1, u3) pairs whose Heron bound
    |PA_i PC_k| + |R_AC(PA_i) PC_k| is at most upper are scored; the bound
    lies below every total through its pair, so least is the whole cube's
    whenever that is at most upper."""
    us = np.arange(grid_n + 1) / grid_n
    pa, pb, pc = (_edge_grid(t, e, us) for e in EdgeId)
    r = reflect_point(t.b, (t.a, t.c))
    ra = np.stack([r.x + us * (t.c.x - r.x), r.y + us * (t.c.y - r.y)], axis=-1)
    d_ab, d_bc, d_ac = _dist_matrix(pa, pb), _dist_matrix(pb, pc), _dist_matrix(pc, pa).T
    rows, cols = np.nonzero(d_ac + _dist_matrix(ra, pc) <= upper)  # in row order
    sums = d_ab[rows] + d_bc[:, cols].T
    totals = sums.min(axis=1) + d_ac[rows, cols]
    p = int(totals.argmin())
    i, j, k = int(rows[p]), int(sums[p].argmin()), int(cols[p])

    def total(i, j, k):
        return float(d_ab[i, j] + d_bc[j, k] + d_ac[i, k])

    return float(totals[p]), (i, j, k), total


def _min_cycle_6(d: list[np.ndarray]) -> tuple[float, list[int]]:
    """The least h[x, y] + h[y, x] and its cells [x, j, k, y, j2, k2].

    d holds the distance matrices BC -> AB, AB -> AC and AC -> BC, and
    h[x, y] is the shortest half path from BC cell x to BC cell y, its
    legs added left to right, built one row of x at a time.  The pairs are
    tried in row order, and a later one wins only when strictly shorter.
    Each half's k is the first argmin of v1[x] + d[2][:, y], v1[x, k] its
    best path from x to AC cell k, and its j the first argmin of d[0][x] +
    d[1][:, k]."""
    d0, d1, d2 = d
    n1 = len(d0)
    v1 = np.array([(d0[x][:, None] + d1).min(axis=0) for x in range(n1)])
    h = np.array([(v1[x][:, None] + d2).min(axis=0) for x in range(n1)])
    best, bx, by = math.inf, 0, 0
    for x in range(n1):
        for y in range(n1):
            if (val := float(h[x, y] + h[y, x])) < best:
                best, bx, by = val, x, y
    idx = [bx, 0, 0, by, 0, 0]
    for s, a, b in ((1, bx, by), (4, by, bx)):
        k = int(np.argmin(v1[a] + d2[:, b]))
        idx[s], idx[s + 1] = int(np.argmin(d0[a] + d1[:, k])), k
    return best, idx


def _chain_min_cycle_6(d: list[np.ndarray]) -> tuple[float, list[int]]:
    """The least six-leg cycle, its legs added left to right from stop 0:
    for each start cell i0 a chain DP over the five later stops, leg s
    from d[s % 3]."""
    n1 = len(d[0])
    best = math.inf
    best_idx: list[int] = [0] * 6
    for i0 in range(n1):
        v = d[0][i0, :].copy()
        bps = []
        for step in range(1, 5):
            tot = v[:, None] + d[step % 3]
            bps.append(np.argmin(tot, axis=0))
            v = np.min(tot, axis=0)
        tot_last = v + d[2][:, i0]
        i5 = int(np.argmin(tot_last))
        val = float(tot_last[i5])
        if val < best:
            best = val
            idx = [i0, 0, 0, 0, 0, i5]
            for step in range(4, 0, -1):
                idx[step] = int(bps[step - 1][idx[step + 1]])
            best_idx = idx
    return best, best_idx


def caller_frame_grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    return _search_6(_min_cycle_6, t, grid_n)


def chain_grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    return _in_local_frame(lambda local, n: _search_6(_chain_min_cycle_6, local, n), t, grid_n, 12.0)


def _search_6(min_cycle, t: Triangle, grid_n: int) -> SearchResult:
    """min_cycle over the three distinct distance matrices of GAP2_PATTERN's
    cycle on t, each from one stop's grid points to the next one's."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.arange(grid_n + 1) / grid_n
    grids = [_edge_grid(t, e, us) for e in GAP2_PATTERN[:4]]
    best_val, idx = min_cycle([_dist_matrix(grids[i], grids[i + 1]) for i in range(3)])
    return SearchResult(
        best_value=best_val,
        best_params=[float(us[i]) for i in idx],
        grid_n=grid_n,
        objective="gap2",
        certified_tolerance=12.0 * t.diameter / grid_n,
    )

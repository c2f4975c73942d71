"""Brute-force certification oracles: certified grid searches over 3- and
6-periodic cyclic schedules.  It imports numpy at module level; the package
imports this module only on first access to its names, so the constructive
geometry never loads numpy.

The grid searches evaluate exact objective values on a regular grid, so the
reported best value can only overestimate the true minimum, and by at most
certified_tolerance (a Lipschitz bound times the grid spacing).  The grid
minimum itself is exact: the 3-periodic search skips only grid cells that a
proven lower bound (Heron's reflection) places above an attained grid value,
so pruning leaves best_value and certified_tolerance unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import EdgeId, Point, Triangle, edge_endpoints, reflect_point

# The 6-periodic chain DP batches start indices so that one batch's min-plus
# temporary holds at most this many float64s (~1 MB).
_CHUNK = 1 << 17


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_params: list[float]
    grid_n: int
    objective: str  # "gap1" or "gap2"
    certified_tolerance: float


def _segment_grid(s: Point, f: Point, us: np.ndarray) -> np.ndarray:
    return np.stack(
        [s.x + us * (f.x - s.x), s.y + us * (f.y - s.y)], axis=-1
    )


def _edge_grid(t: Triangle, e: EdgeId, us: np.ndarray) -> np.ndarray:
    return _segment_grid(*edge_endpoints(t, e), us)


def _dist_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1])


def _cycle_totals(
    pa_i: np.ndarray, pb: np.ndarray, pc_ks: np.ndarray, d_bc: np.ndarray
) -> np.ndarray:
    """Shortest grid cycle through PA_i, some PB_j and each point of pc_ks,
    given d_bc[j, s] = |PB_j pc_ks[s]|; same float operations as a full
    min-plus cube, so the same bits."""
    d_ab = _dist_matrix(pa_i[None], pb)[0]
    d_ca = _dist_matrix(pc_ks, pa_i[None])[:, 0]
    return (d_ab[:, None] + d_bc).min(axis=0) + d_ca


def grid_search_3periodic(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the inscribed-triangle perimeter (the 1-gap of a cyclic
    3-periodic schedule) over a (grid_n+1)^3 grid, one parameter per edge.

    Value and tie-breaking (first (u1, u3) in row order, then first u2) are
    those of the full grid; only (u1, u3) pairs whose lower bound exceeds
    an attained grid value are skipped."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.arange(grid_n + 1) / grid_n
    pa = _edge_grid(t, EdgeId.A, us)
    pb = _edge_grid(t, EdgeId.B, us)
    pc = _edge_grid(t, EdgeId.C, us)
    # Heron: for every PB on line AC, |PA PB| + |PB PC| >= |R_AC(PA) PC|,
    # so lb[i, k] bounds every cycle through PA_i and PC_k from below.
    # R_AC maps edge BC onto the segment from R_AC(B) to C.
    ra = _segment_grid(reflect_point(t.b, (t.a, t.c)), t.c, us)
    lb = _dist_matrix(pa, pc) + _dist_matrix(ra, pc)
    i0, k0 = np.unravel_index(int(np.argmin(lb)), lb.shape)
    upper = _cycle_totals(pa[i0], pb, pc[[k0]], _dist_matrix(pb, pc[[k0]]))[0]
    # lb and the totals are each within a few ulps of |coord| + diameter
    # (~1e-15 of it).  The 1e-9 margin dwarfs that, so every skipped pair's
    # total is strictly above the grid minimum; far from the origin it
    # keeps more pairs (all of them at |coord| ~ 1e9 * diameter).
    scale = t.diameter + max(abs(x) for v in t.vertices for x in v.as_tuple())
    keep = lb <= upper + 1e-9 * scale
    cols = np.flatnonzero(keep.any(axis=0))
    d_bc = _dist_matrix(pb, pc[cols])  # only the columns a kept pair uses
    best = math.inf
    bi = bk = 0
    # One grid row per step keeps each temporary within one (n+1)^2 slice.
    for i in np.flatnonzero(keep.any(axis=1)):
        ks = np.flatnonzero(keep[i])
        totals = _cycle_totals(pa[i], pb, pc[ks], d_bc[:, np.searchsorted(cols, ks)])
        s = int(np.argmin(totals))
        if totals[s] < best:
            best, bi, bk = float(totals[s]), int(i), int(ks[s])
    # Recover the middle parameter only for the winning (u1, u3) pair.
    legs = _dist_matrix(pa[[bi]], pb)[0] + _dist_matrix(pb, pc[[bk]])[:, 0]
    best_idx = (bi, int(np.argmin(legs)), bk)
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

# Local refinement rounds of the 6-periodic search after its coarse grid.
REFINE_ROUNDS = 8


def _min_cycle_6(d_fwd: list[np.ndarray]) -> tuple[float, list[int]]:
    """Min over u1..u6 of the closed chain sum, with backpointer recovery.

    d_fwd[i] is the distance matrix between stop i and stop i+1 (0-based,
    stop 6 wrapping to stop 0).  The chain DP runs for a chunk of start
    indices i0 at once; ties go to the first i0, then the first index of
    each later stop, as a loop over i0 would give.
    """
    n1 = d_fwd[0].shape[0]
    best = math.inf
    best_idx: list[int] = [0] * 6
    step = max(1, _CHUNK // (n1 * n1))
    for lo in range(0, n1, step):
        i0s = np.arange(lo, min(n1, lo + step))
        v = d_fwd[0][i0s]  # v[r, j]: best chain from stop 0 = i0s[r] to j
        bps = []
        for d in d_fwd[1:5]:
            # [r, next, prev], C order so the reductions below copy nothing
            tot = np.add(v[:, None, :], d.T, order="C")
            bps.append(np.argmin(tot, axis=2))
            v = np.min(tot, axis=2)
            del tot  # free this chunk before the next step allocates its own
        tot_last = v + d_fwd[5][:, i0s].T
        r, i5 = np.unravel_index(int(np.argmin(tot_last)), tot_last.shape)
        val = float(tot_last[r, i5])
        if val < best:
            best = val
            idx = [int(i0s[r]), 0, 0, 0, 0, int(i5)]
            for s in range(4, 0, -1):
                idx[s] = int(bps[s - 1][r, idx[s + 1]])
            best_idx = idx
    return best, best_idx


def grid_search_6periodic_gap2(t: Triangle, grid_n: int) -> SearchResult:
    """Minimize the 2-gap over cyclic 6-periodic generators with edge pattern
    (A,C,B,A,C,B); coarse certified grid plus local refinement around the
    best cell.  certified_tolerance reflects the coarse grid only."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    lo = np.zeros(6)
    hi = np.ones(6)
    best_val = math.inf
    best_us = [0.0] * 6
    for _ in range(REFINE_ROUNDS + 1):
        axes = [np.linspace(lo[i], hi[i], grid_n + 1) for i in range(6)]
        grids = [
            _edge_grid(t, e, ax) for e, ax in zip(GAP2_PATTERN, axes)
        ]
        d_fwd = [
            _dist_matrix(grids[i], grids[(i + 1) % 6]) for i in range(6)
        ]
        val, idx = _min_cycle_6(d_fwd)
        if val < best_val:
            best_val = val
            best_us = [float(axes[i][idx[i]]) for i in range(6)]
        width = (hi - lo) / grid_n  # current cell size per axis
        lo = np.clip([best_us[i] - width[i] for i in range(6)], 0.0, 1.0)
        hi = np.clip([best_us[i] + width[i] for i in range(6)], 0.0, 1.0)
        if max(width) < 1e-9:
            break
    return SearchResult(
        best_value=best_val,
        best_params=best_us,
        grid_n=grid_n,
        objective="gap2",
        certified_tolerance=12.0 * t.diameter / grid_n,
    )

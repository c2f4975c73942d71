"""Reference greedy_ratio_extremes, as it was written on numpy grids.
The channel's other kernels, gap_report, prefix_gap_report and greedy_run,
are checked against tests/reference_exact.py instead.  It is kept only for
the tests to compare against.
"""
from __future__ import annotations

import math

from tripatrol.geom import RIGHT_ANGLE_SLACK


def greedy_ratio_extremes(
    grid_n: int,
) -> tuple[float, float, tuple[float, float, float], tuple[float, float, float]]:
    """The ratio landscape on numpy grids: the same grid, filter and
    sums, with numpy's sin and cos, and the first max and min in (A, B)
    row order from nanargmax and nanargmin."""
    import numpy as np

    if grid_n < 100:
        raise ValueError("grid_n must be >= 100 to resolve the landscape")
    h = (math.pi / 2) / grid_n
    vals = np.arange(1, grid_n + 1) * h
    A, B = np.meshgrid(vals, vals, indexing="ij")
    C = math.pi - A - B
    ok = C > 1e-12
    # The formula itself only needs C <= pi/2, i.e. A + B >= pi/2.
    ok &= C <= math.pi / 2 + RIGHT_ANGLE_SLACK
    num = np.sin(A) + np.sin(B) + np.sin(C)
    den = 2.0 * (1.0 + np.cos(A) * np.cos(B) * np.cos(C))
    f = np.where(ok, num / den, np.nan)
    hi = np.nanargmax(f)
    lo = np.nanargmin(f)
    ai, bi = np.unravel_index(hi, f.shape)
    aj, bj = np.unravel_index(lo, f.shape)
    argmax = (float(A[ai, bi]), float(B[ai, bi]), float(C[ai, bi]))
    argmin = (float(A[aj, bj]), float(B[aj, bj]), float(C[aj, bj]))
    return float(f[ai, bi]), float(f[aj, bj]), argmax, argmin

"""Greedy projection patrolling: simulation, linear recurrence, fixed point,
limit cycle, and the greedy-to-optimal ratio function.

The agent starts on BC and hops to the perpendicular projection of its
position onto the next edge in a fixed cyclic order (BC, AB, AC clockwise).
The distance-from-B on BC obeys d_{i+1} = c - x*d_i with
x = cosA cosB cosC, so the trajectory contracts onto a 3-periodic cycle
similar to the triangle itself.
"""

from __future__ import annotations

import math

from .geom import (
    EdgeId,
    Record,
    Triangle,
    angles,
    edge_endpoints,
    edge_param,
    edge_param_xy,
    edge_point,
    line_dir,
    project_along,
    project_onto_edge,
    require_acute,
    slot_setters,
)
from .schedule import Schedule, SchedulePoint


class ProjectionEscapesEdge(RuntimeError):
    """A projection left its closed edge segment (impossible for acute input)."""


class GreedyTrace(Record):
    """One greedy run from start_u on BC, and its analysis."""

    __slots__ = __match_args__ = (
        "start_u", "direction", "iterates", "c", "x", "fixed_point", "limit_schedule",
        "limit_gap", "iterations_to_converge", "converged", "visited",
    )

    def __init__(
        self,
        start_u: float,
        direction: str,  # "cw" or "ccw"
        iterates: list[float],  # distance from B on BC, in units of |BC|, per revisit
        c: float,  # recurrence constant, |BC| normalized to 1
        x: float,  # cosA cosB cosC
        fixed_point: float,
        limit_schedule: Schedule,
        limit_gap: float,
        iterations_to_converge: int,
        converged: bool,
        visited: list[SchedulePoint],  # full simulated prefix, starting point included
    ):
        values = (
            start_u, direction, iterates, c, x, fixed_point, limit_schedule,
            limit_gap, iterations_to_converge, converged, visited,
        )
        for store, value in zip(_SET_GREEDY_TRACE, values):
            store(self, value)


_SET_GREEDY_TRACE = slot_setters(GreedyTrace)


# Clockwise visiting order BC -> AB -> AC (edges A, C, B); ccw reverses.
_CYCLES = {"cw": (EdgeId.C, EdgeId.B, EdgeId.A), "ccw": (EdgeId.B, EdgeId.C, EdgeId.A)}


def recurrence_constants(t: Triangle, direction: str = "cw") -> tuple[float, float]:
    """(c, x) of d_{i+1} = c - x*d_i for the BC revisit distances (|BC| = 1)."""
    a_ang, b_ang, c_ang = angles(t)
    alpha, beta, gamma = t.side_lengths
    x = math.cos(a_ang) * math.cos(b_ang) * math.cos(c_ang)
    if direction == "cw":
        c = 1.0 - math.cos(c_ang) * beta / alpha + math.cos(a_ang) * math.cos(c_ang) * gamma / alpha
    elif direction == "ccw":
        c = math.cos(b_ang) * gamma / alpha - math.cos(a_ang) * math.cos(b_ang) * beta / alpha + x
    else:
        raise ValueError("direction must be 'cw' or 'ccw'")
    return c, x


def greedy_run(
    t: Triangle, start_u: float, num_cycles: int = 200, direction: str = "cw"
) -> GreedyTrace:
    """Iterate the greedy projections for num_cycles BC revisits (or until the
    revisit distance settles to 1e-12 of |BC|) and package the analysis."""
    require_acute(t)
    if not 0.0 <= start_u <= 1.0:
        raise ValueError("start_u must lie in [0, 1]")
    if num_cycles < 1:
        raise ValueError("num_cycles must be >= 1")
    cycle = _CYCLES.get(direction)
    if cycle is None:
        raise ValueError("direction must be 'cw' or 'ccw'")

    visited = [SchedulePoint(EdgeId.A, start_u)]
    cur = edge_point(t, EdgeId.A, start_u).as_tuple()
    frames = {}  # edge -> (start, unit direction); built at first use, so checks fail in step order
    iterates = [start_u]
    converged = False
    its = num_cycles
    for i in range(num_cycles):
        for e in cycle:
            if e not in frames:
                frames[e] = (edge_endpoints(t, e)[0], line_dir(edge_endpoints(t, e)))
            cur = project_along(cur, *frames[e])
            u = edge_param_xy(t, e, cur)
            if not -1e-9 <= u <= 1.0 + 1e-9:
                raise ProjectionEscapesEdge(
                    f"projection onto edge {e.name} landed at u={u}"
                )
            visited.append(SchedulePoint(e, min(1.0, max(0.0, u))))
        d = visited[-1].u
        iterates.append(d)
        if abs(d - iterates[-2]) <= 1e-12:
            converged = True
            its = i + 1
            break

    c, x = recurrence_constants(t, direction)
    fixed = c / (1.0 + x)
    limit = _limit_schedule(t, fixed, cycle)
    limit_gap = limit.period_length()
    return GreedyTrace(
        start_u=start_u,
        direction=direction,
        iterates=iterates,
        c=c,
        x=x,
        fixed_point=fixed,
        limit_schedule=limit,
        limit_gap=limit_gap,
        iterations_to_converge=its,
        converged=converged,
        visited=visited,
    )


def _limit_schedule(t: Triangle, fixed_u: float, cycle: tuple[EdgeId, ...]) -> Schedule:
    d = edge_point(t, EdgeId.A, fixed_u)
    pts = [SchedulePoint(EdgeId.A, fixed_u)]
    cur = d
    for e in cycle[:2]:
        cur = project_onto_edge(cur, t, e)
        pts.append(SchedulePoint(e, edge_param(t, e, cur)))
    closing = project_onto_edge(cur, t, EdgeId.A)
    if closing.dist(d) > 1e-10 * t.diameter:
        raise AssertionError("limit cycle failed to close onto its fixed point")
    return Schedule(t, tuple(pts))


def greedy_limit_gap(t: Triangle) -> float:
    """Closed-form 1-gap of the greedy limit cycle:
    p * sinA sinB sinC / (1 + cosA cosB cosC)."""
    a_ang, b_ang, c_ang = angles(t)
    if max(a_ang, b_ang, c_ang) > math.pi / 2 + 1e-12:
        raise ValueError("angles must lie in (0, pi/2]")
    k = (
        math.sin(a_ang)
        * math.sin(b_ang)
        * math.sin(c_ang)
        / (1.0 + math.cos(a_ang) * math.cos(b_ang) * math.cos(c_ang))
    )
    return t.perimeter * k


def _ratio_formula(a_ang, b_ang, c_ang):
    """(sinA + sinB + sinC) / (2 (1 + cosA cosB cosC)); no domain checks."""
    import numpy as np  # here, so that importing the package stays numpy-free

    num = np.sin(a_ang) + np.sin(b_ang) + np.sin(c_ang)
    den = 2.0 * (1.0 + np.cos(a_ang) * np.cos(b_ang) * np.cos(c_ang))
    return num / den


def greedy_ratio(t_angles: tuple[float, float, float]) -> float:
    """Scale-free ratio of the greedy limit 1-gap to the orthic perimeter."""
    a_ang, b_ang, c_ang = t_angles
    if abs(a_ang + b_ang + c_ang - math.pi) > 1e-9:
        raise ValueError("angles must sum to pi")
    if min(a_ang, b_ang, c_ang) <= 0.0 or max(a_ang, b_ang, c_ang) > math.pi / 2 + 1e-12:
        raise ValueError("angles must lie in (0, pi/2]")
    return float(_ratio_formula(a_ang, b_ang, c_ang))


def greedy_ratio_extremes(
    grid_n: int,
) -> tuple[float, float, tuple[float, float, float], tuple[float, float, float]]:
    """Grid extremes of the ratio over {A+B+C=pi, 0 < A,B,C <= pi/2}.

    Returns (max, min, argmax angles, argmin angles); ties go to the
    lexicographically smallest (A, B) grid pair.
    """
    import numpy as np

    if grid_n < 100:
        raise ValueError("grid_n must be >= 100 to resolve the landscape")
    h = (math.pi / 2) / grid_n
    vals = np.arange(1, grid_n + 1) * h
    A, B = np.meshgrid(vals, vals, indexing="ij")
    C = math.pi - A - B
    ok = C > 1e-12
    # The formula itself only needs C <= pi/2, i.e. A + B >= pi/2.
    ok &= C <= math.pi / 2 + 1e-12
    f = np.where(ok, _ratio_formula(A, B, C), np.nan)
    hi = np.nanargmax(f)
    lo = np.nanargmin(f)
    ai, bi = np.unravel_index(hi, f.shape)
    aj, bj = np.unravel_index(lo, f.shape)
    argmax = (float(A[ai, bi]), float(B[ai, bi]), float(C[ai, bi]))
    argmin = (float(A[aj, bj]), float(B[aj, bj]), float(C[aj, bj]))
    return float(f[ai, bi]), float(f[aj, bj]), argmax, argmin

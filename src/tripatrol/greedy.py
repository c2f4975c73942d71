"""Greedy projection patrolling: simulation, linear recurrence, fixed point,
limit cycle, and the greedy-to-optimal ratio function.

The agent starts on BC and hops to the perpendicular projection of its
position onto the next edge in a fixed cyclic order (BC, AB, AC clockwise).
The distance-from-B on BC obeys d_{i+1} = c - x*d_i with
x = cosA cosB cosC, so the trajectory contracts onto a 3-periodic cycle
similar to the triangle itself.

The walk and its limit cycle run on geom.local_frame(t), the triangle
moved near the origin and scaled by a power of two; their edge parameters
need no mapping, and the limit cycle's gap is scaled back.  So the walk
settles as fast far from the origin as near it.
"""

from __future__ import annotations

import math

from .geom import (
    RIGHT_ANGLE_SLACK,
    EdgeId,
    Record,
    Triangle,
    angles,
    edge_frame,
    edge_point,
    foot_on_edge,
    local_frame,
    require_acute,
    slot_setters,
)
from .schedule import Schedule, SchedulePoint


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
    revisit distance settles to 1e-12 of |BC|) and package the analysis.
    The walk runs on local_frame(t); its edge parameters need no mapping."""
    require_acute(t)
    local = local_frame(t)[0]
    if not 0.0 <= start_u <= 1.0:
        raise ValueError("start_u must lie in [0, 1]")
    if num_cycles < 1:
        raise ValueError("num_cycles must be >= 1")
    cycle = _CYCLES.get(direction)
    if cycle is None:
        raise ValueError("direction must be 'cw' or 'ccw'")

    visited = [SchedulePoint(EdgeId.A, start_u)]
    p = edge_point(local, EdgeId.A, start_u)
    x, y = p.x, p.y
    steps = [(e, edge_frame(*local.edges[e])) for e in cycle]
    iterates = [start_u]
    converged = False
    its = num_cycles
    for i in range(num_cycles):
        for e, step in steps:
            x, y, u = foot_on_edge(x, y, *step)
            visited.append(SchedulePoint(e, u))
        d = visited[-1].u
        iterates.append(d)
        if abs(d - iterates[-2]) <= 1e-12:
            converged = True
            its = i + 1
            break

    c, x = recurrence_constants(t, direction)
    fixed = c / (1.0 + x)
    limit = _limit_schedule(t, local, fixed, steps)
    return GreedyTrace(
        start_u=start_u,
        direction=direction,
        iterates=iterates,
        c=c,
        x=x,
        fixed_point=fixed,
        limit_schedule=limit,
        limit_gap=limit.period_length(),
        iterations_to_converge=its,
        converged=converged,
        visited=visited,
    )


def _limit_schedule(t: Triangle, local: Triangle, fixed_u: float, steps: list) -> Schedule:
    """The limit cycle of t through fixed_u on BC: the start and the walk's
    first two steps from it on local = local_frame(t)[0], each clamped to
    its edge.  fixed_u is the recurrence's fixed point, so the third step
    lands back on the start (tests/test_greedy.py measures it)."""
    d = edge_point(local, EdgeId.A, fixed_u)
    (e1, step1), (e2, step2), _ = steps
    x, y, u1 = foot_on_edge(d.x, d.y, *step1)
    _, _, u2 = foot_on_edge(x, y, *step2)
    start = SchedulePoint(EdgeId.A, min(max(fixed_u, 0.0), 1.0))
    return Schedule(t, (start, SchedulePoint(e1, u1), SchedulePoint(e2, u2)))


def greedy_limit_gap(t: Triangle) -> float:
    """Closed-form 1-gap of the greedy limit cycle:
    p * sinA sinB sinC / (1 + cosA cosB cosC)."""
    a_ang, b_ang, c_ang = angles(t)
    if max(a_ang, b_ang, c_ang) > math.pi / 2 + RIGHT_ANGLE_SLACK:
        raise ValueError("angles must lie in (0, pi/2]")
    k = (
        math.sin(a_ang)
        * math.sin(b_ang)
        * math.sin(c_ang)
        / (1.0 + math.cos(a_ang) * math.cos(b_ang) * math.cos(c_ang))
    )
    return t.perimeter * k


def _ratio_formula(a_ang: float, b_ang: float, c_ang: float) -> float:
    """(sinA + sinB + sinC) / (2 (1 + cosA cosB cosC)); no domain checks."""
    num = math.sin(a_ang) + math.sin(b_ang) + math.sin(c_ang)
    return num / (2.0 * (1.0 + math.cos(a_ang) * math.cos(b_ang) * math.cos(c_ang)))


def greedy_ratio(t_angles: tuple[float, float, float]) -> float:
    """Scale-free ratio of the greedy limit 1-gap to the orthic perimeter."""
    a_ang, b_ang, c_ang = t_angles
    # Written so that a NaN angle fails each check.
    if not abs(a_ang + b_ang + c_ang - math.pi) <= 1e-9:
        raise ValueError("angles must sum to pi")
    if not all(0.0 < x <= math.pi / 2 + RIGHT_ANGLE_SLACK for x in (a_ang, b_ang, c_ang)):
        raise ValueError("angles must lie in (0, pi/2]")
    return _ratio_formula(a_ang, b_ang, c_ang)


def greedy_ratio_extremes(
    grid_n: int,
) -> tuple[float, float, tuple[float, float, float], tuple[float, float, float]]:
    """Grid extremes of the ratio over {A+B+C=pi, 0 < A,B,C <= pi/2}, with
    A and B on the grid i*pi/(2 grid_n), i = 1..grid_n.

    Returns (max, min, argmax angles, argmin angles); ties go to the
    lexicographically smallest (A, B) grid pair.
    """
    if not isinstance(grid_n, int) or grid_n < 100:
        raise ValueError("grid_n must be an integer >= 100 to resolve the landscape")
    h = (math.pi / 2) / grid_n
    vals = [i * h for i in range(1, grid_n + 1)]
    fmax, fmin = -math.inf, math.inf
    for a_ang in vals:
        for b_ang in vals:
            c_ang = math.pi - a_ang - b_ang
            # The formula itself only needs C <= pi/2, i.e. A + B >= pi/2.
            if not 1e-12 < c_ang <= math.pi / 2 + RIGHT_ANGLE_SLACK:
                continue
            f = _ratio_formula(a_ang, b_ang, c_ang)
            if f > fmax:
                fmax, argmax = f, (a_ang, b_ang, c_ang)
            if f < fmin:
                fmin, argmin = f, (a_ang, b_ang, c_ang)
    return fmax, fmin, argmax, argmin

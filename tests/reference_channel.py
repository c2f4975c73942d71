"""Reference channel kernels: the gap timeline (_visit_times,
_gaps_from_times, gap_report, prefix_gap_report) and greedy_run with its
limit cycle, as they were written on Points and per-call primitives
before the edges on Triangle and the inline loops; and
greedy_ratio_extremes as it was written on numpy grids.  Their
intersections and edge parameters come from reference_geom, and the
walk's projections from line_dir and project_along, geom's former float
helpers kept here verbatim, so a change to geom cannot move the
references it is checked against.  greedy_feet is the walk's projections
alone, for the tests that measure them.

The caller_frame_* functions are those bodies, run on the triangle they
are given.  The public ones run the same bodies on geom.local_frame(t)'s
triangle and map the result back as tripatrol does: edge parameters as
they are, lengths times the frame's scale.  A gap or travel time adds leg
lengths measured on the local frame, times the scale.  tripatrol must
return the same values, bit for bit, and raise the same exceptions with
the same messages as the public ones on every input, but for greedy_run
on thin triangles, where this walk's escape test and this limit cycle's
unclamped edge parameters refuse rounding that tripatrol clamps.  The
caller_frame_* ones check the frame itself.  They are kept only for the
tests to compare against.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence

import reference_geom as ref
from tripatrol.geom import (
    RIGHT_ANGLE_SLACK,
    EdgeId,
    Line,
    Point,
    Triangle,
    edge_point,
    local_frame,
    require_acute,
)
from tripatrol.greedy import _CYCLES, GreedyTrace, recurrence_constants
from tripatrol.schedule import GapReport, InfeasibleSchedule, Schedule, SchedulePoint


XY = tuple[float, float]  # a point as plain floats, as the hot loops compute on it


def line_dir(line: Line) -> XY:
    """Unit vector from the line's first point toward its second."""
    p, q = line
    dx, dy = q.x - p.x, q.y - p.y
    n = math.hypot(dx, dy)
    if n <= 1e-12 * max(p.norm(), q.norm()):
        raise ValueError("line endpoints coincide")
    s = 1.0 / n
    return (dx * s, dy * s)


def project_along(p: XY, a: Point, d: XY) -> XY:
    """Foot of the perpendicular from p onto the line through a with unit direction d."""
    s = (p[0] - a.x) * d[0] + (p[1] - a.y) * d[1]
    return (a.x + d[0] * s, a.y + d[1] * s)


class ProjectionEscapesEdge(RuntimeError):
    """A projection left its closed edge segment (impossible for acute input)."""


def _visit_times(
    positions: Sequence[Point], points: Sequence[SchedulePoint], horizon: int, tol: float, scale: float = 1.0
) -> dict[EdgeId, list[float]]:
    """Visit instants per edge over `horizon` points of the walk repeating
    `points`, one per instant; each leg is measured between positions and
    multiplied by scale."""
    m = len(points)
    legs = [positions[i - 1].dist(positions[i]) * scale for i in range(m)]  # legs[i] ends at point i
    edges = [p.visited_edges for p in points]
    times: dict[EdgeId, list[float]] = {e: [] for e in EdgeId}
    now = 0.0
    for i in range(horizon):
        for e in edges[i % m]:
            seen = times[e]
            if not seen or now - seen[-1] > tol:
                seen.append(now)
        now += legs[(i + 1) % m]
    return times


def _gaps_from_times(
    times: dict[EdgeId, list[float]],
    t: int,
    horizon: int,
    mode: str,
    allow_missing: bool = False,
) -> GapReport:
    per_edge: dict[EdgeId, list[float]] = {}
    sups: dict[EdgeId, float] = {}
    for e in EdgeId:
        ts = times[e]
        if not ts:
            raise InfeasibleSchedule(f"edge {e.name} never visited")
        if len(ts) <= t:
            # Not enough visits to observe a single t-gap for this edge.
            if allow_missing:
                continue
            raise ValueError(
                f"horizon too short: edge {e.name} visited {len(ts)} time(s), need > {t}"
            )
        gaps = [ts[i + t] - ts[i] for i in range(len(ts) - t)]
        per_edge[e] = gaps
        sups[e] = max(gaps)
    if not sups:
        raise ValueError("no t-gap observable within the prefix")
    return GapReport(
        t=t,
        per_edge_gaps=per_edge,
        per_edge_sup=sups,
        overall=max(sups.values()),
        horizon=horizon,
        mode=mode,
    )


def _local_positions(triangle: Triangle, points: Sequence[SchedulePoint]) -> tuple[list[Point], float]:
    local, _, scale = local_frame(triangle)
    return [edge_point(local, p.edge, p.u) for p in points], scale


def gap_report(s: Schedule, t: int = 1, horizon: int | None = None) -> GapReport:
    """t-gap sequences and suprema of a schedule, examined over `horizon`
    sequence elements (default: enough to attain the periodic supremum)."""
    if t < 1:
        raise ValueError("gap order t must be >= 1")
    m = len(s.generator)
    attained = m * (t + 1) + 1
    if horizon is None:
        horizon = attained
    if horizon < m + 1:
        raise ValueError(f"horizon {horizon} shorter than one period plus a revisit")
    positions, scale = _local_positions(s.triangle, s.generator)
    times = _visit_times(positions, s.generator, horizon, s.triangle.tol(), scale)
    mode = "periodic" if horizon >= attained else "observed"
    return _gaps_from_times(times, t, horizon, mode)


def prefix_gap_report(
    points: Sequence[SchedulePoint], triangle: Triangle, t: int = 1
) -> GapReport:
    """Gap report over a finite non-repeating prefix of schedule points."""
    if t < 1:
        raise ValueError("gap order t must be >= 1")
    pos, scale = _local_positions(triangle, points)
    times = _visit_times(pos, points, len(points), triangle.tol(), scale)
    return _gaps_from_times(times, t, len(points), "observed", allow_missing=True)


def greedy_run(t: Triangle, start_u: float, num_cycles: int = 200, direction: str = "cw") -> GreedyTrace:
    """The walk of caller_frame_greedy_run on local_frame(t)'s triangle; the
    recurrence and the limit cycle of t itself."""
    walk = caller_frame_greedy_run(local_frame(t)[0], start_u, num_cycles, direction)
    c, x = recurrence_constants(t, direction)
    fixed = c / (1.0 + x)
    limit = _limit_schedule(t, fixed, _CYCLES[direction])
    return GreedyTrace(
        start_u=start_u,
        direction=direction,
        iterates=walk.iterates,
        c=c,
        x=x,
        fixed_point=fixed,
        limit_schedule=limit,
        limit_gap=limit.period_length(),
        iterations_to_converge=walk.iterations_to_converge,
        converged=walk.converged,
        visited=walk.visited,
    )


def greedy_feet(t: Triangle, start_u: float, direction: str) -> Iterator[tuple[EdgeId, Point]]:
    """(edge, foot) for each projection of the greedy walk from start_u on
    BC, without end.  An edge's frame is built at its first use, so checks
    fail in step order."""
    cur = edge_point(t, EdgeId.A, start_u).as_tuple()
    frames = {}  # edge -> (start, unit direction)
    while True:
        for e in _CYCLES[direction]:
            if e not in frames:
                frames[e] = (t.edges[e][0], line_dir(t.edges[e]))
            cur = project_along(cur, *frames[e])
            yield e, Point(*cur)


def caller_frame_greedy_run(
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
    feet = greedy_feet(t, start_u, direction)
    iterates = [start_u]
    converged = False
    its = num_cycles
    for i in range(num_cycles):
        for e, p in itertools.islice(feet, len(cycle)):
            u = ref.edge_param(t, e, p)
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
    """The limit cycle through fixed_u on BC, projected on local_frame(t)."""
    local = local_frame(t)[0]
    d = edge_point(local, EdgeId.A, fixed_u)
    pts = [SchedulePoint(EdgeId.A, fixed_u)]
    cur = d
    for e in cycle[:2]:
        cur = ref.project_onto_line(cur, local.edges[e])
        pts.append(SchedulePoint(e, ref.edge_param(local, e, cur)))
    closing = ref.project_onto_line(cur, local.edges[EdgeId.A])
    if closing.dist(d) > 1e-10 * local.diameter:
        raise AssertionError("limit cycle failed to close onto its fixed point")
    return Schedule(t, tuple(pts))


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

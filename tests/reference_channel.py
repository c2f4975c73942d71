"""Reference channel kernels: sub_orthic_schedule, the gap timeline
(_visit_times, _gaps_from_times, gap_report, prefix_gap_report),
lower_bound_profile with segment_distance_xy, and greedy_run with its
limit cycle, as they were written on Points and per-call primitives before
the sweep data on Unfolding, the edges on Triangle and the inline loops;
and greedy_ratio_extremes as it was written on numpy grids.  Their
intersections, folds and edge parameters come from reference_geom, and the
walk's projections from line_dir and project_along, geom's former float
helpers kept here verbatim, so a change to geom cannot move the
references it is checked against.
greedy_feet is the walk's projections alone, and folded_crossings the
sweep's folded crossings, unchecked, for the tests that measure them.

The caller_frame_* functions are those bodies, run on the triangle they
are given.  The public ones run the same bodies on geom.local_frame(t)'s
triangle and map the result back as tripatrol does: edge parameters as
they are, lengths times the frame's scale, each Schedule rebuilt on t.  A
gap or travel time adds leg lengths measured on the local frame, times the
scale.  tripatrol must return the same values, bit for bit, and raise the
same exceptions with the same messages as the public ones on every input,
but for v_k near a right angle, where tripatrol's one distance and this
least of four may round a few ulps apart; for greedy_run on thin
triangles, where this walk's escape test and this limit cycle's unclamped
edge parameters refuse rounding that tripatrol clamps; and for a folded
crossing more than 1e-8 diameters off its edge's line, which this
sub_orthic_schedule refuses with reference_geom.PointOffEdge and
tripatrol does not test (tests/test_orthic.py measures that distance).
The caller_frame_* ones check the frame itself.  They are kept only for
the tests to compare against.
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
from tripatrol.orthic import _REFLECTED, OutsideChannel, reflection_chain
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


# The channel line crosses BC, then each mirror: each crossing's relabeled edge and fold depth.
_CROSSED_EDGES = (EdgeId.A,) + tuple(EdgeId(i) for i in _REFLECTED)
_FOLD_DEPTHS = (0,) + tuple(range(len(_REFLECTED)))


def sub_orthic_schedule(t: Triangle, lam: float) -> Schedule:
    local = local_frame(t)[0]
    return Schedule(t, caller_frame_sub_orthic_schedule(local, lam).generator)


def caller_frame_sub_orthic_schedule(t: Triangle, lam: float) -> Schedule:
    """Cyclic 6-periodic schedule from the channel line at parameter lam.

    lam = -1 is the boundary through A1, 0 the orthic line itself, +1 the
    boundary through A; in between the offset interpolates linearly in
    signed distance on each side.
    """
    folded, closing = folded_crossings(t, lam)
    unf = reflection_chain(t)
    # The line's exit through the final copy's base must fold back onto the start.
    if closing.dist(folded[0][1]) > 1e-8 * t.diameter:
        raise AssertionError("folded trajectory failed to close up")

    pts = []
    for edge, p in folded:
        u = ref.edge_param(t, edge, p, rel_tol=1e-8)
        if abs(u) <= unf.snap:
            u = 0.0
        elif abs(u - 1.0) <= unf.snap:
            u = 1.0
        pts.append(SchedulePoint(edge, u))
    return Schedule(t, tuple(pts))


def folded_crossings(t: Triangle, lam: float) -> tuple[list[tuple[EdgeId, Point]], Point]:
    """(folded, closing): the crossings of the channel line at lam with BC
    and each mirror of reflection_chain(t), each folded back onto the base
    with the edge of t it lies on; and its crossing with B2C2, folded back."""
    if not -1.0 <= lam <= 1.0:
        raise OutsideChannel(f"lambda {lam} outside [-1, 1]")
    unf = reflection_chain(t)
    off = lam * (unf.half_width_high if lam >= 0.0 else unf.half_width_low)
    anchor = unf.k + unf.normal * off
    line: Line = (anchor, anchor + unf.direction * t.diameter)

    crossed = ((unf.base.b, unf.base.c),) + unf.mirrors
    folded = [
        (unf.edge_map[e], ref.fold(unf.mirrors, ref.line_intersection(line, cl), n))
        for cl, e, n in zip(crossed, _CROSSED_EDGES, _FOLD_DEPTHS)
    ]
    closing = ref.fold(unf.mirrors, ref.line_intersection(line, (unf.b2, unf.c2)), len(unf.mirrors))
    return folded, closing


def lower_bound_profile(t: Triangle, k_max: int) -> list[tuple[int, float, float]]:
    local, _, scale = local_frame(t)
    return [(k, vk * scale, bound * scale) for k, vk, bound in caller_frame_lower_bound_profile(local, k_max)]


def caller_frame_lower_bound_profile(t: Triangle, k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, v_k / k, bound_k).  v_k is the length of the shortest
    trajectory from the channel cross-section RT on BC to its k-th unfolded
    image RT + k*v, v = K2 - K (|v| = 2 * orthic perimeter): the short
    diagonal of RTT_kR_k.  bound_k >= 2*P - v_k/k is the parallelogram bound
    |v . (T - R)| / (P k) from the skew diagonal."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    unf = reflection_chain(t)
    bc: Line = (unf.base.b, unf.base.c)
    t_pt = ref.line_intersection(unf.boundary_high, bc)
    r_pt = ref.line_intersection(unf.boundary_low, bc)
    v = unf.k2 - unf.k
    per2 = v.norm()  # 2 * orthic perimeter
    c = abs(v.dot(t_pt - r_pt))
    r0, t0 = r_pt.as_tuple(), t_pt.as_tuple()
    rows = []
    for k in range(1, k_max + 1):
        r_k, t_k = (r0[0] + v.x * k, r0[1] + v.y * k), (t0[0] + v.x * k, t0[1] + v.y * k)
        # RT and its translate never cross (v is not parallel to BC), so an endpoint is nearest.
        vk = min(segment_distance_xy(r0, r_k, t_k), segment_distance_xy(t0, r_k, t_k),
                 segment_distance_xy(r_k, r0, t0), segment_distance_xy(t_k, r0, t0))
        rows.append((k, vk / k, 2.0 * c / (per2 * k)))
    return rows


def segment_distance_xy(p: XY, a: XY, b: XY) -> float:
    """Distance from p to the closed segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.dist(p, a)
    u = min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd))
    return math.hypot(p[0] - (a[0] + dx * u), p[1] - (a[1] + dy * u))


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
    return _gap_report(s, t, horizon, *_local_positions(s.triangle, s.generator))


def caller_frame_gap_report(s: Schedule, t: int = 1, horizon: int | None = None) -> GapReport:
    return _gap_report(s, t, horizon, s.positions, 1.0)


def _gap_report(s: Schedule, t: int, horizon: int | None, positions: Sequence[Point], scale: float) -> GapReport:
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

"""Periodic patrolling schedules, visitation-gap reports, cyclic reduction.

A schedule is an infinite sequence of edge-anchored points; here it is
stored as a finite generator repeated periodically.  A unit-speed agent
walks straight between consecutive points, so time equals distance and
time 0 is at the first point.  A point at a vertex (u in {0,1}) visits
both incident edges at the same instant.
"""

from __future__ import annotations

from collections.abc import Sequence

from .geom import EdgeId, Point, Record, Triangle, edge_point, slot_setters, vertex_edges


class InfeasibleSchedule(ValueError):
    """Some edge is never visited."""


class NoReductionWindow(ValueError):
    """Prefix is neither edge-cyclic nor contains the reduction pattern."""


class SchedulePoint(Record):
    """The point at parameter u along edge `edge`."""

    __slots__ = __match_args__ = ("edge", "u")

    def __init__(self, edge: EdgeId, u: float):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"edge parameter {u} outside [0, 1]")
        _set_edge(self, edge)
        _set_u(self, u)

    @property
    def visited_edges(self) -> tuple[EdgeId, ...]:
        return vertex_edges(self.edge, self.u)


_set_edge, _set_u = slot_setters(SchedulePoint)


class Schedule(Record):
    """The periodic schedule that repeats `generator` on `triangle`."""

    # positions: where each generator point sits in the plane; computed
    # once, as every gap, travel time and rendering reads them.
    __match_args__ = ("triangle", "generator")
    __slots__ = __match_args__ + ("positions",)

    def __init__(self, triangle: Triangle, generator: Sequence[SchedulePoint]):
        gen = tuple(generator)
        _set_triangle(self, triangle)
        _set_generator(self, gen)
        if len(gen) < 3:
            raise ValueError("generator needs at least 3 points")
        visited = {e for p in gen for e in p.visited_edges}
        if visited != set(EdgeId):
            missing = ",".join(e.name for e in set(EdgeId) - visited)
            raise InfeasibleSchedule(f"edge(s) {missing} never visited")
        _set_positions(self, tuple(edge_point(triangle, p.edge, p.u) for p in gen))

    def __len__(self) -> int:
        return len(self.generator)

    def position(self, i: int) -> Point:
        return self.positions[i % len(self.positions)]

    def period_length(self) -> float:
        """Distance traveled over one full generator period."""
        return travel_time(self, 0, len(self.generator))


_set_triangle, _set_generator, _set_positions = slot_setters(Schedule)


def is_cyclic(s: Schedule) -> bool:
    """First three visited edges cover all of E and the edge pattern has period 3."""
    edges = [p.edge for p in s.generator]
    if {edges[0], edges[1], edges[2]} != set(EdgeId):
        return False
    m = len(edges)
    return all(edges[(i + 3) % m] == edges[i] for i in range(m))


def is_k_periodic(s: Schedule, k: int) -> bool:
    """True iff s_{i+k} = s_i as physical points, within scale tolerance."""
    if k < 3:
        raise ValueError("periodicity only defined for k >= 3")
    m = len(s.generator)
    tol = s.triangle.tol()
    return all(s.position(i + k).dist(s.position(i)) <= tol for i in range(m))


def travel_time(s: Schedule, i: int, j: int) -> float:
    """Distance (= time for the unit-speed agent) from point i to point j."""
    if i > j:
        raise ValueError("need i <= j")
    return sum(s.position(k).dist(s.position(k + 1)) for k in range(i, j))


def pairwise_gap(s: Schedule) -> float:
    """Longest single segment of the trajectory (max time between any two
    consecutively visited edges).  Defined for cyclic schedules."""
    if not is_cyclic(s):
        raise ValueError("pairwise_gap requires a cyclic schedule")
    m = len(s.generator)
    return max(s.position(i).dist(s.position(i + 1)) for i in range(m))


class GapReport(Record):
    """t-gap sequences per edge, their suprema and the overall supremum,
    over `horizon` sequence elements.  mode is "periodic" when the horizon
    is long enough that the periodic supremum is attained, and "observed"
    for a plain finite-prefix measurement."""

    __slots__ = __match_args__ = ("t", "per_edge_gaps", "per_edge_sup", "overall", "horizon", "mode")

    def __init__(
        self,
        t: int,
        per_edge_gaps: dict[EdgeId, list[float]],
        per_edge_sup: dict[EdgeId, float],
        overall: float,
        horizon: int,
        mode: str = "periodic",
    ):
        for store, value in zip(_SET_GAP_REPORT, (t, per_edge_gaps, per_edge_sup, overall, horizon, mode)):
            store(self, value)


_SET_GAP_REPORT = slot_setters(GapReport)


def _visit_times(
    positions: Sequence[Point], points: Sequence[SchedulePoint], horizon: int, tol: float
) -> dict[EdgeId, list[float]]:
    """Visit instants per edge over `horizon` points of the walk repeating `points`, one per instant."""
    m = len(points)
    legs = [positions[i - 1].dist(positions[i]) for i in range(m)]  # legs[i] ends at point i
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
    times = _visit_times(s.positions, s.generator, horizon, s.triangle.tol())
    mode = "periodic" if horizon >= attained else "observed"
    return _gaps_from_times(times, t, horizon, mode)


def prefix_gap_report(
    points: Sequence[SchedulePoint], triangle: Triangle, t: int = 1
) -> GapReport:
    """Gap report over a finite non-repeating prefix of schedule points."""
    if t < 1:
        raise ValueError("gap order t must be >= 1")
    pos = [edge_point(triangle, p.edge, p.u) for p in points]
    times = _visit_times(pos, points, len(points), triangle.tol())
    return _gaps_from_times(times, t, len(points), "observed", allow_missing=True)


def _edge_cyclic(edges: Sequence[EdgeId]) -> bool:
    if len(edges) < 3 or {edges[0], edges[1], edges[2]} != set(EdgeId):
        return False
    return all(edges[i + 3] == edges[i] for i in range(len(edges) - 3))


def cyclic_reduction(prefix: Sequence[SchedulePoint], triangle: Triangle) -> Schedule:
    """Collapse a non-cyclic prefix into a cyclic 3-periodic schedule whose
    1-gap does not exceed the travel time across the found pattern window.

    The window is the leftmost s_k .. s_{k+l} with edges (x, y, z, y, ..., x),
    x not revisited in between.  Of the two 3-point candidates
    (s_k, s_{k+1}, s_{k+2}) and (s_{k+2}, s_{k+3}, s_{k+l}) the one with the
    smaller 1-gap wins, ties going to the first.  An already edge-cyclic
    prefix is just truncated to its first three points.
    """
    prefix = list(prefix)
    edges = [p.edge for p in prefix]
    if _edge_cyclic(edges):
        return Schedule(triangle, tuple(prefix[:3]))
    n = len(prefix)
    for k in range(n - 4):
        if len({edges[k], edges[k + 1], edges[k + 2]}) != 3:
            continue
        if edges[k + 3] != edges[k + 1]:
            continue
        end = next(
            (j for j in range(k + 4, n) if edges[j] == edges[k]),
            None,
        )
        if end is None or any(edges[j] == edges[k] for j in range(k + 1, end)):
            continue
        first = Schedule(triangle, (prefix[k], prefix[k + 1], prefix[k + 2]))
        second = Schedule(triangle, (prefix[k + 2], prefix[k + 3], prefix[end]))
        g1 = gap_report(first, 1).overall
        g2 = gap_report(second, 1).overall
        return first if g1 <= g2 else second
    raise NoReductionWindow("no reduction pattern found and prefix is not edge-cyclic")


def schedule_to_dict(s: Schedule) -> dict:
    """JSON-ready form: {"triangle": [[x,y]x3], "generator": [{"edge","u"}...]}."""
    return {
        "schema_version": 1,
        "triangle": [[v.x, v.y] for v in s.triangle.vertices],
        "generator": [{"edge": p.edge.name, "u": p.u} for p in s.generator],
    }


def _number(x, what: str) -> float:
    """float(x) of a JSON number; a ValueError for null, true/false, strings,
    lists, objects and ints too large for a float."""
    if not isinstance(x, (bool, str)):
        try:
            return float(x)
        except (TypeError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {x!r}")


def schedule_from_dict(d: dict) -> Schedule:
    """Inverse of schedule_to_dict; raises ValueError on malformed input."""
    if not isinstance(d, dict):
        raise ValueError("schedule document must be a JSON object")
    tri = d.get("triangle")
    gen = d.get("generator")
    if (
        not isinstance(tri, list)
        or len(tri) != 3
        or any(not isinstance(v, list) or len(v) != 2 for v in tri)
    ):
        raise ValueError('"triangle" must be three [x, y] pairs')
    if not isinstance(gen, list) or len(gen) < 3:
        raise ValueError('"generator" must be a list of at least 3 points')
    triangle = Triangle(*(Point(*(_number(x, "vertex coordinate") for x in v)) for v in tri))
    points = []
    for item in gen:
        if not isinstance(item, dict) or "edge" not in item or "u" not in item:
            raise ValueError('generator entries must be {"edge": "A|B|C", "u": number}')
        name = item["edge"]
        if name not in ("A", "B", "C"):
            raise ValueError(f'unknown edge name "{name}"')
        points.append(SchedulePoint(EdgeId[name], _number(item["u"], '"u"')))
    return Schedule(triangle, tuple(points))

"""Periodic patrolling schedules, visitation-gap reports, cyclic reduction.

A schedule is an infinite sequence of edge-anchored points; here it is
stored as a finite generator repeated periodically.  A unit-speed agent
walks straight between consecutive points, so time equals distance and
time 0 is at the first point.  A point at a vertex (u in {0,1}) visits
both incident edges at the same instant.

A gap report walks the schedule's legs over its horizon once: each visit
it keeps is appended to its edge's visit times and, once the edge has t
earlier visits, its t-gap to its edge's gaps in the same step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import cycle, islice

from .geom import EdgeId, Point, Record, Triangle, edge_point, local_frame, slot_setters, vertex_edges


_EDGES = tuple(EdgeId)
_ALL_EDGES = frozenset(EdgeId)


class InfeasibleSchedule(ValueError):
    """Some edge is never visited."""


class NoReductionWindow(ValueError):
    """Prefix is neither edge-cyclic nor contains the reduction pattern."""


class SchedulePoint(Record):
    """The point at parameter u along edge `edge`."""

    # visited_edges: the edges a visit to the point visits (two at a
    # vertex); computed once, as every gap and feasibility check reads them.
    __match_args__ = ("edge", "u")
    __slots__ = __match_args__ + ("visited_edges",)

    def __init__(self, edge: EdgeId, u: float):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"edge parameter {u} outside [0, 1]")
        _set_edge(self, edge)
        _set_u(self, u)
        _set_visited_edges(self, vertex_edges(edge, u))


_set_edge, _set_u, _set_visited_edges = slot_setters(SchedulePoint)


class Schedule(Record):
    """The periodic schedule that repeats `generator` on `triangle`."""

    # legs: legs[i] walks from point i on to point i + 1, computed once, as
    # every gap and travel time reads them.
    __match_args__ = ("triangle", "generator")
    __slots__ = __match_args__ + ("legs",)

    def __init__(self, triangle: Triangle, generator: Sequence[SchedulePoint]):
        gen = tuple(generator)
        _set_triangle(self, triangle)
        _set_generator(self, gen)
        if len(gen) < 3:
            raise ValueError("generator needs at least 3 points")
        visited = {e for p in gen for e in p.visited_edges}
        if visited != _ALL_EDGES:
            missing = ",".join(e.name for e in set(EdgeId) - visited)
            raise InfeasibleSchedule(f"edge(s) {missing} never visited")
        _set_legs(self, _legs(triangle, gen))

    @property
    def positions(self) -> tuple[Point, ...]:
        """Where each generator point sits in the plane, computed on each
        read: only periodicity tests and renderings read them."""
        return tuple([edge_point(self.triangle, p.edge, p.u) for p in self.generator])

    def position(self, i: int) -> Point:
        p = self.generator[i % len(self.generator)]
        return edge_point(self.triangle, p.edge, p.u)

    def period_length(self) -> float:
        """Distance traveled over one full generator period."""
        return travel_time(self, 0, len(self.generator))


_set_triangle, _set_generator, _set_legs = slot_setters(Schedule)


def _legs(triangle: Triangle, points: Sequence[SchedulePoint]) -> tuple[float, ...]:
    """The length of each leg of the closed walk through points, point i to
    point i + 1: measured on local_frame(triangle), then scaled back.

    Each point is edge_point's arithmetic written inline on tuples, with
    the same bits: every schedule the channel workload builds measures its
    legs here, in about half the time of edge_point and Point.dist."""
    local, _, scale = local_frame(triangle)
    edges = local.edges
    xy = []
    for p in points:
        s, f = edges[p.edge]
        u = p.u
        xy.append((s.x + u * (f.x - s.x), s.y + u * (f.y - s.y)))
    return tuple([math.dist(p, q) * scale for p, q in zip(xy, xy[1:] + xy[:1])])


def is_cyclic(s: Schedule) -> bool:
    """First three visited edges cover all of E and the edge pattern has period 3."""
    edges = [p.edge for p in s.generator]
    return _edge_cyclic(edges + edges[:3])


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
    legs, m = s.legs, len(s.legs)
    return sum(legs[k % m] for k in range(i, j))


def pairwise_gap(s: Schedule) -> float:
    """Longest single segment of the trajectory (max time between any two
    consecutively visited edges).  Defined for cyclic schedules."""
    if not is_cyclic(s):
        raise ValueError("pairwise_gap requires a cyclic schedule")
    return max(s.legs)


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
        _set_t(self, t)
        _set_per_edge_gaps(self, per_edge_gaps)
        _set_per_edge_sup(self, per_edge_sup)
        _set_overall(self, overall)
        _set_horizon(self, horizon)
        _set_mode(self, mode)


_set_t, _set_per_edge_gaps, _set_per_edge_sup, _set_overall, _set_horizon, _set_mode = slot_setters(GapReport)


def _gap_walk(
    legs: Sequence[float],
    points: Sequence[SchedulePoint],
    horizon: int,
    tol: float,
    t: int,
    mode: str,
    allow_missing: bool = False,
) -> GapReport:
    """The t-gaps of edges A, B and C over `horizon` points of the walk
    repeating `points`, in one pass; legs[i] walks from point i on to point
    i + 1.  A visit within tol of the edge's last one is the same visit;
    each other visit is kept, and once an edge has t earlier visits, its
    t-gap back to the t-th last of them is appended with it."""
    times: tuple[list[float], list[float], list[float]] = ([], [], [])
    gaps: tuple[list[float], list[float], list[float]] = ([], [], [])
    visits = [p.visited_edges for p in points]
    now = 0.0
    for edges, leg in islice(cycle(zip(visits, legs)), horizon):
        for e in edges:
            seen = times[e]
            if not seen or now - seen[-1] > tol:
                if len(seen) >= t:
                    gaps[e].append(now - seen[-t])
                seen.append(now)
        now += leg
    per_edge: dict[EdgeId, list[float]] = {}
    sups: dict[EdgeId, float] = {}
    for e, ts, gs in zip(_EDGES, times, gaps):
        if not ts:
            raise InfeasibleSchedule(f"edge {e.name} never visited")
        if not gs:
            # Not enough visits to observe a single t-gap for this edge.
            if allow_missing:
                continue
            raise ValueError(
                f"horizon too short: edge {e.name} visited {len(ts)} time(s), need > {t}"
            )
        per_edge[e] = gs
        sups[e] = max(gs)
    if not sups:
        raise ValueError("no t-gap observable within the prefix")
    return GapReport(t, per_edge, sups, max(sups.values()), horizon, mode)


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
    mode = "periodic" if horizon >= attained else "observed"
    return _gap_walk(s.legs, s.generator, horizon, s.triangle.tol(), t, mode)


def prefix_gap_report(
    points: Sequence[SchedulePoint], triangle: Triangle, t: int = 1
) -> GapReport:
    """Gap report over a finite non-repeating prefix of schedule points."""
    if t < 1:
        raise ValueError("gap order t must be >= 1")
    legs = _legs(triangle, points)
    return _gap_walk(legs, points, len(points), triangle.tol(), t, "observed", allow_missing=True)


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
        if end is None:
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

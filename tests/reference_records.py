"""Reference records: the eight frozen dataclasses that tripatrol's records
replaced, as they were defined, field comments included; Unfolding with
only the fields it keeps.

Each tripatrol record must behave as its twin here: the same repr, ==,
hash (or TypeError), pickling, AttributeError on assignment and deletion,
constructor signature, validation and messages.  They are kept only for
the tests to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from tripatrol.geom import (
    DEFAULT_REL_TOL,
    DegenerateTriangle,
    EdgeId,
    Line,
    Point,
    edge_point,
    vertex_edges,
)
from tripatrol.schedule import InfeasibleSchedule, travel_time


@dataclass(frozen=True)
class Triangle:
    a: Point
    b: Point
    c: Point
    # (alpha, beta, gamma) = lengths of BC, AC, AB, and the longest of them;
    # computed once, as every tolerance reads the diameter.
    side_lengths: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sides = (self.b.dist(self.c), self.a.dist(self.c), self.a.dist(self.b))
        d = max(sides)
        object.__setattr__(self, "side_lengths", sides)
        object.__setattr__(self, "diameter", d)
        cross = (self.b - self.a).cross(self.c - self.a)
        if not (math.isfinite(cross) and math.isfinite(d * d)):
            raise DegenerateTriangle(f"vertices {self.a}, {self.b}, {self.c} too large for the float range")
        if d == 0.0 or abs(cross) <= DEFAULT_REL_TOL * d * d:
            raise DegenerateTriangle(f"collinear vertices {self.a}, {self.b}, {self.c}")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    def tol(self) -> float:
        """Absolute length tolerance for this triangle's scale: DEFAULT_REL_TOL * diameter."""
        return DEFAULT_REL_TOL * self.diameter


@dataclass(frozen=True)
class SchedulePoint:
    edge: EdgeId
    u: float

    def __post_init__(self):
        if not 0.0 <= self.u <= 1.0:
            raise ValueError(f"edge parameter {self.u} outside [0, 1]")

    @property
    def visited_edges(self) -> tuple[EdgeId, ...]:
        return vertex_edges(self.edge, self.u)


@dataclass(frozen=True)
class Schedule:
    triangle: Triangle
    generator: tuple[SchedulePoint, ...]
    # Where each generator point sits in the plane; computed once, as every
    # gap, travel time and rendering reads them.
    positions: tuple[Point, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gen = tuple(self.generator)
        object.__setattr__(self, "generator", gen)
        if len(gen) < 3:
            raise ValueError("generator needs at least 3 points")
        visited = {e for p in gen for e in p.visited_edges}
        if visited != set(EdgeId):
            missing = ",".join(e.name for e in set(EdgeId) - visited)
            raise InfeasibleSchedule(f"edge(s) {missing} never visited")
        positions = tuple(edge_point(self.triangle, p.edge, p.u) for p in gen)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.generator)

    def position(self, i: int) -> Point:
        return self.positions[i % len(self.positions)]

    def period_length(self) -> float:
        """Distance traveled over one full generator period."""
        return travel_time(self, 0, len(self.generator))


@dataclass(frozen=True)
class GapReport:
    t: int
    per_edge_gaps: dict[EdgeId, list[float]]
    per_edge_sup: dict[EdgeId, float]
    overall: float
    horizon: int
    # "periodic" when the horizon is long enough that the periodic supremum
    # is attained; "observed" for a plain finite-prefix measurement.
    mode: str = "periodic"


@dataclass(frozen=True)
class OrthicData:
    k_foot: Point  # altitude foot from A on BC
    l_foot: Point  # from B on AC
    m_foot: Point  # from C on AB
    perimeter: float
    x0: float  # L = x0*C + (1-x0)*A, the convex-combination optimizer


@dataclass(frozen=True)
class Unfolding:
    """Five successive reflections of a triangle with angles A >= B >= C
    and the orthic channel they straighten out.

    C1 is C reflected about AB, B1 is B about A-C1, A1 is A about B1-C1,
    C2 is C1 about A1-B1, B2 is B1 about A1-C2.  copies holds the relabeled
    base, then each reflected copy.  The altitude feet of the successive
    copies (k, m, l1, k1, m1, l2, k2) all lie on one line, the orthic line,
    and the segment k -> k2 is two orbit periods long.  The channel is the
    maximal strip of lines parallel to the orthic line that still cross at
    least two edges of every copy; it is bounded by the parallels through A
    and through A1, half_width from the orthic line.
    """

    copies: tuple[Triangle, Triangle, Triangle, Triangle, Triangle, Triangle]
    k: Point
    m: Point
    l1: Point
    k1: Point
    m1: Point
    l2: Point
    k2: Point
    direction: Point  # unit vector along the orthic line
    boundary_low: Line  # through A1, parallel to the orthic line
    boundary_high: Line  # through A, parallel to the orthic line
    half_width: float


@dataclass(frozen=True)
class GreedyTrace:
    start_u: float
    direction: str  # "cw" or "ccw"
    iterates: list[float]  # distance from B on BC, in units of |BC|, per revisit
    c: float  # recurrence constant, |BC| normalized to 1
    x: float  # cosA cosB cosC
    fixed_point: float
    limit_schedule: Schedule
    limit_gap: float
    iterations_to_converge: int
    converged: bool
    visited: list[SchedulePoint]  # full simulated prefix, starting point included


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_params: list[float]
    grid_n: int
    objective: str  # "gap1" or "gap2"
    certified_tolerance: float

"""Planar primitives: points, triangle edges, projections, reflections, angles.

All tolerances are scale-relative: a length comparison uses ``rel_tol *
diameter``, where ``diameter`` is the longest side of the triangle involved
and ``rel_tol`` defaults to the constant DEFAULT_REL_TOL.  The geometric
formulas themselves are exact; floating point is the only noise source.

`Record` is the base of the package's immutable value types (Point,
Triangle, the schedules, reports and the unfolding): repr, ==, hash,
pickling and the assignment guard of a frozen dataclass, read from the
class's `__match_args__`, without importing `dataclasses`.
"""

from __future__ import annotations

import math
from enum import IntEnum

DEFAULT_REL_TOL = 1e-9

# Angular slack used when classifying a triangle as acute: a max angle
# within ACUTE_ANGLE_TOL of pi/2 counts as right, i.e. not acute.
ACUTE_ANGLE_TOL = 1e-9


class DegenerateTriangle(ValueError):
    """Vertices are (numerically) collinear, or too far apart for the float range."""


class PointOffEdge(ValueError):
    """A point handed to edge_param does not lie on the edge's line."""


class NotAcute(ValueError):
    """An operation that needs an acute triangle received a right/obtuse one."""


class Record:
    """An immutable record: its fields are the names in `__match_args__`,
    in declaration order.

    repr, ==, hash and pickling are those of a frozen dataclass with these
    fields: == holds between records of one class with equal fields, hash
    is the hash of the field tuple (a TypeError where a field is a dict or
    a list), and unpickling calls the constructor.  Assigning or deleting
    any attribute raises AttributeError.  A subclass declares `__slots__`
    and an `__init__` that stores each slot through its `slot_setters`;
    slots outside `__match_args__` hold values derived from the fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, o):
        if o.__class__ is self.__class__:
            return self._values() == o._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def slot_setters(cls: type) -> tuple:
    """The `__set__` of each slot cls declares, in `__slots__` order: they
    store a Record's fields past its assignment guard."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Point(Record):
    """An immutable point with finite coordinates x and y."""

    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinates ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    # perfbench/run.py counts Point constructions as the calls made to the
    # code object of Point.__post_init__.
    __post_init__ = __init__

    def __add__(self, o: "Point") -> "Point":
        return Point(self.x + o.x, self.y + o.y)

    def __sub__(self, o: "Point") -> "Point":
        return Point(self.x - o.x, self.y - o.y)

    def __mul__(self, s: float) -> "Point":
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, o: "Point") -> float:
        return self.x * o.x + self.y * o.y

    def cross(self, o: "Point") -> float:
        return self.x * o.y - self.y * o.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, o: "Point") -> float:
        return math.hypot(self.x - o.x, self.y - o.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


_set_x, _set_y = slot_setters(Point)

XY = tuple[float, float]  # a point as plain floats: each primitive computes on XY; its Point form wraps it


class EdgeId(IntEnum):
    """Edge opposite the same-named vertex: A = BC, B = AC, C = AB."""

    A = 0
    B = 1
    C = 2


# Endpoint order convention, fixed globally so edge parameters are
# comparable across operations: A: B->C, B: A->C, C: A->B.
_EDGE_ENDS = {EdgeId.A: (1, 2), EdgeId.B: (0, 2), EdgeId.C: (0, 1)}

# Edges incident to the vertex sitting at u=0 / u=1 of each edge.
_VERTEX_EDGES = {
    (EdgeId.A, 0): (EdgeId.A, EdgeId.C),  # vertex B
    (EdgeId.A, 1): (EdgeId.A, EdgeId.B),  # vertex C
    (EdgeId.B, 0): (EdgeId.B, EdgeId.C),  # vertex A
    (EdgeId.B, 1): (EdgeId.B, EdgeId.A),  # vertex C
    (EdgeId.C, 0): (EdgeId.C, EdgeId.B),  # vertex A
    (EdgeId.C, 1): (EdgeId.C, EdgeId.A),  # vertex B
}


class Triangle(Record):
    """A non-degenerate triangle with vertices a, b, c."""

    # side_lengths: (alpha, beta, gamma) = lengths of BC, AC, AB, and
    # diameter, the longest of them; computed once, as every tolerance
    # reads the diameter.
    __match_args__ = ("a", "b", "c")
    __slots__ = __match_args__ + ("side_lengths", "diameter")

    def __init__(self, a: Point, b: Point, c: Point):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        sides = (b.dist(c), a.dist(c), a.dist(b))
        d = max(sides)
        _set_side_lengths(self, sides)
        _set_diameter(self, d)
        cross = (b - a).cross(c - a)
        if not (math.isfinite(cross) and math.isfinite(d * d)):
            raise DegenerateTriangle(f"vertices {a}, {b}, {c} too large for the float range")
        if d == 0.0 or abs(cross) <= DEFAULT_REL_TOL * d * d:
            raise DegenerateTriangle(f"collinear vertices {a}, {b}, {c}")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    def tol(self, rel_tol: float = DEFAULT_REL_TOL) -> float:
        """Absolute length tolerance for this triangle's scale."""
        return rel_tol * self.diameter


_set_a, _set_b, _set_c, _set_side_lengths, _set_diameter = slot_setters(Triangle)


def angles(t: Triangle) -> tuple[float, float, float]:
    """Interior angles (A, B, C) in radians at vertices a, b, c."""
    return (
        _angle_at(t.a, t.b, t.c),
        _angle_at(t.b, t.c, t.a),
        _angle_at(t.c, t.a, t.b),
    )


def _angle_at(v: Point, p: Point, q: Point) -> float:
    u, w = p - v, q - v
    return math.atan2(abs(u.cross(w)), u.dot(w))


def is_acute(t: Triangle) -> bool:
    """Strictly acute; a right angle (within ACUTE_ANGLE_TOL) is rejected."""
    return max(angles(t)) < math.pi / 2 - ACUTE_ANGLE_TOL


def require_acute(t: Triangle) -> None:
    if not is_acute(t):
        raise NotAcute(f"max angle {max(angles(t)):.12f} rad is not acutely below pi/2")


def edge_endpoints(t: Triangle, e: EdgeId) -> tuple[Point, Point]:
    i, j = _EDGE_ENDS[e]
    v = t.vertices
    return (v[i], v[j])


def edge_point(t: Triangle, e: EdgeId, u: float) -> Point:
    """Point at normalized parameter u along edge e (u in [0,1] on the segment)."""
    s, f = edge_endpoints(t, e)
    return Point(s.x + u * (f.x - s.x), s.y + u * (f.y - s.y))


def edge_param(t: Triangle, e: EdgeId, p: Point, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Normalized parameter of p along edge e; raises PointOffEdge if p is off the line."""
    return edge_param_xy(t, e, p.as_tuple(), rel_tol)


def edge_param_xy(t: Triangle, e: EdgeId, p: XY, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """edge_param of the point p given as floats."""
    s, f = edge_endpoints(t, e)
    dx, dy = f.x - s.x, f.y - s.y
    dd = dx * dx + dy * dy
    wx, wy = p[0] - s.x, p[1] - s.y
    resid = abs(dx * wy - dy * wx) / math.sqrt(dd)
    if resid > t.tol(rel_tol):
        raise PointOffEdge(f"point {Point(*p)} is {resid:g} off the line of edge {e.name}")
    return (wx * dx + wy * dy) / dd


def vertex_edges(e: EdgeId, u: float) -> tuple[EdgeId, ...]:
    """Edges visited by a point at parameter u on edge e (two if u is a vertex)."""
    if u <= 1e-12:
        return _VERTEX_EDGES[(e, 0)]
    if u >= 1.0 - 1e-12:
        return _VERTEX_EDGES[(e, 1)]
    return (e,)


Line = tuple[Point, Point]


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


def reflect_along(p: XY, a: Point, d: XY) -> XY:
    """Mirror image of p across the line through a with unit direction d."""
    fx, fy = project_along(p, a, d)
    return (2.0 * fx - p[0], 2.0 * fy - p[1])


def project_onto_line(p: Point, line: Line) -> Point:
    """Foot of the perpendicular from p onto the (infinite) line."""
    return Point(*project_along(p.as_tuple(), line[0], line_dir(line)))


def project_onto_edge(p: Point, t: Triangle, e: EdgeId) -> Point:
    """Foot of the perpendicular from p onto the line through edge e."""
    return project_onto_line(p, edge_endpoints(t, e))


def reflect_point(p: Point, line: Line) -> Point:
    """Mirror image of p across the line; an involution."""
    return Point(*reflect_along(p.as_tuple(), line[0], line_dir(line)))


def line_intersection(l1: Line, l2: Line) -> Point:
    """Intersection of two non-parallel lines."""
    return Point(*line_intersection_xy(l1, l2))


def line_intersection_xy(l1: Line, l2: Line) -> XY:
    """line_intersection as floats; where the products overflow, the Point it builds raises."""
    (p, q), (r, s) = l1, l2
    d1x, d1y = q.x - p.x, q.y - p.y
    d2x, d2y = s.x - r.x, s.y - r.y
    den = d1x * d2y - d1y * d2x
    if abs(den) <= 1e-14 * math.hypot(d1x, d1y) * math.hypot(d2x, d2y):
        raise ValueError("lines are parallel")
    u = ((r.x - p.x) * d2y - (r.y - p.y) * d2x) / den
    x, y = p.x + d1x * u, p.y + d1y * u
    return (x, y) if math.isfinite(x) and math.isfinite(y) else Point(x, y).as_tuple()


def signed_offset(p: Point, anchor: Point, unit_dir: Point) -> float:
    """Signed perpendicular distance of p from the line (anchor, direction)."""
    return unit_dir.cross(p - anchor)


def segment_distance_xy(p: XY, a: XY, b: XY) -> float:
    """Distance from p to the closed segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.dist(p, a)
    u = min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd))
    return math.hypot(p[0] - (a[0] + dx * u), p[1] - (a[1] + dy * u))

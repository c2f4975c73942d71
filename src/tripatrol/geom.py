"""Planar primitives: points, triangle edges, projections, angles.

The tolerance policy lives here.  Every structural claim of the paper is
an exact identity of the geometry (the altitude feet are collinear, B2C2
is parallel to BC, a sub-orthic 2-gap is twice the orthic perimeter),
which the tests check, the first two on an exact rational reference; so
each threshold below is numerical policy, named once and read by every
site that applies it.  Lengths compare against a multiple of the
triangle's diameter (`Triangle.tol()` is ``DEFAULT_REL_TOL * diameter``);
sines, angles and edge parameters are scale-free and compare against the
bare constant.  A threshold that is one algorithm's own parameter at one
site stays a literal there, outside this module: greedy's settle test, the
angle-sum check of `greedy_ratio`, the ratio grid's filter, the slack of
`verify_1gap_optimality` and the 3-periodic search's pruning margin.  This
module writes no small literal in place (tests/test_layout.py keeps it so).

Segments have one kernel: `edge_frame(s, f)` reads a segment once, and
`foot_on_edge` drops a perpendicular onto its line.  The altitude feet,
the unfolding's reflections and greedy's walk project through it; grid3's
`search._segments` repeats its float operations inline.

Every construction and both grid searches run on `local_frame(t)`, a copy
moved near the origin and scaled by a power of two to a diameter in
[1, 2), and map back only what they report: a point p becomes
`place(p, origin, scale)`, a length is multiplied by the scale, and edge
parameters and ratios stay as they are.  So each tolerance above, and the
search's margin of 1e-9 of that diameter, is relative to the triangle's
size alone, wherever it lies; `angles` and `Triangle`'s collinearity test
read the same scaled coordinates, where no product of two sides under- or
overflows.

A value of one triangle that is computed when first asked for is kept on
that triangle: `t.derived(fn)` is fn(t), kept in `t.memo`.  The frame and
the angles here, and orthic's relabeling, altitude feet and channel
numbers, are read through it, and no module keeps state of its own.

`Record` is the base of the package's immutable value types (Point,
Triangle, the schedules, reports and the unfolding): repr, ==, hash,
pickling and the assignment guard of a frozen dataclass, read from the
class's `__match_args__`, without importing `dataclasses`.
"""

from __future__ import annotations

import math
from enum import IntEnum

# Lengths, per unit of diameter: coincident points and visit times (per
# diameter squared: the collinearity test's cross product).
DEFAULT_REL_TOL = 1e-9

# Angular slack used when classifying a triangle as acute: a max angle
# within ACUTE_ANGLE_TOL of pi/2 counts as right, i.e. not acute.
ACUTE_ANGLE_TOL = 1e-9

# The closed forms accept angles up to pi/2 plus this: a right angle that rounds up.
RIGHT_ANGLE_SLACK = 1e-12

# An edge parameter this close to 0 or 1 is the vertex, on both of its
# edges; a channel stop this close to 0 or 1 snaps to the vertex.
VERTEX_SNAP = 1e-12


class DegenerateTriangle(ValueError):
    """Vertices are (numerically) collinear, or too far apart for the float range."""


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

class EdgeId(IntEnum):
    """Edge opposite the same-named vertex: A = BC, B = AC, C = AB."""

    A = 0
    B = 1
    C = 2


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
    # reads the diameter.  edges: the endpoints of each edge, indexed by
    # EdgeId, in the order fixed globally so that edge parameters are
    # comparable across operations: A: B->C, B: A->C, C: A->B.  memo:
    # derived(fn) for each fn called so far, the one home of every value
    # computed from the triangle and kept for later calls.
    __match_args__ = ("a", "b", "c")
    __slots__ = __match_args__ + ("side_lengths", "diameter", "edges", "memo")

    def __init__(self, a: Point, b: Point, c: Point):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_edges(self, ((b, c), (a, c), (a, b)))
        _set_memo(self, {})
        sides = (b.dist(c), a.dist(c), a.dist(b))
        d = max(sides)
        _set_side_lengths(self, sides)
        _set_diameter(self, d)
        if not math.isfinite(d * d):
            raise DegenerateTriangle(f"vertices {a}, {b}, {c} too large for the float range")
        # The cross product of the sides scaled by 2^-e, to a diameter in
        # [1, 2) as in local_frame: exact, and it cannot underflow.  Where
        # the vertices coincide (d = 0), both sides are 0 and so is dl.
        e = 1 - math.frexp(d)[1]
        ux, uy = math.ldexp(b.x - a.x, e), math.ldexp(b.y - a.y, e)
        wx, wy = math.ldexp(c.x - a.x, e), math.ldexp(c.y - a.y, e)
        dl = math.ldexp(d, e)
        if abs(ux * wy - uy * wx) <= DEFAULT_REL_TOL * dl * dl:
            raise DegenerateTriangle(f"collinear vertices {a}, {b}, {c}")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    def tol(self) -> float:
        """Absolute length tolerance for this triangle's scale: DEFAULT_REL_TOL * diameter."""
        return DEFAULT_REL_TOL * self.diameter

    def derived(self, fn):
        """fn(self), computed on the first call with this fn and kept in
        memo; a call that raises keeps nothing.  fn is a module-level
        function, named (tests/test_layout.py), so memo stays bounded."""
        memo = self.memo
        if fn not in memo:
            memo[fn] = fn(self)
        return memo[fn]


_set_a, _set_b, _set_c, _set_side_lengths, _set_diameter, _set_edges, _set_memo = slot_setters(Triangle)


_ORIGIN = Point(0.0, 0.0)


def local_frame(t: Triangle) -> tuple[Triangle, Point, float]:
    """(local, origin, scale): t with each vertex v moved to (v - origin) /
    scale, labels kept.  Computed on the first call and kept on t.

    scale = 2^e with t.diameter / 2^e in [1, 2), so local's diameter lies
    in [1, 2).  origin is the vertex with the smallest |x| + |y|, each
    coordinate rounded to the nearest multiple g of 2^(e+1) and kept only
    where it lies 3g or more from 0, else 0.  Every vertex then lies within
    1.5g of a kept coordinate, so the translation is exact (Sterbenz), as is
    the scaling: local is t itself up to where a coordinate underflows, and
    a triangle within a few diameters of the origin is only scaled.

    Where origin is (0, 0) and scale is 1, local is t itself.  Otherwise
    local is a new Triangle whose own frame is the identity.  The point
    (x, y) of local is the point place(x, y, origin, scale) of t."""
    return t.derived(_frame)


def _frame(t: Triangle) -> tuple[Triangle, Point, float]:
    """local_frame(t), computed."""
    e = math.frexp(t.diameter)[1] - 1
    g = math.ldexp(1.0, e + 1)
    near = min(t.vertices, key=lambda v: abs(v.x) + abs(v.y))
    ox, oy = [o if abs(o) >= 3.0 * g else 0.0 for o in (round(near.x / g) * g, round(near.y / g) * g)]
    origin, scale = Point(ox, oy), math.ldexp(1.0, e)
    if e == 0 and ox == 0.0 and oy == 0.0:
        return (t, origin, scale)
    local = Triangle(*[Point(math.ldexp(v.x - ox, -e), math.ldexp(v.y - oy, -e)) for v in t.vertices])
    local.memo[_frame] = (local, _ORIGIN, 1.0)
    return (local, origin, scale)


def place(x: float, y: float, origin: Point, scale: float) -> Point:
    """The point (x, y) of local_frame(t)'s triangle as a point of t: origin + scale * (x, y)."""
    return Point(origin.x + x * scale, origin.y + y * scale)


def angles(t: Triangle) -> tuple[float, float, float]:
    """Interior angles (A, B, C) in radians at vertices a, b, c, read on
    local_frame(t), where no product of two sides under- or overflows.
    Computed on the first call, on the frame's triangle, and kept there
    and on t.

    The angle at v between the sides u = p - v and w = q - v is
    atan2(|u x w|, u . w), on plain floats."""
    return t.derived(_frame_angles)


def _frame_angles(t: Triangle) -> tuple[float, float, float]:
    """angles(t), computed on local_frame(t)'s triangle."""
    local = local_frame(t)[0]
    return _angles(t) if local is t else angles(local)


def _angles(t: Triangle) -> tuple[float, float, float]:
    """angles(t) of a triangle that is its own frame."""
    ax, ay, bx, by, cx, cy = t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y
    ux, uy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    a = math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    ux, uy, wx, wy = cx - bx, cy - by, ax - bx, ay - by
    b = math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    ux, uy, wx, wy = ax - cx, ay - cy, bx - cx, by - cy
    return a, b, math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def is_acute(t: Triangle) -> bool:
    """Strictly acute; a right angle (within ACUTE_ANGLE_TOL) is rejected."""
    return max(angles(t)) < math.pi / 2 - ACUTE_ANGLE_TOL


def require_acute(t: Triangle) -> None:
    if not is_acute(t):
        raise NotAcute(f"max angle {max(angles(t)):.12f} rad is not acutely below pi/2")


def edge_point(t: Triangle, e: EdgeId, u: float) -> Point:
    """Point at normalized parameter u along edge e (u in [0,1] on the segment)."""
    s, f = t.edges[e]
    return Point(s.x + u * (f.x - s.x), s.y + u * (f.y - s.y))


def vertex_edges(e: EdgeId, u: float) -> tuple[EdgeId, ...]:
    """Edges visited by a point at parameter u on edge e (two if u is a vertex)."""
    if u <= VERTEX_SNAP:
        return _VERTEX_EDGES[(e, 0)]
    if u >= 1.0 - VERTEX_SNAP:
        return _VERTEX_EDGES[(e, 1)]
    return (e,)


Line = tuple[Point, Point]


def edge_frame(s: Point, f: Point) -> tuple[float, float, float, float, float, float, float]:
    """What foot_on_edge reads of the segment from s to f: its start (sx,
    sy), difference vector (dx, dy), squared length dd and unit direction
    (ux, uy).  Raises ValueError where s and f coincide."""
    dx, dy = f.x - s.x, f.y - s.y
    n = math.hypot(dx, dy)
    if not n:
        raise ValueError("line endpoints coincide")
    r = 1.0 / n
    return (s.x, s.y, dx, dy, dx * dx + dy * dy, dx * r, dy * r)


def foot_on_edge(
    x: float, y: float, sx: float, sy: float, dx: float, dy: float, dd: float, ux: float, uy: float
) -> tuple[float, float, float]:
    """The foot of (x, y) on the line of the edge whose edge_frame is (sx,
    sy, dx, dy, dd, ux, uy), and its edge parameter, clamped to [0, 1].
    The foot lies on the line, and the greedy walk's feet and the altitude
    feet of an acute triangle lie on the edge: their parameters leave
    [0, 1] by rounding alone, by a few eps * diameter / |edge|
    (tests/test_greedy.py and tests/test_orthic.py measure both)."""
    s = (x - sx) * ux + (y - sy) * uy
    x, y = sx + ux * s, sy + uy * s
    u = ((x - sx) * dx + (y - sy) * dy) / dd
    return x, y, (u if u < 1.0 else 1.0) if u > 0.0 else 0.0


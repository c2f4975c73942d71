import copy
import math
import pathlib
import pickle
import re

import pytest

from tripatrol.geom import (
    DegenerateTriangle,
    EdgeId,
    Point,
    Triangle,
    angles,
    edge_frame,
    edge_point,
    foot_on_edge,
    is_acute,
    local_frame,
)
from conftest import random_acute_triangle
from make_goldens import EQ, RI


def law_of_cosines_angles(t: Triangle) -> tuple[float, float, float]:
    """Independent recomputation of the angles from the side lengths."""
    al, be, ga = t.side_lengths
    a = math.acos((be * be + ga * ga - al * al) / (2 * be * ga))
    b = math.acos((al * al + ga * ga - be * be) / (2 * al * ga))
    c = math.acos((al * al + be * be - ga * ga) / (2 * al * be))
    return a, b, c


def test_angles_equilateral(equilateral):
    for ang in angles(equilateral):
        assert ang == pytest.approx(math.pi / 3, abs=1e-12)


def test_angles_right_isosceles():
    t = Triangle(Point(0.5, 0.5), Point(0.0, 0.0), Point(1.0, 0.0))
    a, b, c = angles(t)
    assert a == pytest.approx(math.pi / 2, abs=1e-12)
    assert b == pytest.approx(math.pi / 4, abs=1e-12)
    assert c == pytest.approx(math.pi / 4, abs=1e-12)
    assert not is_acute(t)


def test_angles_match_law_of_cosines(rng):
    for _ in range(200):
        t = random_acute_triangle(rng)
        got = angles(t)
        want = law_of_cosines_angles(t)
        assert sum(got) == pytest.approx(math.pi, rel=1e-12)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12 * math.pi)


def test_angles_rigid_motion_invariant(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        th = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0.1, 10.0)
        ct, st = math.cos(th), math.sin(th)
        moved = Triangle(
            *[Point(s * (ct * v.x - st * v.y) + 2, s * (st * v.x + ct * v.y) - 7) for v in t.vertices]
        )
        for g, w in zip(angles(t), angles(moved)):
            assert g == pytest.approx(w, abs=1e-12)


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_point_rejects_non_finite(x, y):
    with pytest.raises(ValueError, match="non-finite coordinates"):
        Point(x, y)


def test_point_is_immutable():
    p = Point(1.0, 2.0)
    for name in ("x", "y", "z"):
        with pytest.raises(AttributeError):
            setattr(p, name, 3.0)
    with pytest.raises(AttributeError):
        del p.x
    assert (p.x, p.y) == (1.0, 2.0)


def test_point_equality_hash_and_repr():
    p = Point(0.1, -2.5)
    assert repr(p) == "Point(x=0.1, y=-2.5)"
    assert repr(Point(-0.0, 1e-300)) == "Point(x=-0.0, y=1e-300)"
    assert p == Point(0.1, -2.5) and p != Point(0.1, 2.5)
    assert Point(0.0, 1.0) == Point(-0.0, 1.0)
    assert hash(p) == hash((0.1, -2.5))
    assert p != (0.1, -2.5)
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p


def test_triangle_lengths_are_fixed_at_construction():
    a, b, c = Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 4.0)
    t = Triangle(a, b, c)
    assert t.side_lengths == (5.0, 4.0, 3.0)
    assert (t.diameter, t.perimeter) == (5.0, 12.0)
    assert repr(t) == "Triangle(a=Point(x=0.0, y=0.0), b=Point(x=3.0, y=0.0), c=Point(x=0.0, y=4.0))"
    assert t == Triangle(a, b, c) and hash(t) == hash((a, b, c))
    with pytest.raises(AttributeError):
        t.diameter = 1.0
    assert pickle.loads(pickle.dumps(t)) == t


def demo_triangles() -> list[Triangle]:
    """The triangle each demo script builds, on its line `t = Triangle(...)`."""
    found = []
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py")):
        line = next(s for s in path.read_text(encoding="utf-8").splitlines() if s.startswith("t = Triangle("))
        found.append(Triangle(*(Point(float(x), float(y)) for x, y in re.findall(r"Point\(([^,]+), ([^)]+)\)", line))))
    return found


@pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**300, 1e-100])
@pytest.mark.parametrize("offset", [0.0, -7.5, 1e6, -1e9, 1e12])
def test_local_frame(rng, offset, scale):
    # origin on the lattice of 2 * scale, scale a power of two, local
    # diameter in [1, 2), and each vertex of local the same-named vertex of
    # t: exactly once the offset dwarfs the diameter, else to the rounding
    # of t's coordinates.
    for _ in range(20):
        t = random_acute_triangle(rng)
        t = Triangle(*(Point((v.x + offset) * scale, (v.y + offset) * scale) for v in t.vertices))
        local, origin, s = local_frame(t)
        assert math.frexp(s)[0] == 0.5
        assert 1.0 <= local.diameter < 2.0
        assert origin.x % (2.0 * s) == 0.0 and origin.y % (2.0 * s) == 0.0
        back = [Point(origin.x + s * w.x, origin.y + s * w.y) for w in local.vertices]
        if abs(offset) >= 1e6:
            assert back == list(t.vertices)
        for v, w in zip(t.vertices, back):
            assert v.dist(w) <= 2.0**-52 * (v.norm() + 4.0 * t.diameter)


@pytest.mark.parametrize(
    "t",
    [Triangle(*(Point(*map(float, v.split(","))) for v in spec[1:])) for spec in (EQ, RI)] + demo_triangles(),
    ids=["golden_equilateral", "golden_right_iso", *(f"demo_0{i}" for i in range(1, 6))],
)
def test_local_frame_is_the_identity_up_to_scaling_near_the_origin(t):
    # Their grid searches keep their bits: the frame only scales them by a
    # power of two.  The origin's zeros are +0.0.
    local, origin, s = local_frame(t)
    assert origin == Point(0.0, 0.0)
    assert math.copysign(1.0, origin.x) == math.copysign(1.0, origin.y) == 1.0
    assert local == Triangle(*(Point(v.x / s, v.y / s) for v in t.vertices))


def test_local_frame_is_kept_on_the_triangle_out_of_eq_hash_and_repr():
    t = Triangle(Point(1e9, 1e9), Point(1e9 + 3.0, 1e9), Point(1e9, 1e9 + 4.0))
    frame = local_frame(t)
    assert frame == (Triangle(Point(0.0, 0.0), Point(0.75, 0.0), Point(0.0, 1.0)), Point(1e9, 1e9), 4.0)
    assert local_frame(t) is frame
    assert t == Triangle(*t.vertices) and hash(t) == hash(t.vertices) and "frame" not in repr(t)
    for copied in (pickle.loads(pickle.dumps(t)), copy.copy(t)):
        assert local_frame(copied) == frame and local_frame(copied) is not frame


def test_local_frame_of_a_frame_is_itself():
    # A triangle already in its frame is its own local triangle, and so is
    # the local triangle of any other: the constructions map nothing back.
    t = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.45, 0.8))
    assert local_frame(t) == (t, Point(0.0, 0.0), 1.0) and local_frame(t)[0] is t
    moved = Triangle(*(Point(v.x + 1e6, v.y - 3.0) for v in t.vertices))
    local = local_frame(moved)[0]
    assert local is not moved and local_frame(local) == (local, Point(0.0, 0.0), 1.0)
    assert local_frame(local)[0] is local


@pytest.mark.parametrize("side", [1e-160, 1e-200, 1e-300, 2.0**-1000])
def test_tiny_triangles_are_not_collinear_and_keep_their_angles(side):
    # The collinearity test scales the sides to a diameter in [1, 2) and
    # the angles are read on the local frame, so neither underflows.
    t = Triangle(Point(0.0, 0.0), Point(side, 0.0), Point(0.5 * side, math.sqrt(3.0) / 2.0 * side))
    assert angles(t) == pytest.approx((math.pi / 3.0,) * 3, rel=1e-14)
    with pytest.raises(DegenerateTriangle, match="collinear"):
        Triangle(Point(0.0, 0.0), Point(side, 0.0), Point(2.0 * side, 0.0))


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point(0, 0), Point(1, 0), Point(2, 0))
    with pytest.raises(DegenerateTriangle):
        Triangle(Point(0, 0), Point(0, 0), Point(1, 1))


def foot(p: Point, t: Triangle, e: EdgeId) -> tuple[Point, float]:
    """The foot of p on the line of edge e, and its clamped edge parameter."""
    x, y, u = foot_on_edge(p.x, p.y, *edge_frame(*t.edges[e]))
    return Point(x, y), u


def test_projection_identity_and_symmetry(equilateral):
    # A point already on the edge line projects to itself.
    p = edge_point(equilateral, EdgeId.A, 0.37)
    assert foot(p, equilateral, EdgeId.A)[0].dist(p) < 1e-15
    # Vertex A of the equilateral projects onto the midpoint of BC.
    k = foot(equilateral.a, equilateral, EdgeId.A)[0]
    mid = edge_point(equilateral, EdgeId.A, 0.5)
    assert k.dist(mid) < 1e-15


def test_projection_orthogonality_residual(rng):
    for _ in range(200):
        t = random_acute_triangle(rng)
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = rng.choice(list(EdgeId))
        q = foot(p, t, e)[0]
        s, f = t.edges[e]
        d = f - s
        assert abs((q - p).dot(d)) / (d.norm() * max(1.0, (q - p).norm())) < 1e-12


def test_projection_minimality(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = rng.choice(list(EdgeId))
        q = foot(p, t, e)[0]
        for _ in range(20):
            r = edge_point(t, e, rng.uniform(-2, 3))
            assert p.dist(q) <= p.dist(r) + 1e-12


def test_projection_coincident_endpoints_error():
    with pytest.raises(ValueError, match="line endpoints coincide"):
        edge_frame(Point(3, 3), Point(3, 3))


def test_edge_frame_takes_a_unit_edge_far_from_the_origin():
    # Only coincident endpoints are refused: a unit edge whose ends lie
    # near (1e12, 1e12) has its exact difference vector.
    t = Triangle(Point(1e12, 1e12), Point(1e12, 1e12 + 1), Point(1e12 + 1, 1e12))
    assert edge_frame(*t.edges[EdgeId.C]) == (1e12, 1e12, 0.0, 1.0, 1.0, 0.0, 1.0)


def test_edge_param_conventions(equilateral):
    # Endpoint order: A: B->C, B: A->C, C: A->B.
    assert foot(equilateral.b, equilateral, EdgeId.A)[1] == pytest.approx(0.0, abs=1e-15)
    assert foot(equilateral.c, equilateral, EdgeId.A)[1] == pytest.approx(1.0, abs=1e-15)
    assert foot(equilateral.a, equilateral, EdgeId.B)[1] == pytest.approx(0.0, abs=1e-15)
    assert foot(equilateral.b, equilateral, EdgeId.C)[1] == pytest.approx(1.0, abs=1e-15)
    mid = edge_point(equilateral, EdgeId.B, 0.5)
    assert foot(mid, equilateral, EdgeId.B)[1] == pytest.approx(0.5, abs=1e-15)


def test_edge_param_round_trip(rng):
    # A point of the edge's line is its own foot; its parameter is clamped
    # to the edge.
    for _ in range(200):
        t = random_acute_triangle(rng)
        e = rng.choice(list(EdgeId))
        u = rng.uniform(-0.5, 1.5)
        p = edge_point(t, e, u)
        q, u2 = foot(p, t, e)
        assert q.dist(p) <= 1e-12 * t.diameter
        assert u2 == pytest.approx(min(max(u, 0.0), 1.0), abs=1e-12)
        assert 0.0 <= u2 <= 1.0



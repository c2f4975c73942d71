"""The primitives of tripatrol.geom, and the mirror images of
tripatrol.search, against the Point-based reference: the same floats bit
for bit, and the same exception type and message, on random input at large
offsets and extreme scales and on the degenerate cases each primitive
checks."""

import math
import random

from hypothesis import assume, given, settings, strategies as st

import reference_exact as rx
import reference_geom as ref
from tripatrol.geom import (
    DegenerateTriangle,
    EdgeId,
    Point,
    Triangle,
    angles,
    edge_frame,
    foot_on_edge,
    line_intersection,
    local_frame,
    signed_offset,
)
from tripatrol.search import _segments
from conftest import SPECIAL_TRIANGLES, random_acute_triangle

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def outcome(fn, *args):
    """repr of the value (exact for floats), or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


@st.composite
def frames(draw):
    """(offset, scale): a scale of 2^-300 to 2^300, and an offset of up to
    1e12 times the scale in each coordinate."""
    scale = math.ldexp(1.0, draw(st.integers(-300, 300)))
    offset = draw(st.sampled_from([0.0, 1.0, 1e6, 1e12])) * draw(st.floats(-1.0, 1.0)) * scale
    return offset, scale


def points(n: int):
    """n random points around one random offset at one random scale; a
    point may repeat an earlier one, giving coincident or parallel lines."""

    @st.composite
    def build(draw):
        offset, scale = draw(frames())
        pts = []
        for _ in range(n):
            if pts and draw(st.integers(0, 5)) == 0:
                pts.append(draw(st.sampled_from(pts)))
                continue
            x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            pts.append(Point(offset + x * scale, offset + y * scale))
        return pts

    return build()


@SETTINGS
@given(pts=points(3))
def test_reflections_match_reference(pts):
    p, a, b = pts
    # _segments reflects B across AC and C across AB of the local frame on
    # floats: R_AC(B) is the start of its fourth segment, R_AB(C) - B the
    # difference of its fifth.
    try:
        t = local_frame(Triangle(a, b, p))[0]
    except DegenerateTriangle:
        return
    *_, (rx, ry, _, _), (_, _, qdx, qdy) = _segments(t)
    r, q = ref.reflect_point(t.b, (t.a, t.c)), ref.reflect_point(t.c, (t.a, t.b))
    assert (rx, ry) == r.as_tuple()
    assert (qdx, qdy) == (q.x - t.b.x, q.y - t.b.y)


def test_angles_match_reference(rng):
    # angles computes the sides' cross and dot products on plain floats;
    # the reference builds a Point for each side.  A moved triangle is
    # rounded by the move, so each case is compared with itself.
    cases = list(SPECIAL_TRIANGLES)
    for _ in range(100):
        t = random_acute_triangle(rng)
        cases.append(t)
        for offset in (1e6, 1e12, 1e15):
            try:
                cases.append(Triangle(*[Point(v.x + offset, v.y + offset) for v in t.vertices]))
            except DegenerateTriangle:
                pass
        for scale in (2.0**-300, 2.0**300):
            cases.append(Triangle(*[Point(v.x * scale, v.y * scale) for v in t.vertices]))
    assert len(cases) > 590
    for t in cases:
        assert angles(t) == ref.angles(t)


@SETTINGS
@given(pts=points(4), shift=st.sampled_from([None, 0.0, 1e-300, 1.0]))
def test_line_intersection_matches_reference(pts, shift):
    p, q, r, s = pts
    if shift is not None:
        # r-s parallel to p-q, moved by shift along y.
        r = Point(r.x, r.y + shift)
        s = Point(r.x + (q.x - p.x), r.y + (q.y - p.y))
    assert outcome(line_intersection, (p, q), (r, s)) == outcome(ref.line_intersection, (p, q), (r, s))


@SETTINGS
@given(xs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), k=st.integers(505, 512))
def test_line_intersection_raises_like_reference_where_products_overflow(xs, k):
    """At 2^505 to 2^512 the cross products can overflow while every
    coordinate is finite; the result must not carry inf or nan on."""
    p, q, r, s = (Point(math.ldexp(xs[i], k), math.ldexp(xs[i + 1], k)) for i in range(0, 8, 2))
    want = outcome(lambda: ref.line_intersection((p, q), (r, s)).as_tuple())
    assert outcome(lambda: line_intersection((p, q), (r, s)).as_tuple()) == want


def reference_foot(t: Triangle, e: EdgeId, p: Point) -> tuple[float, float, float]:
    """The foot of p on edge e's line and its edge parameter clamped to
    [0, 1], from the Point-based reference."""
    f = ref.project_onto_line(p, t.edges[e])
    u = ref.edge_coordinates(t, e, f)[0]
    return f.x, f.y, min(1.0, max(0.0, u))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    frame=frames(),
    e=st.sampled_from(list(EdgeId)),
    u=st.floats(-0.5, 1.5),
    off=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 1.0]),
)
def test_foot_on_edge_matches_reference(seed, frame, e, u, off):
    """Points on, near and off an edge of a moved and scaled triangle: the
    foot and its clamped parameter, or the error of a line whose ends
    coincide at the offset's scale."""
    offset, scale = frame
    t = random_acute_triangle(random.Random(seed))
    t = Triangle(*(Point(offset + v.x * scale, offset + v.y * scale) for v in t.vertices))
    s, f = t.edges[e]
    n = t.diameter * off
    p = Point(s.x + u * (f.x - s.x) - n * (f.y - s.y), s.y + u * (f.y - s.y) + n * (f.x - s.x))
    got = outcome(lambda: foot_on_edge(p.x, p.y, *edge_frame(t, e)))
    assert got == outcome(reference_foot, t, e, p)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.one_of(
        st.integers(-300, 300).map(lambda k: math.ldexp(1.0, k)),
        st.integers(-100, 100).map(lambda k: 10.0**k),
    ),
    angle=st.floats(0.0, 2.0 * math.pi),
    shift=st.floats(-1.5, 1.5),
)
def test_channel_check_matches_edge_hit_count(seed, scale, angle, shift):
    """A line through a random acute triangle, or near it, at scales 2^+-300
    and 1e+-100: the exact reference's vertex-offset test, which carries
    the channel's claim, says it meets two edges exactly when the
    segment-line test counts at least two hits."""
    t = random_acute_triangle(random.Random(seed))
    t = Triangle(*(Point(v.x * scale, v.y * scale) for v in t.vertices))
    d = Point(math.cos(angle), math.sin(angle))
    centroid = Point(sum(v.x for v in t.vertices) / 3.0, sum(v.y for v in t.vertices) / 3.0)
    anchor = centroid + Point(-d.y, d.x) * (shift * t.diameter)
    assume(all(abs(signed_offset(v, anchor, d)) > 1e-6 * t.diameter for v in t.vertices))
    tol = t.tol()
    old = ref.count_edge_hits((anchor, anchor + d * t.diameter), t, tol) >= 2
    offsets = [rx.cross(rx.exact(d), rx.sub(rx.exact(v), rx.exact(anchor))) for v in t.vertices]
    assert rx.straddles(offsets, 0, 0) == old

"""The primitives of tripatrol.geom, and the mirror images of
tripatrol.search, against the Point-based reference: the same floats bit
for bit, and the same exception type and message, on random input at large
offsets and extreme scales and on the degenerate cases each primitive
checks."""

import math
import random

from hypothesis import assume, example, given, settings, strategies as st

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
    local_frame,
)
from tripatrol.search import _segments
from conftest import SPECIAL_TRIANGLES, near_right_triangles, random_acute_triangle, thin_triangles

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


def with_hard_triangles(test):
    """test with one explicit example (c, a, b) per thin and near-right
    triangle: hypothesis draws neither, and the kernel's rounding is
    hardest there."""
    hard = thin_triangles(random.Random(2), 200) + [t for _, t in near_right_triangles(random.Random(3), 100)]
    for t in hard:
        test = example(pts=[t.c, t.a, t.b])(test)
    return test


@with_hard_triangles
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
@example(seed=1, frame=(1e12, 1.0), e=EdgeId.A, u=0.25, off=1e-3)
def test_foot_on_edge_matches_reference(seed, frame, e, u, off):
    """Points on, near and off an edge of a moved and scaled triangle: the
    foot and its clamped parameter, bit for bit.  Where the reference's
    |p|-relative test calls an edge far from the origin a point, the kernel,
    which refuses coincident ends alone, gives the exact foot and parameter
    within a few ulps of the coordinates."""
    offset, scale = frame
    t = random_acute_triangle(random.Random(seed))
    t = Triangle(*(Point(offset + v.x * scale, offset + v.y * scale) for v in t.vertices))
    s, f = t.edges[e]
    n = t.diameter * off
    p = Point(s.x + u * (f.x - s.x) - n * (f.y - s.y), s.y + u * (f.y - s.y) + n * (f.x - s.x))
    want = outcome(reference_foot, t, e, p)
    if want != (ValueError, "line endpoints coincide"):
        assert outcome(lambda: foot_on_edge(p.x, p.y, *edge_frame(s, f))) == want
        return
    x, y, u = foot_on_edge(p.x, p.y, *edge_frame(s, f))
    ps, pf, pp = rx.exact(s), rx.exact(f), rx.exact(p)
    d = rx.sub(pf, ps)
    ex, ey = rx.foot(pp, ps, pf)
    eu = min(1, max(0, rx.dot(rx.sub(pp, ps), d) / rx.dot(d, d)))
    ulp = math.ulp(max(abs(c) for c in (s.x, s.y, f.x, f.y, p.x, p.y)))
    assert abs(x - ex) <= 4 * ulp and abs(y - ey) <= 4 * ulp
    assert abs(u - eu) * s.dist(f) <= 4 * ulp


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
    assume(all(abs(d.cross(v - anchor)) > 1e-6 * t.diameter for v in t.vertices))
    tol = t.tol()
    old = ref.count_edge_hits((anchor, anchor + d * t.diameter), t, tol) >= 2
    offsets = [rx.cross(rx.exact(d), rx.sub(rx.exact(v), rx.exact(anchor))) for v in t.vertices]
    assert rx.straddles(offsets, 0, 0) == old

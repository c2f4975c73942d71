"""Reference primitives: the Point-based projection, reflection, edge
coordinates and angles, with a Point built at every step.

tripatrol.geom must return exactly the same floats, and raise the same
exceptions with the same messages, as these: geom.foot_on_edge gives the
foot of project_onto_line and the parameter of edge_coordinates, clamped
to [0, 1], and the mirror images of tripatrol.search._segments must equal
reflect_point's.  They are slow and kept only for the tests to compare
against.  edge_coordinates also gives a point's distance from the edge's
line, which the tests of the orthic feet bound.

count_edge_hits is the unfolding's former channel check, a segment-line
test per edge; the vertex-offset test of reference_exact.straddles must
agree with "at least two hits" wherever no vertex lies near the line.
"""

import math

from tripatrol.geom import EdgeId, Point, Triangle, local_frame

Line = tuple[Point, Point]


def edge_coordinates(t: Triangle, e: EdgeId, p: Point) -> tuple[float, float]:
    """(u, resid): the edge parameter of p along edge e, unclamped, and
    the distance of p from the edge's line."""
    s, f = t.edges[e]
    d = f - s
    dd = d.dot(d)
    return (p - s).dot(d) / dd, abs(d.cross(p - s)) / math.sqrt(dd)


def line_dir(line: Line) -> Point:
    p, q = line
    d = q - p
    n = d.norm()
    if n <= 1e-12 * max(p.norm(), q.norm()):
        raise ValueError("line endpoints coincide")
    return d * (1.0 / n)


def project_onto_line(p: Point, line: Line) -> Point:
    a, _ = line
    d = line_dir(line)
    return a + d * (p - a).dot(d)


def reflect_point(p: Point, line: Line) -> Point:
    f = project_onto_line(p, line)
    return Point(2.0 * f.x - p.x, 2.0 * f.y - p.y)


def _angle_at(v: Point, p: Point, q: Point) -> float:
    u, w = p - v, q - v
    return math.atan2(abs(u.cross(w)), u.dot(w))


def angles(t: Triangle) -> tuple[float, float, float]:
    t = local_frame(t)[0]
    return (_angle_at(t.a, t.b, t.c), _angle_at(t.b, t.c, t.a), _angle_at(t.c, t.a, t.b))


def count_edge_hits(line: Line, tri: Triangle, tol: float) -> int:
    """Edges of tri whose closed segment (with tolerance slack) meets the line."""
    anchor, other = line
    d = other - anchor
    hits = 0
    for e in EdgeId:
        s, f = tri.edges[e]
        seg = f - s
        den = d.cross(seg)
        if abs(den) <= 1e-14 * d.norm() * seg.norm():
            # Parallel: counts only if collinear with the edge line.
            if abs(d.cross(s - anchor)) <= tol * d.norm():
                hits += 1
            continue
        v = (s - anchor).cross(d) / den  # parameter along the edge
        pad = tol / seg.norm()
        if -pad <= v <= 1.0 + pad:
            hits += 1
    return hits

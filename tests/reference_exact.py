"""Exact rational reference for the orthic triangle, the unfolding, the
channel, greedy's walk and the gap timeline.

Every construction before a length is rational in the vertex coordinates:
a projection onto, or a reflection across, the line through two rational
points.  A float is a dyadic rational, so `fractions.Fraction` rebuilds
the altitude feet, the five reflected copies and the orthic line of a
float triangle with no rounding at all, and the paper's identities hold
with zero residual (Yap, "Towards exact geometric computation", CGTA
1997).  Lengths are square roots; they are taken in `decimal` at 50
digits, well inside the 1e-40 the tests ask of them.

The unfolding follows the paper's steps as written, apart from
tripatrol.orthic's tables: C1 is C reflected about AB, B1 is B about AC1,
A1 is A about B1C1, C2 is C1 about A1B1, B2 is B1 about A1C2.  Offsets
from the orthic line are cross products with the unnormalised
w = k2 - k, signed positive on A's side: |w| times the signed distance,
so every sign and every ordering of the distances is kept.

The channel's cross-section RT on BC is rational too: R and T are where
the parallels to the orthic line through A1 and A meet BC.  v_k, the
distance from R to RT's k-th image R_kT_k = RT + k w, is the square root
of a rational squared distance.

A channel line is rational at a rational lambda (every float is one): the
parallel to w through k, moved by lambda times the offset of A (lambda >=
0) or of A1 (lambda < 0).  Where it crosses BC and each mirror, the copy's
edge there is the base edge's image, so the parameter read along that
copy's edge is the stop's parameter on the base, with no folding.

Greedy's walk is rational as well: each stop is the foot of the last one
on the next edge's line, so its parameter is an affine function of the
last one's, and so is the map from a start on BC to the next stop there,
whose fixed point starts the limit cycle.  A t-gap is a sum of legs,
each the square root of a rational squared distance between two points
at float parameters; the legs and the visit times are taken in decimal
at DIGITS.

It is slow and kept only for the tests to compare against.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import cycle, islice
from typing import NamedTuple

from tripatrol.geom import EdgeId, Point, Triangle, local_frame
from tripatrol.schedule import SchedulePoint

XY = tuple[Fraction, Fraction]

# The unfolding's feet, by the names tripatrol.orthic.Unfolding gives them;
# its reflected vertices are the vertices of its copies.
POINTS = ("k", "m", "l1", "k1", "m1", "l2", "k2")

DIGITS = 50


def exact(p: Point) -> XY:
    return (Fraction(p.x), Fraction(p.y))


def sub(p: XY, q: XY) -> XY:
    return (p[0] - q[0], p[1] - q[1])


def cross(u: XY, v: XY) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: XY, v: XY) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def foot(p: XY, a: XY, b: XY) -> XY:
    """Foot of the perpendicular from p onto the line through a and b."""
    d = sub(b, a)
    s = dot(sub(p, a), d) / dot(d, d)
    return (a[0] + s * d[0], a[1] + s * d[1])


def reflect(p: XY, a: XY, b: XY) -> XY:
    """Mirror image of p across the line through a and b: 2 * foot - p."""
    f = foot(p, a, b)
    return (2 * f[0] - p[0], 2 * f[1] - p[1])


def side2(t: tuple[XY, XY, XY]) -> tuple[Fraction, Fraction, Fraction]:
    """Squared side lengths (alpha^2, beta^2, gamma^2): BC, AC, AB."""
    a, b, c = t
    return (dot(sub(c, b), sub(c, b)), dot(sub(c, a), sub(c, a)), dot(sub(b, a), sub(b, a)))


def relabel(t: Triangle) -> tuple[int, int, int]:
    """The vertex order with opposite side lengths non-increasing, ties by
    index, on the exact lengths: so with the angles non-increasing, the
    rule of orthic._relabel."""
    sides = side2(tuple(exact(v) for v in t.vertices))
    return tuple(sorted(range(3), key=lambda i: (-sides[i], i)))


class Orthic(NamedTuple):
    """The altitude feet K, L, M of a triangle in its own labels, and
    x0 = (beta^2 + gamma^2 - alpha^2) / (2 beta^2)."""

    k_foot: XY
    l_foot: XY
    m_foot: XY
    x0: Fraction


def orthic(t: Triangle) -> Orthic:
    a, b, c = verts = tuple(exact(v) for v in t.vertices)
    alpha2, beta2, gamma2 = side2(verts)
    return Orthic(foot(a, b, c), foot(b, a, c), foot(c, a, b), (beta2 + gamma2 - alpha2) / (2 * beta2))


def sqrt(x: Fraction) -> Decimal:
    return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def perimeters(t: Triangle) -> tuple[Decimal, Decimal]:
    """The orthic perimeter as |KL| + |LM| + |MK| from the exact feet, and
    its closed form 2p / (1/(sinB sinC) + 1/(sinA sinC) + 1/(sinA sinB)),
    each sine 2 * area over the product of its two sides, in decimal."""
    verts = tuple(exact(v) for v in t.vertices)
    k, l, m, _ = orthic(t)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        per = sum(sqrt(dot(sub(p, q), sub(p, q))) for p, q in ((k, l), (l, m), (m, k)))
        sa, sb, sc = (sqrt(s) for s in side2(verts))
        area2 = abs(cross(sub(verts[1], verts[0]), sub(verts[2], verts[0])))
        twice_area = Decimal(area2.numerator) / Decimal(area2.denominator)
        sin_a, sin_b, sin_c = twice_area / (sb * sc), twice_area / (sa * sc), twice_area / (sa * sb)
        closed = 2 * (sa + sb + sc) / (1 / (sin_b * sin_c) + 1 / (sin_a * sin_c) + 1 / (sin_a * sin_b))
        return +per, +closed


class Unfolding(NamedTuple):
    """The exact unfolding of the triangle (a, b, c), labels as given."""

    a1: XY
    b1: XY
    b2: XY
    c1: XY
    c2: XY
    k: XY
    m: XY
    l1: XY
    k1: XY
    m1: XY
    l2: XY
    k2: XY
    copies: tuple[tuple[XY, XY, XY], ...]  # the base, then each reflected copy
    normal: XY  # w = k2 - k turned a quarter, toward A's side
    offsets: tuple[tuple[Fraction, Fraction, Fraction], ...]  # of each copy's vertices

    def offset(self, p: XY) -> Fraction:
        """|w| times the signed distance of p from the orthic line, positive on A's side."""
        return dot(self.normal, sub(p, self.k))


def unfolding(a: Point, b: Point, c: Point) -> Unfolding:
    a, b, c = exact(a), exact(b), exact(c)
    c1 = reflect(c, a, b)
    b1 = reflect(b, a, c1)
    a1 = reflect(a, b1, c1)
    c2 = reflect(c1, a1, b1)
    b2 = reflect(b1, a1, c2)
    k, k2 = foot(a, b, c), foot(a1, b2, c2)
    normal = (k[1] - k2[1], k2[0] - k[0])
    if dot(normal, sub(a, k)) < 0:
        normal = (-normal[0], -normal[1])
    copies = ((a, b, c), (a, b, c1), (a, b1, c1), (a1, b1, c1), (a1, b1, c2), (a1, b2, c2))
    return Unfolding(
        a1=a1,
        b1=b1,
        b2=b2,
        c1=c1,
        c2=c2,
        k=k,
        m=foot(c, a, b),
        l1=foot(b, a, c1),
        k1=foot(a, b1, c1),
        m1=foot(c1, a1, b1),
        l2=foot(b1, a1, c2),
        k2=k2,
        copies=copies,
        normal=normal,
        offsets=tuple(tuple(dot(normal, sub(v, k)) for v in copy) for copy in copies),
    )


def half_width(u: Unfolding) -> Decimal:
    """The distance of A, and of A1, from the orthic line: |offset(A)| / |w|."""
    off = abs(u.offset(u.copies[0][0]))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(off.numerator) / Decimal(off.denominator) / sqrt(dot(u.normal, u.normal))


def meet(p: XY, d: XY, a: XY, b: XY) -> XY:
    """Where the line through p with direction d meets the line through a and b."""
    e = sub(b, a)
    s = cross(sub(a, p), e) / cross(d, e)
    return (p[0] + s * d[0], p[1] + s * d[1])


def cross_section(u: Unfolding) -> tuple[XY, XY]:
    """R and T: where the parallels to the orthic line through A1 and A meet BC."""
    a, b, c = u.copies[0]
    w = sub(u.k2, u.k)
    return meet(u.a1, w, b, c), meet(a, w, b, c)


def lower_bound_rows(u: Unfolding, k_max: int) -> list[tuple[int, Decimal, Decimal]]:
    """Rows (k, v_k / k, bound_k) of tripatrol.orthic.lower_bound_profile,
    in decimal: v_k = dist(R, R_kT_k), R_kT_k = RT + k w, and
    bound_k = 2 |w . (T - R)| / (|w| k)."""
    r, t = cross_section(u)
    w, e = sub(u.k2, u.k), sub(t, r)
    we, ee = dot(w, e), dot(e, e)
    rows = []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        skew = 2 * abs(we)
        skew = Decimal(skew.numerator) / Decimal(skew.denominator) / sqrt(dot(w, w))
        for k in range(1, k_max + 1):
            # R_k - R = k w, and R_kT_k runs from R_k along e = T - R: R's
            # projection onto it lies at s = -k (w . e) / (e . e), clamped.
            s = min(1, max(0, -k * we / ee))
            q = (k * w[0] + s * e[0], k * w[1] + s * e[1])
            rows.append((k, sqrt(dot(q, q)) / k, skew / k))
    return rows


def straddles(offsets: tuple[Fraction, ...], bottom: Fraction, top: Fraction) -> bool:
    """Every parallel at an offset from bottom to top meets two edges of
    the triangle whose vertices have these offsets: they do not all lie
    strictly on one side of it."""
    return max(offsets) >= top and min(offsets) <= bottom


def _crossed(u: Unfolding) -> tuple[tuple[EdgeId, XY, XY], ...]:
    """The edges a channel line crosses in a period, after BC: each mirror,
    as (base edge, start, end) of that copy's edge."""
    a, b, c = u.copies[0]
    return (
        (EdgeId.A, b, c), (EdgeId.C, a, b), (EdgeId.B, a, u.c1),
        (EdgeId.A, u.b1, u.c1), (EdgeId.C, u.a1, u.b1), (EdgeId.B, u.a1, u.c2),
    )


def _channel_point(u: Unfolding, lam: Fraction) -> XY:
    """The point of the channel line at lam on the normal through k."""
    s = lam * (u.offset(u.copies[0][0]) if lam >= 0 else -u.offset(u.a1)) / dot(u.normal, u.normal)
    return (u.k[0] + s * u.normal[0], u.k[1] + s * u.normal[1])


def channel_stops(u: Unfolding, lam: Fraction) -> list[tuple[EdgeId, Fraction]]:
    """(edge, parameter) of each stop of the channel line at lam, in the
    unfolding's labels and its edges' orientation: where the line crosses
    BC, then each mirror, read along that copy's edge."""
    w, p = sub(u.k2, u.k), _channel_point(u, lam)
    return [(e, cross(sub(p, q), w) / cross(sub(r, q), w)) for e, q, r in _crossed(u)]


def channel_crossings(u: Unfolding, lam: Fraction) -> list[XY]:
    """Where the channel line at lam crosses BC, each mirror and B2C2: a
    period of its schedule, unfolded onto one parallel to w."""
    w, p = sub(u.k2, u.k), _channel_point(u, lam)
    return [meet(p, w, q, r) for _, q, r in _crossed(u)] + [meet(p, w, u.b2, u.c2)]


# Greedy's edges after BC, in the paper's orders: BC -> AB -> AC clockwise.
CYCLES = {"cw": (EdgeId.C, EdgeId.B, EdgeId.A), "ccw": (EdgeId.B, EdgeId.C, EdgeId.A)}


def walk(t: Triangle, start_u: Fraction, steps: int, direction: str) -> list[tuple[EdgeId, Fraction]]:
    """(edge, parameter) of the first `steps` stops of greedy's walk from
    start_u on BC of t.  Each stop is the exact foot of the last one on the
    next edge's line, read as its parameter there: the foot of s + u (f - s)
    on the line through s2 and f2 lies at ((s - s2) . d + u (f - s) . d) /
    (d . d), d = f2 - s2.  Each parameter is clamped to [0, 1] as
    tripatrol.greedy.greedy_run reports it; the walk goes on from the foot."""
    edges = [tuple(exact(v) for v in edge) for edge in t.edges]
    hops = {}  # edge -> (u on it, as an affine function of u on the edge before)
    for last, e in zip((EdgeId.A,) + CYCLES[direction], CYCLES[direction]):
        (s, f), (s2, f2) = edges[last], edges[e]
        d = sub(f2, s2)
        hops[e] = (dot(sub(s, s2), d) / dot(d, d), dot(sub(f, s), d) / dot(d, d))
    u, stops = Fraction(start_u), []
    for e in islice(cycle(CYCLES[direction]), steps):
        u = hops[e][0] + hops[e][1] * u
        stops.append((e, min(Fraction(1), max(Fraction(0), u))))
    return stops


def fixed_point(t: Triangle, direction: str) -> Fraction:
    """The fixed point u* of f, the map from greedy's start on BC to its
    next stop there.  f is affine in exact arithmetic, so
    u* = f(0) / (1 - (f(1) - f(0))).  The limit cycle's other two stops are
    walk(t, u*, 2, direction)."""
    f0, f1 = (walk(t, u, 3, direction)[-1][1] for u in (0, 1))
    return f0 / (1 - (f1 - f0))


@functools.cache
def legs(points: tuple[SchedulePoint, ...], triangle: Triangle) -> tuple[Decimal, ...]:
    """The length of each leg of the closed walk through points, point i to
    point i + 1, as tripatrol.schedule takes it: each position s + u (f - s)
    from the float u on local_frame(triangle)'s triangle, exactly, and the
    leg a square root in decimal at DIGITS, times the frame's scale."""
    local, _, scale = local_frame(triangle)
    positions = []
    for p in points:
        s, f = (exact(v) for v in local.edges[p.edge])
        u = Fraction(p.u)
        positions.append((s[0] + u * (f[0] - s[0]), s[1] + u * (f[1] - s[1])))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return tuple(sqrt(dot(d, d)) * Decimal(scale) for d in map(sub, positions[1:] + positions[:1], positions))


def visit_times(
    points: Sequence[SchedulePoint], triangle: Triangle, horizon: int
) -> tuple[list[Decimal], list[Decimal], list[Decimal]]:
    """Visit instants of edges A, B and C over `horizon` points of the walk
    repeating `points`, on the legs above, as tripatrol.schedule.gap_report
    takes them: a visit within triangle.tol() of the edge's last one is
    not counted."""
    times: tuple[list[Decimal], list[Decimal], list[Decimal]] = ([], [], [])
    with localcontext() as ctx:
        ctx.prec = DIGITS
        tol, now = Decimal(triangle.tol()), Decimal(0)
        for p, leg in islice(cycle(zip(points, legs(tuple(points), triangle))), horizon):
            for e in p.visited_edges:
                if not times[e] or now - times[e][-1] > tol:
                    times[e].append(now)
            now += leg
    return times

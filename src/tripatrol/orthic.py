"""Orthic triangle, the five-reflection unfolding with its orthic channel,
the 6-periodic schedules of the channel lines folded back in, and the
unfolding lower-bound sequence v_k that certifies their optimality.

`Unfolding` is the one object for the unfolding: the reflected copies, the
altitude-foot images on the orthic line and the channel between the
parallels through A and A1.  It works on a relabeled copy of the input
whose side lengths satisfy alpha >= beta >= gamma; results are mapped back
to the caller's vertex labels before they are returned.

One rule builds it: each of the five steps reflects one vertex of the
current copy across the line through the other two (`_REFLECTED`), and
the foot of that reflection is the copy's altitude foot on the orthic
line.

Every construction here runs on geom.local_frame(t): the triangle moved
near the origin and scaled by a power of two to a diameter in [1, 2).
What it reports is mapped back: points are placed at origin + scale * p,
lengths multiplied by the scale, and edge parameters and ratios kept.

`reflection_chain(t)` builds the one unfolding of t: computed on t's
local triangle, then assembled in t's coordinates, with t's own vertices
as its base.  `_chain` keeps the last one built, one entry keyed on the
caller's Triangle object: a sweep over lambda, the v_k bounds and the CLI
on one triangle build it once.

Its exact identities (collinear feet, B2C2 parallel to BC, a channel
that meets two edges of every copy) are tested, not checked here.

Beside the unfolding, the entry keeps the local data its two readers
compute on, once per triangle.  For `sub_orthic_schedule`, the channel
family in closed form: a channel line is parallel to the orthic sides, so
each of its six stops, folded back onto the base, moves linearly in lambda
from an orthic foot, with a slope d / side^2, d = (B - A) . (C - A), on
the relabeled base.  For `lower_bound_profile`, the channel's
cross-section RT on BC and v = k2 - k.  Every projection of the build,
the five reflections and the feet k and k2, goes through geom's one
segment kernel, `edge_frame` and `foot_on_edge`.
"""

from __future__ import annotations

import math

from .geom import (
    RIGHT_ANGLE_SLACK,
    VERTEX_SNAP,
    EdgeId,
    Line,
    Point,
    Record,
    Triangle,
    angles,
    edge_frame,
    foot_on_edge,
    local_frame,
    place,
    require_acute,
    slot_setters,
)
from .schedule import Schedule, SchedulePoint, gap_report


class OutsideChannel(ValueError):
    """Channel parameter lambda outside [-1, 1]."""


class OrthicData(Record):
    """The altitude feet K (from A on BC), L (from B on AC) and M (from C
    on AB), the orthic perimeter, and x0 with L = x0*C + (1-x0)*A, the
    convex-combination optimizer."""

    __slots__ = __match_args__ = ("k_foot", "l_foot", "m_foot", "perimeter", "x0")

    def __init__(self, k_foot: Point, l_foot: Point, m_foot: Point, perimeter: float, x0: float):
        for store, value in zip(_SET_ORTHIC_DATA, (k_foot, l_foot, m_foot, perimeter, x0)):
            store(self, value)


_SET_ORTHIC_DATA = slot_setters(OrthicData)


def orthic_perimeter(t: Triangle) -> float:
    """Closed-form orthic perimeter 2p / (1/(sinB sinC) + 1/(sinA sinC) + 1/(sinA sinB)).

    Accepts right triangles as a boundary evaluation of the formula.
    """
    a_ang, b_ang, c_ang = angles(t)
    if max(a_ang, b_ang, c_ang) > math.pi / 2 + RIGHT_ANGLE_SLACK:
        raise ValueError("angles must lie in (0, pi/2] for the perimeter formula")
    sa, sb, sc = math.sin(a_ang), math.sin(b_ang), math.sin(c_ang)
    inv = 1.0 / (sb * sc) + 1.0 / (sa * sc) + 1.0 / (sa * sb)
    return 2.0 * t.perimeter / inv


def _feet(t: Triangle) -> list[tuple[float, float, float]]:
    """The altitude feet K, L, M of acute t on edges A, B and C, each as
    (x, y, u): the foot and its edge parameter, clamped to [0, 1]."""
    require_acute(t)
    return [foot_on_edge(v.x, v.y, *edge_frame(*t.edges[e])) for v, e in zip(t.vertices, EdgeId)]


def orthic_triangle(t: Triangle) -> OrthicData:
    """Altitude feet K, L, M and the orthic perimeter of an acute triangle,
    computed on local_frame(t) and placed back."""
    local, origin, scale = local_frame(t)
    k, l, m = [Point(x, y) for x, y, _ in _feet(local)]
    a_ang, b_ang, c_ang = angles(local)
    x0 = math.cos(a_ang) * math.sin(c_ang) / math.sin(b_ang)
    per = (k.dist(l) + l.dist(m) + m.dist(k)) * scale
    if local is not t:
        k, l, m = [place(p.x, p.y, origin, scale) for p in (k, l, m)]
    return OrthicData(k_foot=k, l_foot=l, m_foot=m, perimeter=per, x0=x0)


def orthic_schedule(t: Triangle) -> Schedule:
    """The 3-periodic cyclic schedule along the orthic triangle K -> M -> L."""
    (_, _, uk), (_, _, ul), (_, _, um) = _feet(local_frame(t)[0])
    return Schedule(
        t, (SchedulePoint(EdgeId.A, uk), SchedulePoint(EdgeId.C, um), SchedulePoint(EdgeId.B, ul))
    )


class Unfolding(Record):
    """Five successive reflections of a triangle with alpha >= beta >= gamma
    and the orthic channel they straighten out, in the coordinates of the
    triangle unfolded.

    C1 is C reflected about AB, B1 is B about A-C1, A1 is A about B1-C1,
    C2 is C1 about A1-B1, B2 is B1 about A1-C2.  The altitude feet of the
    successive copies (k, m, l1, k1, m1, l2, k2) all lie on one line, the
    orthic line, and the segment k -> k2 is two orbit periods long.  The
    channel is the maximal strip of lines parallel to the orthic line that
    still cross at least two edges of every reflected copy; it is bounded
    by the parallels through A and through A1.
    """

    __slots__ = __match_args__ = (
        "source", "base", "edge_map", "triangles", "mirrors",
        "a1", "b1", "b2", "c1", "c2", "k", "m", "l1", "k1", "m1", "l2", "k2",
        "direction", "boundary_low", "boundary_high", "half_width_low", "half_width_high",
    )

    def __init__(
        self,
        source: Triangle,  # the triangle unfolded, original labels
        base: Triangle,  # relabeled copy (alpha >= beta >= gamma)
        edge_map: dict[EdgeId, EdgeId],  # relabeled EdgeId -> caller EdgeId
        triangles: tuple[Triangle, Triangle, Triangle, Triangle, Triangle],
        mirrors: tuple[Line, Line, Line, Line, Line],
        a1: Point,
        b1: Point,
        b2: Point,
        c1: Point,
        c2: Point,
        k: Point,
        m: Point,
        l1: Point,
        k1: Point,
        m1: Point,
        l2: Point,
        k2: Point,
        direction: Point,  # unit vector along the orthic line
        boundary_low: Line,  # through A1, parallel to the orthic line
        boundary_high: Line,  # through A, parallel to the orthic line
        half_width_low: float,
        half_width_high: float,
    ):
        values = (
            source, base, edge_map, triangles, mirrors, a1, b1, b2, c1, c2, k, m, l1, k1, m1, l2, k2,
            direction, boundary_low, boundary_high, half_width_low, half_width_high,
        )
        for store, value in zip(_SET_UNFOLDING, values):
            store(self, value)

    @property
    def all_triangles(self) -> tuple[Triangle, ...]:
        return (self.base,) + self.triangles


_SET_UNFOLDING = slot_setters(Unfolding)


# The unfolding's five steps: the index of the vertex reflected across the
# line through the other two, C about AB, B about AC1, A about B1C1, and so on.
_REFLECTED = (2, 1, 0, 2, 1)
# The other two vertices of each index, in order: the mirror of its reflection.
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _relabel(t: Triangle) -> tuple[Triangle, dict[EdgeId, EdgeId]]:
    """Vertices reordered so opposite side lengths are non-increasing."""
    sides = t.side_lengths
    order = sorted(range(3), key=lambda i: (-sides[i], i))
    v = t.vertices
    relabeled = Triangle(v[order[0]], v[order[1]], v[order[2]])
    edge_map = {EdgeId(i): EdgeId(order[i]) for i in range(3)}
    return relabeled, edge_map


def _build(t: Triangle) -> tuple[Unfolding, tuple, tuple]:
    """(unfolding, stops, bound): the unfolding of t, built on
    local_frame(t) and returned in t's coordinates, with the local data
    its two readers compute on.

    stops, for sub_orthic_schedule: for each of the six stops of a
    channel line, (edge of t, u0, sign * slope, whether t's edge runs
    against the relabeled one).  bound, for lower_bound_profile: (rx, ry,
    tx, ty, vx, vy, |v|, |v . (T - R)|), the ends R and T of the channel's
    cross-section, where the boundaries through A1 and A meet BC, and v =
    k2 - k."""
    local, origin, scale = local_frame(t)
    require_acute(local)
    base, edge_map = _relabel(local)
    a, b, c = base.vertices

    # Each step reflects one vertex across the line through the other two;
    # the mirror's foot is that step's altitude foot (m, l1, k1, m1, l2).
    verts = [a, b, c]
    reflected, feet = [], []
    for i in _REFLECTED:
        p = verts[i]
        lo, hi = _OTHERS[i]
        fx, fy, _ = foot_on_edge(p.x, p.y, *edge_frame(verts[lo], verts[hi]))
        verts[i] = Point(2.0 * fx - p.x, 2.0 * fy - p.y)
        reflected.append(verts[i])
        feet.append(Point(fx, fy))
    c1, b1, a1, c2, b2 = reflected

    k = Point(*foot_on_edge(a.x, a.y, *edge_frame(b, c))[:2])
    m, l1, k1, m1, l2 = feet
    k2 = Point(*foot_on_edge(a1.x, a1.y, *edge_frame(b2, c2))[:2])

    w = k2 - k
    direction = w * (1.0 / w.norm())
    off_high = direction.cross(a - k)
    off_low = direction.cross(a1 - k)
    step = direction * base.diameter  # a unit step would round away at large sides
    low_line: Line = (a1, a1 + step)
    high_line: Line = (a, a + step)

    # The cross-section RT: R and T, where the boundaries through A1 and A
    # meet BC.  They are parallel to KM, which meets BC at the angle A, the
    # base's largest, in [pi/3, pi/2): the sine is at least sqrt(3)/2, and
    # no parallel test is needed.
    ex, ey = c.x - b.x, c.y - b.y
    cross_section = []
    for p, q in (low_line, high_line):
        dx, dy = q.x - p.x, q.y - p.y
        s = ((b.x - p.x) * ey - (b.y - p.y) * ex) / (dx * ey - dy * ex)
        cross_section += (p.x + dx * s, p.y + dy * s)
    rx, ry, tx, ty = cross_section

    # The channel stops in crossing order, (BC, +) (AB, -) (AC, -) (BC, -)
    # (AB, +) (AC, +): each edge's orthic foot u0 and its slope per unit of
    # lambda, d / side^2 with d = (B - A) . (C - A); on AC and AB, u0 is
    # the slope too.
    abx, aby, acx, acy, bcx, bcy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y, c.x - b.x, c.y - b.y
    d = abx * acx + aby * acy
    bc2 = bcx * bcx + bcy * bcy
    s_bc, s_ac, s_ab = d / bc2, d / (acx * acx + acy * acy), d / (abx * abx + aby * aby)
    u_bc = -(abx * bcx + aby * bcy) / bc2
    stops = []
    for e, u0, slope in (
        (EdgeId.A, u_bc, s_bc), (EdgeId.C, s_ab, -s_ab), (EdgeId.B, s_ac, -s_ac),
        (EdgeId.A, u_bc, -s_bc), (EdgeId.C, s_ab, s_ab), (EdgeId.B, s_ac, s_ac),
    ):
        lo, hi = _OTHERS[e]
        stops.append((edge_map[e], u0, slope, edge_map[EdgeId(lo)] > edge_map[EdgeId(hi)]))
    bound = (rx, ry, tx, ty, w.x, w.y, w.norm(), abs(w.x * (tx - rx) + w.y * (ty - ry)))

    # In t's coordinates: the base is t's own vertices, every other point is
    # placed back; a triangle that is its own frame keeps its points as built.
    points = [c1, b1, a1, c2, b2, k, m, l1, k1, m1, l2, k2, low_line[1], high_line[1]]
    if local is not t:
        v = t.vertices
        base = Triangle(*[v[e] for e in edge_map.values()])  # keyed A, B, C in order
        points = [place(p.x, p.y, origin, scale) for p in points]
    c1, b1, a1, c2, b2, k, m, l1, k1, m1, l2, k2, low_end, high_end = points
    verts = [base.a, base.b, base.c]
    tris, mirrors = [], []
    for i, p in zip(_REFLECTED, (c1, b1, a1, c2, b2)):
        lo, hi = _OTHERS[i]
        mirrors.append((verts[lo], verts[hi]))
        verts[i] = p
        tris.append(Triangle(*verts))
    unf = Unfolding(
        source=t,
        base=base,
        edge_map=edge_map,
        triangles=tuple(tris),
        mirrors=tuple(mirrors),
        a1=a1,
        b1=b1,
        b2=b2,
        c1=c1,
        c2=c2,
        k=k,
        m=m,
        l1=l1,
        k1=k1,
        m1=m1,
        l2=l2,
        k2=k2,
        direction=direction,
        boundary_low=(a1, low_end),
        boundary_high=(base.a, high_end),
        half_width_low=abs(off_low) * scale,
        half_width_high=abs(off_high) * scale,
    )
    return unf, tuple(stops), bound


# The last build, keyed on the identity of the caller's Triangle, not on
# ==: Point(0.0, y) == Point(-0.0, y), and source/base must be the caller's
# own vertices.  Holding the triangle keeps its id from being reused.
_last: tuple[Unfolding, tuple, tuple] | None = None


def _chain(t: Triangle) -> tuple[Unfolding, tuple, tuple]:
    """_build(t), built once per triangle: the last build is kept."""
    global _last
    if _last is None or _last[0].source is not t:
        _last = _build(t)
    return _last


def reflection_chain(t: Triangle) -> Unfolding:
    """The unfolding of t: built once per triangle on local_frame(t), and
    returned in t's coordinates."""
    return _chain(t)[0]


def sub_orthic_schedule(t: Triangle, lam: float) -> Schedule:
    """Cyclic 6-periodic schedule from the channel line at parameter lam.

    lam = -1 is the boundary through A1, 0 the orthic line itself, +1 the
    boundary through A; in between the offset interpolates linearly in
    signed distance on each side.  The two half widths are equal: A1's
    copy meets the orthic line along the image of KM, as the base does.

    The line is parallel to the orthic sides, so it crosses BC at the
    angle A, AC at B and AB at C, and each of its six stops, folded back
    onto the relabeled base, moves linearly in lam along its edge:
    u = u0 + lam * sign * s.  At lam = 0 they are the orthic feet K, M, L,
    K, M, L, with u0 = (A - B) . (C - B) / |BC|^2 on BC and d / |AC|^2,
    d / |AB|^2 on AC and AB, d = (B - A) . (C - A).  The slopes are d /
    side^2 on every edge: the half width h_a cos A over side * sin(angle).
    So on AC and AB u0 = s, and the stops that reach vertex A at lam = +-1
    are 0 exactly.  Each u is built once per triangle with the unfolding;
    a stop within VERTEX_SNAP of 0 or 1 is that vertex, and the edge
    parameters are turned to t's own orientation of each edge.
    """
    if not -1.0 <= lam <= 1.0:
        raise OutsideChannel(f"lambda {lam} outside [-1, 1]")
    pts = []
    for edge, u0, slope, flip in _chain(t)[1]:
        u = u0 + lam * slope
        if abs(u) <= VERTEX_SNAP:
            u = 0.0
        elif abs(u - 1.0) <= VERTEX_SNAP:
            u = 1.0
        pts.append(SchedulePoint(edge, 1.0 - u if flip else u))
    return Schedule(t, tuple(pts))


def lower_bound_profile(t: Triangle, k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, v_k / k, bound_k).  v_k is the length of the shortest
    trajectory from the channel cross-section RT on BC to its k-th unfolded
    image RT + k*v, v = K2 - K (|v| = 2 * orthic perimeter): the short
    diagonal of RTT_kR_k.  bound_k >= 2*P - v_k/k is the parallelogram bound
    |v . (T - R)| / (P k) from the skew diagonal.  Both are measured in
    local_frame(t) and scaled back.  R, T, v, |v| and |v . (T - R)| come
    from the unfolding's build, once per triangle; each row is float
    arithmetic on them.

    v_k is dist(R, R_kT_k) alone.  RT and R_kT_k lie on distinct parallels
    to BC, so v_k is the least distance from an endpoint of one to the
    other, and by the parallelogram's central symmetry dist(T_k, RT) and
    dist(R_k, RT) are those of R and T from R_kT_k.  v runs from K toward M
    at the angle A to the ray KB (BKM is similar to BAC), and line KM
    separates B from A, on whose side T lies.  So v . (T - R) = -|v| |T - R|
    cos A < 0 (A, the relabeled base's largest angle, is acute): T projects
    past T_k, and dist(T, R_kT_k) = k |v| = |R - R_k| >= dist(R, R_kT_k)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    scale = local_frame(t)[2]
    rx, ry, tx, ty, vx, vy, per2, c = _chain(t)[2]
    rows = []
    for k in range(1, k_max + 1):
        rkx, rky = rx + vx * k, ry + vy * k
        fx, fy = tx + vx * k - rkx, ty + vy * k - rky
        ff = fx * fx + fy * fy
        # R's projection onto R_kT_k, clamped to the segment; R_k where the
        # segment rounds to a point, as on thin triangles near a right angle.
        w = ((rx - rkx) * fx + (ry - rky) * fy) / ff if ff else 0.0
        w = (w if w < 1.0 else 1.0) if w > 0.0 else 0.0
        d_r = math.hypot(rx - (rkx + fx * w), ry - (rky + fy * w))
        rows.append((k, d_r / k * scale, 2.0 * c / (per2 * k) * scale))
    return rows


def verify_1gap_optimality(t: Triangle, k: int = 100) -> bool:
    """Certify 1-gap optimality of the orthic schedule by sandwiching:
    v_k / (2k)  <=  orthic 1-gap  <=  v_k / (2k) + bound_k / 2,
    with k unfolding repetitions; k < 1 raises ValueError.  The slack
    adds 16 eps * diameter for the rounding of the two sides, which on a
    thin triangle exceeds 1e-9 of the 1-gap."""
    rows = lower_bound_profile(t, k)
    _, vk_over_k, bound = rows[-1]
    lower = vk_over_k / 2.0
    upper = gap_report(orthic_schedule(t), 1).overall
    slack = 1e-9 * upper + 16 * 2.0**-52 * t.diameter
    return lower <= upper + slack and upper - lower <= bound / 2.0 + slack

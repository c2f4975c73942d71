"""Orthic triangle, the five-reflection unfolding with its orthic channel,
the 6-periodic schedules of the channel lines folded back in, and the
unfolding lower-bound sequence v_k that certifies their optimality.

The unfolding, the channel and v_k work on a relabeled copy of the input
whose angles satisfy A >= B >= C.  The channel's stops are mapped back to
the caller's edge labels; the unfolding keeps the relabeled ones, A its
largest angle.

`Unfolding` is the one object for the unfolding, and it holds only what
reports read: the six copies, the altitude-foot images on the orthic line
and the channel between the parallels through A and A1.  One rule builds
it: each of the five steps reflects one vertex of the current copy across
the copy of the base edge through the other two (`_REFLECTED`), carried by
the isometry built so far, and the foot of that reflection is the copy's
altitude foot on the orthic line.  Only `reflection_chain` builds it, for
what reports it: the channel's stops and v_k are closed forms of the
relabeled base's dot products.  They, the relabeled base and the altitude
feet are each computed once per triangle and kept on it (`Triangle.derived`).

Every construction here runs on geom.local_frame(t): the triangle moved
near the origin and scaled by a power of two to a diameter in [1, 2).
What it reports is mapped back: points are placed at origin + scale * p,
lengths multiplied by the scale, and edge parameters and ratios kept.

The unfolding's exact identities (collinear feet, B2C2 parallel to BC, a
channel that meets two edges of every copy) and the closed forms' exact
values are tested, not checked here.
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


def _feet(t: Triangle) -> tuple[tuple[float, float, float], ...]:
    """The altitude feet K, L, M of acute t on edges A, B and C, each as
    (x, y, u): the foot and its edge parameter, clamped to [0, 1]."""
    require_acute(t)
    return tuple([foot_on_edge(v.x, v.y, *edge_frame(*t.edges[e])) for v, e in zip(t.vertices, EdgeId)])


def orthic_triangle(t: Triangle) -> OrthicData:
    """Altitude feet K, L, M and the orthic perimeter of an acute triangle,
    computed on local_frame(t) and placed back."""
    local, origin, scale = local_frame(t)
    k, l, m = [Point(x, y) for x, y, _ in local.derived(_feet)]
    a_ang, b_ang, c_ang = angles(local)
    x0 = math.cos(a_ang) * math.sin(c_ang) / math.sin(b_ang)
    per = (k.dist(l) + l.dist(m) + m.dist(k)) * scale
    if local is not t:
        k, l, m = [place(p.x, p.y, origin, scale) for p in (k, l, m)]
    return OrthicData(k_foot=k, l_foot=l, m_foot=m, perimeter=per, x0=x0)


def orthic_schedule(t: Triangle) -> Schedule:
    """The 3-periodic cyclic schedule along the orthic triangle K -> M -> L."""
    (_, _, uk), (_, _, ul), (_, _, um) = local_frame(t)[0].derived(_feet)
    return Schedule(
        t, (SchedulePoint(EdgeId.A, uk), SchedulePoint(EdgeId.C, um), SchedulePoint(EdgeId.B, ul))
    )


class Unfolding(Record):
    """Five successive reflections of a triangle with angles A >= B >= C
    and the orthic channel they straighten out, in the coordinates of the
    triangle unfolded.

    C1 is C reflected about AB, B1 is B about A-C1, A1 is A about B1-C1,
    C2 is C1 about A1-B1, B2 is B1 about A1-C2.  copies holds the relabeled
    base, made of the caller's own vertices, then each reflected copy:
    (A, B, C1), (A, B1, C1), (A1, B1, C1), (A1, B1, C2), (A1, B2, C2).  The
    altitude feet of the successive copies (k, m, l1, k1, m1, l2, k2) all
    lie on one line, the orthic line, and the segment k -> k2 is two orbit
    periods long.  The channel is the maximal strip of lines parallel to
    the orthic line that still cross at least two edges of every copy; it
    is bounded by the parallels through A and through A1, which lie
    half_width from the orthic line on either side.
    """

    __slots__ = __match_args__ = (
        "copies", "k", "m", "l1", "k1", "m1", "l2", "k2",
        "direction", "boundary_low", "boundary_high", "half_width",
    )

    def __init__(
        self,
        copies: tuple[Triangle, ...],  # the base, then the five reflected copies
        k: Point, m: Point, l1: Point, k1: Point, m1: Point, l2: Point, k2: Point,
        direction: Point,  # unit vector along the orthic line
        boundary_low: Line,  # through A1, parallel to the orthic line
        boundary_high: Line,  # through A, parallel to the orthic line
        half_width: float,  # distance of A, and of A1, from the orthic line
    ):
        values = (copies, k, m, l1, k1, m1, l2, k2, direction, boundary_low, boundary_high, half_width)
        for store, value in zip(_SET_UNFOLDING, values):
            store(self, value)


_SET_UNFOLDING = slot_setters(Unfolding)


# The unfolding's five steps: the index of the vertex reflected across the
# copy of the base edge through the other two, C about AB, B about AC1, A
# about B1C1, and so on.
_REFLECTED = (2, 1, 0, 2, 1)
# The other two vertices of each index, in order: the base edge whose copy
# is the mirror of its reflection.
_OTHERS = ((1, 2), (0, 2), (0, 1))
# EdgeId by index, read where calling EdgeId(i) would cost more.
_EDGES = tuple(EdgeId)


def _relabel(t: Triangle) -> tuple[Triangle, tuple[EdgeId, EdgeId, EdgeId]]:
    """The vertices of acute t reordered so their angles are non-increasing,
    ties by index, and the map from the relabeled EdgeId to t's, as a
    tuple.  By angle, not by side length: on a thin triangle near a right
    angle the float sides can sort apart from the exact ones, and the
    channel's closed forms hold only where A is the largest angle."""
    require_acute(t)
    angs = angles(t)
    order = sorted(range(3), key=lambda i: (-angs[i], i))
    v = t.vertices
    relabeled = Triangle(v[order[0]], v[order[1]], v[order[2]])
    return relabeled, tuple([_EDGES[i] for i in order])


def _build(t: Triangle) -> Unfolding:
    """The unfolding of t, built on local_frame(t) and returned in t's
    coordinates.  Its projections, the five reflections and the feet k and
    k2, go through geom's one segment kernel, edge_frame and foot_on_edge.

    The mirrors are carried, not read off the copies.  After some steps the
    copy is the base moved by an isometry with linear part L, so the next
    mirror is the base edge _OTHERS[i] moved by it: unit direction L e, e
    the base edge's from edge_frame, through the current copy of the edge's
    first vertex.  The step then sets L to L Ref(e).  A direction read off
    two computed vertices of a copy is off by eps diam / |edge|, which on a
    thin triangle's short edge moved the last copies up to 3.3e8 eps diam
    from their exact values (tests/test_reference_exact.py)."""
    local, origin, scale = local_frame(t)
    base, edge_map = local.derived(_relabel)
    a, b, c = verts = list(base.vertices)
    frames = [edge_frame(verts[lo], verts[hi]) for lo, hi in _OTHERS]

    # Each step reflects one vertex across its carried mirror; the mirror's
    # foot is that step's altitude foot (m, l1, k1, m1, l2).  L is kept as
    # its columns (lxx, lyx) and (lxy, lyy).
    lxx, lxy, lyx, lyy = 1.0, 0.0, 0.0, 1.0
    reflected, feet = [], []
    for i in _REFLECTED:
        p, q = verts[i], verts[_OTHERS[i][0]]
        _, _, dx, dy, dd, ex, ey = frames[i]
        ux, uy = lxx * ex + lxy * ey, lyx * ex + lyy * ey
        fx, fy, _ = foot_on_edge(p.x, p.y, q.x, q.y, ux, uy, 1.0, ux, uy)  # the unit segment from q
        verts[i] = Point(2.0 * fx - p.x, 2.0 * fy - p.y)
        reflected.append(verts[i])
        feet.append(Point(fx, fy))
        # Ref(e) = [[cx, sx], [sx, -cx]], from d: fewer roundings than from e.
        cx, sx = (dx * dx - dy * dy) / dd, 2.0 * dx * dy / dd
        lxx, lxy, lyx, lyy = lxx * cx + lxy * sx, lxx * sx - lxy * cx, lyx * cx + lyy * sx, lyx * sx - lyy * cx
    c1, b1, a1, c2, b2 = reflected

    k = Point(*foot_on_edge(a.x, a.y, *edge_frame(b, c))[:2])
    m, l1, k1, m1, l2 = feet
    k2 = Point(*foot_on_edge(a1.x, a1.y, *edge_frame(b2, c2))[:2])

    w = k2 - k
    direction = w * (1.0 / w.norm())
    half_width = abs(direction.cross(a - k)) * scale
    step = direction * base.diameter  # a unit step would round away at large sides

    # In t's coordinates: the base is t's own vertices, every other point is
    # placed back; a triangle that is its own frame keeps its points as built.
    points = [c1, b1, a1, c2, b2, k, m, l1, k1, m1, l2, k2, a1 + step, a + step]
    if local is not t:
        v = t.vertices
        base = Triangle(*[v[e] for e in edge_map])
        points = [place(p.x, p.y, origin, scale) for p in points]
    c1, b1, a1, c2, b2, k, m, l1, k1, m1, l2, k2, low_end, high_end = points
    verts, copies = list(base.vertices), [base]
    for i, p in zip(_REFLECTED, (c1, b1, a1, c2, b2)):
        verts[i] = p
        copies.append(Triangle(*verts))
    boundaries = (a1, low_end), (base.a, high_end)
    return Unfolding(tuple(copies), k, m, l1, k1, m1, l2, k2, direction, *boundaries, half_width)


def reflection_chain(t: Triangle) -> Unfolding:
    """The unfolding of t: built on local_frame(t) on every call, and
    returned in t's coordinates."""
    return _build(t)


def _channel_numbers(t: Triangle) -> tuple[tuple, tuple[float, float, float, float]]:
    """(stops, rows): the channel family and the v_k rows of t in closed
    form, on the relabeled base of local_frame(t).

    stops, for sub_orthic_schedule: for each of the six stops of a channel
    line, (edge of t, u0, sign * slope, whether t's edge runs against the
    relabeled one).  rows, for lower_bound_profile: (2P sin A, 2P cos A,
    |RT|, 2 |RT| cos A), P the orthic perimeter."""
    base, edge_map = local_frame(t)[0].derived(_relabel)
    a, b, c = base.vertices
    abx, aby, acx, acy, bcx, bcy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y, c.x - b.x, c.y - b.y
    d = abx * acx + aby * acy
    ab2, ac2, bc2 = abx * abx + aby * aby, acx * acx + acy * acy, bcx * bcx + bcy * bcy

    # The stops in crossing order, (BC, +) (AB, -) (AC, -) (BC, -) (AB, +)
    # (AC, +), with sub_orthic_schedule's u0 and slopes d / side^2.
    s_bc, s_ac, s_ab = d / bc2, d / ac2, d / ab2
    u_bc = -(abx * bcx + aby * bcy) / bc2
    stops = []
    for e, u0, slope in (
        (EdgeId.A, u_bc, s_bc), (EdgeId.C, s_ab, -s_ab), (EdgeId.B, s_ac, -s_ac),
        (EdgeId.A, u_bc, -s_bc), (EdgeId.C, s_ab, s_ab), (EdgeId.B, s_ac, s_ac),
    ):
        lo, hi = _OTHERS[e]
        stops.append((edge_map[e], u0, slope, edge_map[_EDGES[lo]] > edge_map[_EDGES[hi]]))

    # P = 2 area / circumradius = 2 bc sin^2 A / a and |RT| = 2 d / a, with
    # sin^2 A = 1 - d^2 / (bc)^2: cos A <= 1/2, so no digit cancels.
    b2c2 = ab2 * ac2
    bc, sin2 = math.sqrt(b2c2), 1.0 - d * d / b2c2
    side_a = math.sqrt(bc2)
    per2, rt, cos_a = 4.0 * bc * sin2 / side_a, 2.0 * d / side_a, d / bc
    return tuple(stops), (per2 * math.sqrt(sin2), per2 * cos_a, rt, 2.0 * rt * cos_a)


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
    are 0 exactly.  u0 and the slopes are computed once and kept on t; a
    stop within VERTEX_SNAP of 0 or 1 is that vertex, and the edge
    parameters are turned to t's own orientation of each edge.

    Its gaps in closed form, P the orthic perimeter, H the half width and
    C the smallest angle:

        gap2 = 2P,    gap1 = P + 2 |lam| H cot C.

    Unfolded, a period is the line's segment from BC to B2C2, and w = K2 -
    K carries BC's line onto B2C2's, so on every parallel to w it is |w| =
    2P long.  The line lies s = lam H from the orthic line and crosses each
    copy of an edge at that edge's angle theta, so each stop lies s
    cot(theta) along it from the orthic line's stop; the two copies of an
    edge in a period are met at theta and pi - theta, so the edge's two
    1-gaps are P + 2s cot(theta) and P - 2s cot(theta).  The largest is on
    AB, crossed at the smallest angle, and cot C > 0: the orthic line, lam
    = 0, is the family's unique 1-gap minimiser (tests/test_orthic.py).
    """
    if not -1.0 <= lam <= 1.0:
        raise OutsideChannel(f"lambda {lam} outside [-1, 1]")
    pts = []
    for edge, u0, slope, flip in t.derived(_channel_numbers)[0]:
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
    image R_kT_k = RT + k*v, v = K2 - K (|v| = 2P, P the orthic perimeter):
    the short diagonal of RTT_kR_k.  bound_k >= 2P - v_k/k is the
    parallelogram bound |v . (T - R)| / (P k) from the skew diagonal.

    Both are closed forms of the relabeled base, A its largest angle, with
    a = |BC| and d = (B - A) . (C - A) = bc cos A.  v runs from K toward M,
    at the angle A to the ray KB (BKM is similar to BAC).  The boundaries
    through A and A1 lie at h_a cos A on either side of line KM, so RT is
    symmetric about K, |RT| = 2 h_a cot A = 2d / a, and T lies on A's side
    of KM, which separates B from A: v runs against T - R.  So RT and
    R_kT_k lie on parallels 2Pk sin A apart, and their projections on BC
    are max(0, 2Pk cos A - |RT|) apart, as R_k lies 2Pk cos A past R and
    T_k lies |RT| behind R_k:

        v_k / k = hypot(2P sin A, max(0, 2P cos A - |RT| / k)),
        bound_k = 2 |RT| cos A / k.

    Their constants are computed on local_frame(t) once per triangle, with
    the channel's stops; each row is scaled back."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    scale = local_frame(t)[2]
    x, y, rt, bound = t.derived(_channel_numbers)[1]
    rows = []
    for k in range(1, k_max + 1):
        dy = y - rt / k
        rows.append((k, math.hypot(x, dy if dy > 0.0 else 0.0) * scale, bound / k * scale))
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

"""Orthic triangle, the five-reflection unfolding with its orthic channel,
the 6-periodic schedules obtained by folding channel lines back in, and the
unfolding lower-bound sequence v_k that certifies their optimality.

`Unfolding` is the one object for the unfolding: the reflected copies, the
altitude-foot images on the orthic line and the channel between the
parallels through A and A1.  It works on a relabeled copy of the input
whose side lengths satisfy alpha >= beta >= gamma; results are mapped back
to the caller's vertex labels before they are returned.

One rule builds it: each of the five steps reflects one vertex of the
current copy across the line through the other two (`_REFLECTED`), and
the foot of that reflection is the copy's altitude foot on the orthic
line.  The channel check reads the signed offsets of each copy's vertices
from the orthic line: a boundary parallel to it meets two edges of a copy
unless all three vertices lie strictly on one side.

`reflection_chain(t)` builds it and keeps the last one built, one entry
keyed on the Triangle object: a sweep over lambda, the v_k bounds and the
CLI on one triangle build it, and run its checks, once.
"""

from __future__ import annotations

import math

from .geom import (
    XY,
    EdgeId,
    Line,
    Point,
    Record,
    Triangle,
    angles,
    edge_param,
    edge_param_xy,
    line_dir,
    line_intersection,
    line_intersection_xy,
    project_along,
    project_onto_edge,
    reflect_along,
    require_acute,
    segment_distance_xy,
    signed_offset,
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
    if min(a_ang, b_ang, c_ang) <= 0.0 or max(a_ang, b_ang, c_ang) > math.pi / 2 + 1e-12:
        raise ValueError("angles must lie in (0, pi/2] for the perimeter formula")
    sa, sb, sc = math.sin(a_ang), math.sin(b_ang), math.sin(c_ang)
    inv = 1.0 / (sb * sc) + 1.0 / (sa * sc) + 1.0 / (sa * sb)
    return 2.0 * t.perimeter / inv


def orthic_triangle(t: Triangle) -> OrthicData:
    """Altitude feet K, L, M and the orthic perimeter of an acute triangle."""
    require_acute(t)
    k = project_onto_edge(t.a, t, EdgeId.A)
    l = project_onto_edge(t.b, t, EdgeId.B)
    m = project_onto_edge(t.c, t, EdgeId.C)
    a_ang, b_ang, c_ang = angles(t)
    x0 = math.cos(a_ang) * math.sin(c_ang) / math.sin(b_ang)
    # Cross-check the projection against the parametric optimizer form.
    l_param = t.c * x0 + t.a * (1.0 - x0)
    if l_param.dist(l) > 1e-10 * t.diameter:
        raise AssertionError("altitude foot disagrees with parametric optimizer")
    per = k.dist(l) + l.dist(m) + m.dist(k)
    if abs(per - orthic_perimeter(t)) > 1e-10 * per:
        raise AssertionError("coordinate perimeter disagrees with closed formula")
    return OrthicData(k_foot=k, l_foot=l, m_foot=m, perimeter=per, x0=x0)


def orthic_schedule(t: Triangle) -> Schedule:
    """The 3-periodic cyclic schedule along the orthic triangle K -> M -> L."""
    data = orthic_triangle(t)
    return Schedule(
        t,
        (
            SchedulePoint(EdgeId.A, edge_param(t, EdgeId.A, data.k_foot)),
            SchedulePoint(EdgeId.C, edge_param(t, EdgeId.C, data.m_foot)),
            SchedulePoint(EdgeId.B, edge_param(t, EdgeId.B, data.l_foot)),
        ),
    )


class Unfolding(Record):
    """Five successive reflections of a triangle with alpha >= beta >= gamma
    and the orthic channel they straighten out.

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
        "normal", "snap", "mirror_dirs",
    )

    def __init__(
        self,
        source: Triangle,  # caller's triangle, original labels
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
        normal: Point,  # unit normal toward the A side (positive signed offset)
        snap: float,  # edge parameters this close to 0 or 1 snap to the vertex
        mirror_dirs: tuple[XY, XY, XY, XY, XY],  # unit direction of each mirror, for fold
    ):
        values = (
            source, base, edge_map, triangles, mirrors, a1, b1, b2, c1, c2, k, m, l1, k1, m1, l2, k2,
            direction, boundary_low, boundary_high, half_width_low, half_width_high, normal, snap,
            mirror_dirs,
        )
        for store, value in zip(_SET_UNFOLDING, values):
            store(self, value)

    @property
    def all_triangles(self) -> tuple[Triangle, ...]:
        return (self.base,) + self.triangles

    def fold(self, p: XY, depth: int) -> XY:
        """Map a point of the depth-th reflected copy back onto the base."""
        for i in range(depth - 1, -1, -1):
            p = reflect_along(p, self.mirrors[i][0], self.mirror_dirs[i])
        return p


_SET_UNFOLDING = slot_setters(Unfolding)


# The unfolding's five steps: the index of the vertex reflected across the
# line through the other two, C about AB, B about AC1, A about B1C1, and so on.
_REFLECTED = (2, 1, 0, 2, 1)


def _relabel(t: Triangle) -> tuple[Triangle, dict[EdgeId, EdgeId]]:
    """Vertices reordered so opposite side lengths are non-increasing."""
    sides = t.side_lengths
    order = sorted(range(3), key=lambda i: (-sides[i], i))
    v = t.vertices
    relabeled = Triangle(v[order[0]], v[order[1]], v[order[2]])
    edge_map = {EdgeId(i): EdgeId(order[i]) for i in range(3)}
    return relabeled, edge_map


def _straddles(tri: Triangle, anchor: Point, unit_dir: Point, bottom: float, top: float, tol: float) -> bool:
    """Each parallel to unit_dir at a signed offset from bottom to top meets
    at least two edges of tri: its vertices are not all strictly on one side."""
    offs = [signed_offset(v, anchor, unit_dir) for v in tri.vertices]
    return max(offs) >= top - tol and min(offs) <= bottom + tol


def _build(t: Triangle) -> Unfolding:
    require_acute(t)
    base, edge_map = _relabel(t)
    a, b, c = base.vertices

    # Each step reflects one vertex across the line through the other two;
    # the mirror's foot is that step's altitude foot (m, l1, k1, m1, l2).
    verts = [a, b, c]
    copies, mirrors, dirs, feet = [], [], [], []
    for i in _REFLECTED:
        p = verts[i]
        mirror = tuple(v for j, v in enumerate(verts) if j != i)
        d = line_dir(mirror)
        fx, fy = project_along(p.as_tuple(), mirror[0], d)
        verts[i] = Point(2.0 * fx - p.x, 2.0 * fy - p.y)
        copies.append(tuple(verts))
        mirrors.append(mirror)
        dirs.append(d)
        feet.append((fx, fy))
    c1, b1, a1, c2, b2 = (copy[i] for copy, i in zip(copies, _REFLECTED))
    tris = tuple(Triangle(*copy) for copy in copies)

    k = Point(*project_along(a.as_tuple(), b, line_dir((b, c))))
    m, l1, k1, m1, l2 = (Point(*f) for f in feet)
    k2 = Point(*project_along(a1.as_tuple(), b2, line_dir((b2, c2))))

    # The final copy's base must come out parallel to BC (total turning 3*pi).
    d0, d5 = c - b, c2 - b2
    sin_angle = abs(d0.cross(d5)) / (d0.norm() * d5.norm())
    if sin_angle > 1e-10:
        raise AssertionError("B2C2 failed to come out parallel to BC")

    w = k2 - k
    direction = w * (1.0 / w.norm())
    off_high = signed_offset(a, k, direction)
    off_low = signed_offset(a1, k, direction)
    if not off_high * off_low < 0.0:
        raise AssertionError("A and A1 should straddle the orthic line")
    step = direction * base.diameter  # a unit step would round away at large sides
    low_line: Line = (a1, a1 + step)
    high_line: Line = (a, a + step)
    tol = base.tol(1e-9)
    bottom, top = min(off_low, off_high), max(off_low, off_high)
    for tri in (base,) + tris:
        if not _straddles(tri, k, direction, bottom, top, tol):
            raise AssertionError("channel boundary misses a reflected triangle")

    normal = Point(-direction.y, direction.x)
    if off_high < 0.0:
        normal = normal * -1.0
    return Unfolding(
        source=t,
        base=base,
        edge_map=edge_map,
        triangles=tris,
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
        boundary_low=low_line,
        boundary_high=high_line,
        half_width_low=abs(off_low),
        half_width_high=abs(off_high),
        normal=normal,
        snap=t.tol(1e-8) / max(t.side_lengths),
        mirror_dirs=tuple(dirs),
    )


# The unfolding of the last build.  Keyed on the identity of its source
# Triangle, not on ==: Point(0.0, y) == Point(-0.0, y), and source/base must
# be the caller's own vertices.  Holding the triangle keeps its id from
# being reused.
_last_unfolding: Unfolding | None = None


def reflection_chain(t: Triangle) -> Unfolding:
    """The unfolding of t, built and checked once per triangle; a build that
    raises is not remembered."""
    global _last_unfolding
    last = _last_unfolding
    if last is not None and last.source is t:
        return last
    _last_unfolding = _build(t)
    return _last_unfolding


# The channel line crosses BC, then each mirror: each crossing's relabeled edge and fold depth.
_CROSSED_EDGES = (EdgeId.A,) + tuple(EdgeId(i) for i in _REFLECTED)
_FOLD_DEPTHS = (0,) + tuple(range(len(_REFLECTED)))


def sub_orthic_schedule(t: Triangle, lam: float) -> Schedule:
    """Cyclic 6-periodic schedule from the channel line at parameter lam.

    lam = -1 is the boundary through A1, 0 the orthic line itself, +1 the
    boundary through A; in between the offset interpolates linearly in
    signed distance on each side.
    """
    if not -1.0 <= lam <= 1.0:
        raise OutsideChannel(f"lambda {lam} outside [-1, 1]")
    unf = reflection_chain(t)
    off = lam * (unf.half_width_high if lam >= 0.0 else unf.half_width_low)
    anchor = unf.k + unf.normal * off
    line: Line = (anchor, anchor + unf.direction * t.diameter)

    crossed = ((unf.base.b, unf.base.c),) + unf.mirrors
    folded = [unf.fold(line_intersection_xy(line, cl), n) for cl, n in zip(crossed, _FOLD_DEPTHS)]
    # The line's exit through the final copy's base must fold back onto the start.
    closing = unf.fold(line_intersection_xy(line, (unf.b2, unf.c2)), len(unf.mirrors))
    if math.dist(closing, folded[0]) > 1e-8 * t.diameter:
        raise AssertionError("folded trajectory failed to close up")

    pts = []
    for p, rel_edge in zip(folded, _CROSSED_EDGES):
        edge = unf.edge_map[rel_edge]
        u = edge_param_xy(t, edge, p, rel_tol=1e-8)
        if abs(u) <= unf.snap:
            u = 0.0
        elif abs(u - 1.0) <= unf.snap:
            u = 1.0
        pts.append(SchedulePoint(edge, u))
    return Schedule(t, tuple(pts))


def lower_bound_profile(t: Triangle, k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, v_k / k, bound_k).  v_k is the length of the shortest
    trajectory from the channel cross-section RT on BC to its k-th unfolded
    image RT + k*v, v = K2 - K (|v| = 2 * orthic perimeter): the short
    diagonal of RTT_kR_k.  bound_k >= 2*P - v_k/k is the parallelogram bound
    |v . (T - R)| / (P k) from the skew diagonal."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    unf = reflection_chain(t)
    bc: Line = (unf.base.b, unf.base.c)
    t_pt = line_intersection(unf.boundary_high, bc)
    r_pt = line_intersection(unf.boundary_low, bc)
    v = unf.k2 - unf.k
    per2 = v.norm()  # 2 * orthic perimeter
    c = abs(v.dot(t_pt - r_pt))
    r0, t0 = r_pt.as_tuple(), t_pt.as_tuple()
    rows = []
    for k in range(1, k_max + 1):
        r_k, t_k = (r0[0] + v.x * k, r0[1] + v.y * k), (t0[0] + v.x * k, t0[1] + v.y * k)
        # RT and its translate never cross (v is not parallel to BC), so an endpoint is nearest.
        vk = min(segment_distance_xy(r0, r_k, t_k), segment_distance_xy(t0, r_k, t_k),
                 segment_distance_xy(r_k, r0, t0), segment_distance_xy(t_k, r0, t0))
        rows.append((k, vk / k, 2.0 * c / (per2 * k)))
    return rows


def verify_1gap_optimality(t: Triangle, grid_n: int = 100) -> bool:
    """Certify 1-gap optimality of the orthic schedule by sandwiching:
    v_k / (2k)  <=  orthic 1-gap  <=  v_k / (2k) + bound_k / 2,
    with k = grid_n unfolding repetitions."""
    k = max(1, grid_n)
    rows = lower_bound_profile(t, k)
    _, vk_over_k, bound = rows[-1]
    lower = vk_over_k / 2.0
    upper = gap_report(orthic_schedule(t), 1).overall
    slack = 1e-9 * upper
    return lower <= upper + slack and upper - lower <= bound / 2.0 + slack

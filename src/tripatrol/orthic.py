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
compute on: for `sub_orthic_schedule`, BC and the five mirrors, the six
lines a channel line crosses in one period, with their fold steps and the
edge frames of the local triangle; for `lower_bound_profile`, BC, the
channel boundaries and k2 - k.
"""

from __future__ import annotations

import math

from .geom import (
    PARALLEL_SIN_TOL,
    RIGHT_ANGLE_SLACK,
    SWEEP_REL_TOL,
    EdgeId,
    Line,
    Point,
    Record,
    Triangle,
    angles,
    edge_frame,
    foot_on_edge,
    line_dir,
    line_intersection,
    local_frame,
    place,
    project_along,
    require_acute,
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
    if min(a_ang, b_ang, c_ang) <= 0.0 or max(a_ang, b_ang, c_ang) > math.pi / 2 + RIGHT_ANGLE_SLACK:
        raise ValueError("angles must lie in (0, pi/2] for the perimeter formula")
    sa, sb, sc = math.sin(a_ang), math.sin(b_ang), math.sin(c_ang)
    inv = 1.0 / (sb * sc) + 1.0 / (sa * sc) + 1.0 / (sa * sb)
    return 2.0 * t.perimeter / inv


def _feet(t: Triangle) -> list[tuple[float, float, float]]:
    """The altitude feet K, L, M of acute t on edges A, B and C, each as
    (x, y, u): the foot and its edge parameter, clamped to [0, 1]."""
    require_acute(t)
    return [foot_on_edge(v.x, v.y, *edge_frame(t, e)) for v, e in zip(t.vertices, EdgeId)]


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
        "normal", "snap",
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
        normal: Point,  # unit normal toward the A side (positive signed offset)
        snap: float,  # edge parameters this close to 0 or 1 snap to the vertex
    ):
        values = (
            source, base, edge_map, triangles, mirrors, a1, b1, b2, c1, c2, k, m, l1, k1, m1, l2, k2,
            direction, boundary_low, boundary_high, half_width_low, half_width_high, normal, snap,
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

# The channel line crosses BC, then each mirror: the fold depth of each
# crossing, and its relabeled edge.  Its next crossing, with B2C2, is BC's
# image under the five reflections and folds back onto the first.
_FOLD_DEPTHS = (0,) + tuple(range(len(_REFLECTED)))
_CROSSED_EDGES = (EdgeId.A,) + tuple(EdgeId(i) for i in _REFLECTED)


def _relabel(t: Triangle) -> tuple[Triangle, dict[EdgeId, EdgeId]]:
    """Vertices reordered so opposite side lengths are non-increasing."""
    sides = t.side_lengths
    order = sorted(range(3), key=lambda i: (-sides[i], i))
    v = t.vertices
    relabeled = Triangle(v[order[0]], v[order[1]], v[order[2]])
    edge_map = {EdgeId(i): EdgeId(order[i]) for i in range(3)}
    return relabeled, edge_map


def _build(t: Triangle) -> tuple[Unfolding, tuple, tuple]:
    """(unfolding, sweep, bound): the unfolding of t, built on
    local_frame(t) and returned in t's coordinates, with the local data
    its two readers compute on.

    sweep, for sub_orthic_schedule: k's coordinates, the two half widths,
    then for each line the channel line crosses, its first point,
    difference vector and that vector's hypot, and the fold steps (mirror
    point, unit direction) that map a point of its copy back onto the base,
    the deepest mirror first; and for each crossing, the edge of t it lies
    on and the start, difference vector and squared length of that edge's
    edge_frame.  bound, for lower_bound_profile: BC, the two channel
    boundaries and k2 - k."""
    local, origin, scale = local_frame(t)
    require_acute(local)
    base, edge_map = _relabel(local)
    a, b, c = base.vertices

    # Each step reflects one vertex across the line through the other two;
    # the mirror's foot is that step's altitude foot (m, l1, k1, m1, l2).
    verts = [a, b, c]
    reflected, mirrors, steps, feet = [], [], [], []
    for i in _REFLECTED:
        p = verts[i]
        lo, hi = _OTHERS[i]
        mirror = (verts[lo], verts[hi])
        d = line_dir(mirror)
        fx, fy = project_along(p.as_tuple(), mirror[0], d)
        verts[i] = Point(2.0 * fx - p.x, 2.0 * fy - p.y)
        reflected.append(verts[i])
        mirrors.append(mirror)
        steps.append((mirror[0].x, mirror[0].y, *d))
        feet.append((fx, fy))
    c1, b1, a1, c2, b2 = reflected

    k = Point(*project_along(a.as_tuple(), b, line_dir((b, c))))
    m, l1, k1, m1, l2 = (Point(*f) for f in feet)
    k2 = Point(*project_along(a1.as_tuple(), b2, line_dir((b2, c2))))

    w = k2 - k
    direction = w * (1.0 / w.norm())
    off_high = signed_offset(a, k, direction)
    off_low = signed_offset(a1, k, direction)
    step = direction * base.diameter  # a unit step would round away at large sides
    low_line: Line = (a1, a1 + step)
    high_line: Line = (a, a + step)

    normal = Point(-direction.y, direction.x)
    if off_high < 0.0:
        normal = normal * -1.0
    lines = []
    for (p, q), depth in zip(((b, c), *mirrors), _FOLD_DEPTHS):
        dx, dy = q.x - p.x, q.y - p.y
        lines.append((p.x, p.y, dx, dy, math.hypot(dx, dy), tuple(reversed(steps[:depth]))))
    frames = tuple((edge_map[e], *edge_frame(local, edge_map[e])[:5]) for e in _CROSSED_EDGES)
    sweep = (k.x, k.y, abs(off_low), abs(off_high), tuple(lines), frames)
    bound = ((b, c), low_line, high_line, w)

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
        normal=normal,
        snap=SWEEP_REL_TOL,
    )
    return unf, sweep, bound


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
    signed distance on each side.

    The line runs from anchor = k + normal * offset to anchor + direction *
    diameter, in local_frame(t).  Its crossing with each line of the
    unfolding's sweep data is folded back onto the base.  Each fold
    reflects across the mirror that built the copy, so a folded crossing
    lies on its base edge's line by construction, and the line's next
    crossing, with B2C2, folds back onto the one with BC: the six make one
    period (tests/test_orthic.py measures both).  The edge parameters are
    those of t.
    """
    if not -1.0 <= lam <= 1.0:
        raise OutsideChannel(f"lambda {lam} outside [-1, 1]")
    diam = local_frame(t)[0].diameter
    unf, (kx, ky, low, high, lines, frames), _ = _chain(t)
    off = lam * (high if lam >= 0.0 else low)
    n, d = unf.normal, unf.direction
    ax, ay = kx + n.x * off, ky + n.y * off
    qx, qy = ax + d.x * diam, ay + d.y * diam
    d1x, d1y = qx - ax, qy - ay
    parallel = PARALLEL_SIN_TOL * math.hypot(d1x, d1y)
    folded = []
    for px, py, d2x, d2y, norm2, steps in lines:
        den = d1x * d2y - d1y * d2x
        if abs(den) <= parallel * norm2:
            raise ValueError("lines are parallel")
        s = ((px - ax) * d2y - (py - ay) * d2x) / den
        x, y = ax + d1x * s, ay + d1y * s
        for mx, my, ux, uy in steps:
            s = (x - mx) * ux + (y - my) * uy
            x, y = 2.0 * (mx + ux * s) - x, 2.0 * (my + uy * s) - y
        folded.append((x, y))

    snap = unf.snap
    pts = []
    for (x, y), (edge, sx, sy, dx, dy, dd) in zip(folded, frames):
        u = ((x - sx) * dx + (y - sy) * dy) / dd
        if abs(u) <= snap:
            u = 0.0
        elif abs(u - 1.0) <= snap:
            u = 1.0
        pts.append(SchedulePoint(edge, u))
    return Schedule(t, tuple(pts))


def lower_bound_profile(t: Triangle, k_max: int) -> list[tuple[int, float, float]]:
    """Rows (k, v_k / k, bound_k).  v_k is the length of the shortest
    trajectory from the channel cross-section RT on BC to its k-th unfolded
    image RT + k*v, v = K2 - K (|v| = 2 * orthic perimeter): the short
    diagonal of RTT_kR_k.  bound_k >= 2*P - v_k/k is the parallelogram bound
    |v . (T - R)| / (P k) from the skew diagonal.  Both are measured in
    local_frame(t) and scaled back.

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
    bc, low, high, v = _chain(t)[2]
    t_pt = line_intersection(high, bc)
    r_pt = line_intersection(low, bc)
    per2 = v.norm()  # 2 * orthic perimeter
    c = abs(v.dot(t_pt - r_pt))
    vx, vy = v.x, v.y
    rx, ry, tx, ty = r_pt.x, r_pt.y, t_pt.x, t_pt.y
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

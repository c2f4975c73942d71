import copy
import math
import pickle
import random
from itertools import combinations, permutations

import pytest

import reference_exact as rx
import reference_geom as ref
from tripatrol.geom import (
    EdgeId,
    NotAcute,
    Point,
    Triangle,
    angles,
    edge_point,
    local_frame,
)
from tripatrol.greedy import greedy_limit_gap, greedy_run
from tripatrol.orthic import (
    OutsideChannel,
    lower_bound_profile,
    orthic_perimeter,
    orthic_schedule,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
)
from tripatrol.schedule import gap_report, is_cyclic, is_k_periodic, pairwise_gap
from conftest import FOOT_EPS, near_right_triangles, random_acute_triangle, thin_triangles
from test_reference_exact import CHANNEL_LAMBDAS, CHANNEL_N, UNFOLDINGS, channel_error

RIGHT_ISO = Triangle(Point(0.5, 0.5), Point(0.0, 0.0), Point(1.0, 0.0))
ACUTE = ((0.0, 0.0), (1.0, 0.0), (0.4, 0.9))


def acute_triangle(dx: float = 0.0, scale: float = 1.0) -> Triangle:
    """A fresh Triangle object: the acute triangle ACUTE, scaled, then moved
    by dx in x and y."""
    return Triangle(*[Point(scale * x + dx, scale * y + dx) for x, y in ACUTE])


def test_orthic_equilateral(equilateral):
    od = orthic_triangle(equilateral)
    assert od.perimeter == pytest.approx(1.5, rel=1e-12)
    assert od.x0 == pytest.approx(0.5, rel=1e-12)
    for foot, e in ((od.k_foot, EdgeId.A), (od.l_foot, EdgeId.B), (od.m_foot, EdgeId.C)):
        assert foot.dist(edge_point(equilateral, e, 0.5)) < 1e-14


def test_orthic_foot_matches_unit_coordinates():
    # With B at the origin and C = (1, 0), the foot of the altitude from A
    # is (p, 0) where (p, q) are A's coordinates.
    b_ang, c_ang = 0.8, 0.9
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    t = Triangle(Point(p, q), Point(0, 0), Point(1, 0))
    od = orthic_triangle(t)
    assert od.k_foot.dist(Point(p, 0.0)) < 1e-14


def test_orthic_rejects_non_acute():
    with pytest.raises(NotAcute):
        orthic_triangle(RIGHT_ISO)
    with pytest.raises(NotAcute):
        orthic_triangle(Triangle(Point(0, 0), Point(1, 0), Point(0.5, 0.1)))


def test_orthic_perimeter_formula_values(equilateral):
    assert orthic_perimeter(equilateral) == pytest.approx(1.5, rel=1e-12)
    # Right isosceles boundary evaluation: alpha=1, B=C=pi/4 gives
    # 2 * 1 * sin^2(pi/4) = 1.
    assert orthic_perimeter(RIGHT_ISO) == pytest.approx(1.0, rel=1e-12)


def test_angles_of_a_valid_triangle_are_positive():
    # orthic_perimeter tests only the largest angle: a Triangle's cross
    # product exceeds 1e-9 * diameter^2 on its local frame, where angles
    # reads it, so no angle is 0.
    flat = ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0000001e-9))
    cases = [
        Triangle(*[Point(x * scale + dx, y * scale + dx) for x, y in flat])
        for scale, dx in ((1.0, 0.0), (2.0**500, 0.0), (2.0**-500, 0.0), (1.0, 1e6))
    ]
    for t in cases + thin_triangles(random.Random(2), 2000):
        assert min(angles(t)) > 0.0


def test_orthic_perimeter_matches_coordinates(rng):
    for _ in range(300):
        t = random_acute_triangle(rng)
        od = orthic_triangle(t)
        coord = (
            od.k_foot.dist(od.l_foot)
            + od.l_foot.dist(od.m_foot)
            + od.m_foot.dist(od.k_foot)
        )
        assert coord == pytest.approx(orthic_perimeter(t), rel=1e-10)
        # Symmetric closed forms 2*alpha*sinB*sinC etc. agree too.
        al, be, ga = t.side_lengths
        a_ang, b_ang, c_ang = angles(t)
        assert coord == pytest.approx(2 * al * math.sin(b_ang) * math.sin(c_ang), rel=1e-10)
        assert coord == pytest.approx(2 * be * math.sin(a_ang) * math.sin(c_ang), rel=1e-10)


def test_parametric_optimizer_and_feet_interior(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        od = orthic_triangle(t)
        assert 0.0 <= od.x0 <= 1.0
        for foot, e in ((od.k_foot, EdgeId.A), (od.l_foot, EdgeId.B), (od.m_foot, EdgeId.C)):
            u, resid = ref.edge_coordinates(t, e, foot)
            # Measured at most 3.46 eps diam off the line over 3,000 such draws.
            assert 0.0 < u < 1.0 and resid <= FOOT_EPS * 2.0**-52 * t.diameter


def test_orthic_schedule_clamps_feet_rounded_off_thin_edges():
    # On the short edge of a thin triangle a foot's raw parameter can round
    # to 1 + 2^-52 (10 of these 1,705 once refused with "edge parameter
    # 1.0000000000000002 outside [0, 1]"); the feet are clamped as greedy's
    # walk clamps its own.
    thin = thin_triangles(random.Random(2), 2000)
    assert len(thin) == 1705
    eps = 2.0**-52
    for t in thin:
        local = local_frame(t)[0]
        bound = FOOT_EPS * eps * local.diameter
        od = orthic_triangle(local)
        s = orthic_schedule(t)
        for point, foot in zip(s.generator, (od.k_foot, od.m_foot, od.l_foot)):
            u, resid = ref.edge_coordinates(local, point.edge, foot)
            slack = bound / local.side_lengths[point.edge]
            assert resid <= bound and -slack <= u <= 1.0 + slack, (t, point.edge)
            assert point.u == min(1.0, max(0.0, u))


def test_orthic_schedule_is_cyclic(equilateral):
    s = orthic_schedule(equilateral)
    assert is_cyclic(s)
    assert gap_report(s, 1).overall == pytest.approx(1.5, rel=1e-12)
    assert pairwise_gap(s) == pytest.approx(0.5, rel=1e-12)


def test_chain_parallelism_and_collinearity(rng):
    for _ in range(200):
        t = random_acute_triangle(rng)
        ch = reflection_chain(t)
        base, last = ch.copies[0], ch.copies[-1]
        d0 = base.c - base.b
        d5 = last.c - last.b
        sin_angle = abs(d0.cross(d5)) / (d0.norm() * d5.norm())
        assert sin_angle <= 1e-10
        pts = [ch.k, ch.m, ch.l1, ch.k1, ch.m1, ch.l2, ch.k2]
        scale2 = t.diameter**2
        for p1, p2, p3 in combinations(pts, 3):
            assert abs((p2 - p1).cross(p3 - p1)) <= 1e-10 * scale2


def test_chain_turning_totals_three_pi(rng):
    # The five reflections turn BC by 2B + 3C + 3A + B = 3(A+B+C) = 3*pi.
    for _ in range(50):
        t = random_acute_triangle(rng)
        a_ang, b_ang, c_ang = angles(reflection_chain(t).copies[0])
        total = 2 * b_ang + 3 * c_ang + 3 * a_ang + b_ang
        assert total == pytest.approx(3 * math.pi, rel=1e-12)


def test_chain_requires_acute():
    with pytest.raises(NotAcute):
        reflection_chain(RIGHT_ISO)


def test_chain_strip_offset_equilateral(equilateral):
    ch = reflection_chain(equilateral)
    base = ch.copies[0]
    d0 = base.c - base.b
    n = Point(-d0.y, d0.x) * (1.0 / d0.norm())
    offset = abs((ch.copies[5].b - base.b).dot(n))
    assert offset == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-12)
    # which is exactly the component of K -> K2 across BC
    assert offset == pytest.approx(abs((ch.k2 - ch.k).dot(n)), rel=1e-12)


def test_orthic_line_length_and_midpoint(rng, equilateral):
    ch = reflection_chain(equilateral)
    k, k2 = ch.k, ch.k2
    assert k.dist(k2) == pytest.approx(3.0, rel=1e-12)
    for _ in range(100):
        t = random_acute_triangle(rng)
        ch = reflection_chain(t)
        k, k2 = ch.k, ch.k2
        per = orthic_perimeter(t)
        assert k.dist(k2) == pytest.approx(2 * per, rel=1e-10)
        # K1 bisects the unfolded double period.
        assert k.dist(ch.k1) == pytest.approx(ch.k1.dist(k2), rel=1e-10)
        # Direction is along the first orbit leg M -> K.
        v, mk = k2 - k, k - ch.m
        assert abs(v.cross(mk)) / (v.norm() * mk.norm()) <= 1e-10


def test_channel_equilateral_symmetric(equilateral):
    # A and A1 both lie the half width, h_a cos A = sqrt(3)/4, from the orthic line.
    chan = reflection_chain(equilateral)
    assert chan.half_width == pytest.approx(math.sqrt(3) / 4, rel=1e-12)
    for vertex in (chan.copies[0].a, chan.copies[3].a):
        assert abs(chan.direction.cross(vertex - chan.k)) == pytest.approx(chan.half_width, rel=1e-12)


def test_channel_orthic_line_strictly_inside(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        chan = reflection_chain(t)
        assert chan.half_width > 1e-9 * t.diameter
        # Boundaries are parallel to the orthic line by construction; check
        # the stored lines agree with the direction vector.
        for line in (chan.boundary_low, chan.boundary_high):
            d = line[1] - line[0]
            assert abs(d.cross(chan.direction)) <= 1e-12


def test_channel_boundary_hits_bc_inside_with_bk_at_least_half_bt(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        ch = reflection_chain(t)
        base = ch.copies[0]
        b, c = rx.exact(base.b), rx.exact(base.c)
        p, q = (rx.exact(v) for v in ch.boundary_high)
        d = rx.sub(c, b)
        u_t, u_k = (rx.dot(rx.sub(x, b), d) / rx.dot(d, d) for x in (rx.meet(p, rx.sub(q, p), b, c), rx.exact(ch.k)))
        assert u_k >= u_t / 2 - 1e-12


def test_channel_boundaries_meet_bc_at_the_largest_angle(rng):
    # The boundaries are parallel to KM, which meets BC at the base's
    # largest angle A, in [pi/3, pi/2), as the closed forms of the stops
    # and of v_k take it to.
    generic = [random_acute_triangle(rng) for _ in range(300)]
    near_right = [t for _, t in near_right_triangles(random.Random(3), 300)]
    for t in generic + thin_triangles(random.Random(2), 2000) + near_right:
        unf = reflection_chain(t)
        b, c = unf.copies[0].b, unf.copies[0].c
        assert abs(unf.direction.cross(c - b)) / b.dist(c) >= math.sin(math.pi / 3) - 1e-9


def test_channel_rejects_non_acute():
    with pytest.raises(NotAcute):
        reflection_chain(RIGHT_ISO)


def test_sub_orthic_lambda_zero_is_doubled_orthic(rng, equilateral):
    for t in [equilateral] + [random_acute_triangle(rng) for _ in range(30)]:
        s = sub_orthic_schedule(t, 0.0)
        od = orthic_triangle(t)
        feet = {od.k_foot, od.l_foot, od.m_foot}
        tol = 1e-9 * t.diameter
        for i in range(3):
            p1 = edge_point(t, s.generator[i].edge, s.generator[i].u)
            p2 = edge_point(t, s.generator[i + 3].edge, s.generator[i + 3].u)
            assert p1.dist(p2) <= tol
            assert min(p1.dist(f) for f in feet) <= tol
        assert is_k_periodic(s, 3)


# Two thin near-right triangles whose float unfolding is far from exact:
# its points lie up to 5.4e7 eps diam off on the first, and on the second
# (angle B 2.6e-9 rad) its direction meets two mirrors at a sine of 5e-17.
# The channel stops read neither the unfolding's points nor a crossing:
# both give a schedule at every lambda, within CHANNEL_N eps diam of the
# exact channel (measured 0.44 and 0.02).
THIN_NEAR_RIGHT = (
    Triangle(Point(0.6371651029824486, -0.7707273392979941), Point(0.0, 0.0),
             Point(0.6371650848392733, -0.7707273542970703)),
    Triangle(Point(-2.491462513711181, -1.9120268668496627), Point(-2.8818586721283, -1.2632582850378604),
             Point(-2.4914625153875947, -1.9120268678584438)),
)


def test_sub_orthic_schedule_on_thin_near_right_triangles():
    for t in THIN_NEAR_RIGHT:
        for i in range(41):
            lam = -1.0 + i / 20.0
            assert len(sub_orthic_schedule(t, lam).generator) == 6
            assert channel_error(t, lam) <= CHANNEL_N, (t, lam)


def test_sub_orthic_schedule_on_thin_draws():
    # Labeled by float side lengths, 23 of these draws sorted their sides
    # apart from the exact order, and the closed-form stops left [0, 1] in
    # 85 of these 11,935 schedules (up to u = 1.72); labeled by angle, none.
    for t in thin_triangles(random.Random(2), 2000):
        for lam in CHANNEL_LAMBDAS:
            assert len(sub_orthic_schedule(t, lam).generator) == 6


def isosceles_triangles(rng: random.Random, count: int) -> list[Triangle]:
    """count triangles with apex P and base vertices P + r (cos t, sin t)
    and P + r (cos(t + phi), sin(t + phi)), phi from 0.1 to 1 rad, so the
    two legs are the longest sides, each with its vertices in every order.
    A draw is kept where the float legs are exactly equal (about 3 in 5)."""
    out = []
    while len(out) < 6 * count:
        p = Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        r, theta, phi = rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.0)
        verts = [p] + [Point(p.x + r * math.cos(a), p.y + r * math.sin(a)) for a in (theta, theta + phi)]
        if verts[0].dist(verts[1]) == verts[0].dist(verts[2]):
            out += [Triangle(*[verts[i] for i in order]) for order in permutations(range(3))]
    return out


def test_isosceles_channel_boundaries_snap_to_the_vertices():
    # With the two longest sides equal, the boundary through A (and the one
    # through A1) also passes through B, exactly: at lambda = +-1 two stops
    # are A and two are B.  The stops at B are sums that round a few ulps
    # off 0 and 1 (1.0000000000000002 leaves [0, 1]); VERTEX_SNAP makes
    # them the vertex.
    for t in isosceles_triangles(random.Random(31), 40):
        sides = sorted(t.side_lengths)
        assert sides[1] == sides[2]
        for lam in (-1.0, 1.0):
            s = sub_orthic_schedule(t, lam)
            assert sum(p.u in (0.0, 1.0) for p in s.generator) == 4, (t, lam)


def test_sub_orthic_is_cyclic_6_periodic(rng):
    for _ in range(30):
        t = random_acute_triangle(rng)
        lam = rng.uniform(-1, 1)
        s = sub_orthic_schedule(t, lam)
        assert len(s.generator) == 6
        assert is_cyclic(s)
        assert is_k_periodic(s, 6)
        if abs(lam) > 0.05:
            assert not is_k_periodic(s, 3)


def test_sub_orthic_boundaries_touch_vertex(rng):
    # The channel boundaries pass through A and through A1; folded back,
    # both touch the vertex opposite the longest edge.
    for _ in range(30):
        t = random_acute_triangle(rng)
        ch = reflection_chain(t)
        vertex = ch.copies[0].a
        for lam in (-1.0, 1.0):
            s = sub_orthic_schedule(t, lam)
            pos = [edge_point(t, p.edge, p.u) for p in s.generator]
            assert min(p.dist(vertex) for p in pos) <= 1e-8 * t.diameter
        mid = sub_orthic_schedule(t, 0.5)
        pos = [edge_point(t, p.edge, p.u) for p in mid.generator]
        assert min(p.dist(vertex) for p in pos) > 1e-6 * t.diameter


def test_sub_orthic_segments_parallel_to_orthic_sides(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        od = orthic_triangle(t)
        sides = [
            od.m_foot - od.k_foot,
            od.l_foot - od.m_foot,
            od.k_foot - od.l_foot,
        ]
        lam = rng.uniform(-0.95, 0.95)
        s = sub_orthic_schedule(t, lam)
        pos = [edge_point(t, p.edge, p.u) for p in s.generator]
        matches = [0, 0, 0]
        for i in range(6):
            seg = pos[(i + 1) % 6] - pos[i]
            # opposite segments are parallel to each other ...
            opp = pos[(i + 4) % 6] - pos[(i + 3) % 6]
            assert abs(seg.cross(opp)) <= 1e-9 * t.diameter**2
            # ... and each is parallel to one orthic side
            js = [
                j
                for j, sd in enumerate(sides)
                if abs(seg.cross(sd)) / (seg.norm() * sd.norm() + 1e-30) <= 1e-8
            ]
            assert len(js) == 1
            matches[js[0]] += 1
        assert matches == [2, 2, 2]


def test_sub_orthic_gap2_is_twice_orthic_perimeter(rng):
    for _ in range(40):
        t = random_acute_triangle(rng)
        per2 = 2 * orthic_perimeter(t)
        lam = rng.uniform(-1, 1)
        s = sub_orthic_schedule(t, lam)
        assert gap_report(s, 2).overall == pytest.approx(per2, rel=1e-10)


def test_sub_orthic_pairwise_gap_minimized_at_orthic(rng):
    for _ in range(30):
        t = random_acute_triangle(rng)
        base = pairwise_gap(sub_orthic_schedule(t, 0.0))
        for lam in (-1.0, -0.6, -0.2, 0.2, 0.6, 1.0):
            assert pairwise_gap(sub_orthic_schedule(t, lam)) >= base - 1e-10


# sub_orthic_schedule's 1-gap and 2-gap lie within GAP_N eps diam of their
# closed forms at each of GAP_LAMBDAS.  Measured over the 300 triangles here:
# 7.10 (1-gap) and 12.9 (2-gap); over three other seeds' 300, at most 10.9
# and 13.9.
GAP_N = 16
GAP_LAMBDAS = (-1.0, -0.3, 0.6, 1.0)


def test_sub_orthic_gaps_match_their_closed_forms(rng):
    """gap1 = P + 2 |lambda| H cot C and gap2 = 2P, P the orthic
    perimeter, H the channel's half width and C the smallest angle
    (sub_orthic_schedule's docstring derives both)."""
    errors = {}
    for i in range(300):
        t = random_acute_triangle(rng)
        per, width = orthic_perimeter(t), reflection_chain(t).half_width
        cot_c = 1.0 / math.tan(min(angles(t)))
        unit = 2.0**-52 * t.diameter
        for lam in GAP_LAMBDAS:
            s = sub_orthic_schedule(t, lam)
            gap1 = per + 2.0 * abs(lam) * width * cot_c
            errors[i, lam, 1] = abs(gap_report(s, 1).overall - gap1) / unit
            errors[i, lam, 2] = abs(gap_report(s, 2).overall - 2.0 * per) / unit
    assert {key: e for key, e in errors.items() if e > GAP_N} == {}
    assert max(errors.values()) > GAP_N / 10


def test_sub_orthic_boundary_pairwise_strictly_larger(equilateral):
    base = pairwise_gap(sub_orthic_schedule(equilateral, 0.0))
    assert base == pytest.approx(0.5, rel=1e-12)
    for lam in (-1.0, 1.0):
        assert pairwise_gap(sub_orthic_schedule(equilateral, lam)) > base + 0.1


def test_sub_orthic_parameters_are_affine_on_each_half(rng):
    """The flat face of the channel family: the channel line moves by a
    fixed offset per unit of lambda on each side of the orthic line, and
    meets each edge at a fixed angle, so each u_i(lambda) is affine on
    [-1, 0] and on [0, 1] (one line: the two half widths are equal)."""
    for _ in range(40):
        t = random_acute_triangle(rng)
        mid = sub_orthic_schedule(t, 0.0).generator
        for side in (-1.0, 1.0):
            end = sub_orthic_schedule(t, side).generator
            for i in range(11):
                frac = i / 10.0
                gen = sub_orthic_schedule(t, side * frac).generator
                assert [p.edge for p in gen] == [p.edge for p in mid] == [p.edge for p in end]
                for p, p0, p1 in zip(gen, mid, end):
                    assert abs(p.u - (p0.u + frac * (p1.u - p0.u))) <= 1e-12


def test_sub_orthic_lambda_out_of_range(equilateral):
    with pytest.raises(OutsideChannel):
        sub_orthic_schedule(equilateral, 1.5)
    with pytest.raises(OutsideChannel):
        sub_orthic_schedule(equilateral, -1.0000001)


def test_unfolding_built_once_per_triangle(builds):
    # A sweep over lambda and the v_k rows compute the channel's numbers
    # once and build no unfolding; only reflection_chain builds one.
    t = acute_triangle()
    for i in range(21):
        sub_orthic_schedule(t, -1.0 + i / 10.0)
    lower_bound_profile(t, 20)
    assert builds == {"unfoldings": 0, "channels": 1, "relabels": 1, "feet": 0, "angles": 1}
    reflection_chain(t)
    assert builds == {"unfoldings": 1, "channels": 1, "relabels": 1, "feet": 0, "angles": 1}


@pytest.mark.parametrize("dx", [0.0, 1e6], ids=["own-frame", "moved"])
def test_channel_calls_compute_angles_and_channel_numbers_once(builds, dx):
    # Every call the benchmark's channel op makes on one triangle: the
    # angles are computed once, on the frame, and kept on the frame and on
    # t; the channel's numbers once, kept on t; the relabeled base and the
    # altitude feet once each, kept on the frame.
    t = acute_triangle(dx=dx)
    orthic_triangle(t)
    reflection_chain(t)
    for i in range(21):
        s = sub_orthic_schedule(t, -1.0 + i / 10.0)
        gap_report(s, 1)
        gap_report(s, 2)
    lower_bound_profile(t, 100)
    for direction in ("cw", "ccw"):
        greedy_run(t, 0.3, 600, direction)
    greedy_limit_gap(t)
    orthic_perimeter(t)
    assert builds == {"unfoldings": 1, "channels": 1, "relabels": 1, "feet": 1, "angles": 1}


def test_unfolding_copies_leave_the_memo_alone(builds):
    # A moved triangle: its unfolding is built on the local frame and placed
    # back once; copying or unpickling the record runs no build.
    t = acute_triangle(dx=1e6, scale=3.0)
    unf = reflection_chain(t)
    assert copy.copy(unf) == unf
    assert pickle.loads(pickle.dumps(unf)) == unf
    assert builds == {"unfoldings": 1, "channels": 0, "relabels": 1, "feet": 0, "angles": 1}


def test_unfolding_interleaved_triangles_match_fresh_builds(rng):
    t1, t2 = random_acute_triangle(rng), random_acute_triangle(rng)

    def results(t):
        return (
            reflection_chain(t),
            [sub_orthic_schedule(t, lam).generator for lam in (-1.0, -0.3, 0.0, 0.6, 1.0)],
            lower_bound_profile(t, 10),
        )

    got = [results(t) for t in (t1, t2, t1)]
    fresh = [results(Triangle(*t.vertices)) for t in (t1, t2, t1)]
    assert got == fresh


def test_unfolding_equal_but_distinct_triangle_gets_its_own_chain(builds):
    # The two triangles compare equal (0.0 == -0.0) but are different inputs.
    pos = acute_triangle()
    neg = Triangle(Point(-0.0, 0.0), *pos.vertices[1:])
    assert pos == neg
    assert sub_orthic_schedule(pos, 0.5) == sub_orthic_schedule(neg, 0.5)
    assert builds == {"unfoldings": 0, "channels": 2, "relabels": 2, "feet": 0, "angles": 2}
    chain = reflection_chain(neg)
    assert any(math.copysign(1.0, v.x) < 0.0 for v in chain.copies[0].vertices)


def test_interleaved_triangles_compute_their_channel_numbers_once_each(builds, rng):
    # Each triangle keeps its own numbers, so t1, t2, t1, t2 through the
    # schedules and the v_k rows compute them twice, where a memo of the
    # last triangle alone computes them four times.
    t1, t2 = random_acute_triangle(rng), random_acute_triangle(rng)
    for t in (t1, t2, t1, t2):
        sub_orthic_schedule(t, 0.5)
        lower_bound_profile(t, 10)
    assert builds == {"unfoldings": 0, "channels": 2, "relabels": 2, "feet": 0, "angles": 2}


@pytest.mark.parametrize("dx", [0.0, 1e6], ids=["own-frame", "moved"])
def test_channel_report_relabels_once(builds, dx):
    # The channel command's two constructions share one relabeled base.
    t = acute_triangle(dx=dx)
    reflection_chain(t)
    sub_orthic_schedule(t, 0.3)
    assert builds == {"unfoldings": 1, "channels": 1, "relabels": 1, "feet": 0, "angles": 1}


@pytest.mark.parametrize("dx", [0.0, 1e6], ids=["own-frame", "moved"])
def test_orthic_report_computes_the_feet_once(builds, dx):
    # The orthic command's feet and schedule share one computation of the feet.
    t = acute_triangle(dx=dx)
    orthic_triangle(t)
    orthic_schedule(t)
    assert builds == {"unfoldings": 0, "channels": 0, "relabels": 0, "feet": 1, "angles": 1}


def test_unfolding_failed_build_raises_on_every_call():
    # On the local frame no acute triangle fails the build (moved by 1e7,
    # this one failed its B2C2 check); a right triangle fails its first
    # check, on every call.
    assert reflection_chain(acute_triangle(dx=1e7)).copies
    for _ in range(2):
        with pytest.raises(NotAcute, match="not acutely below"):
            reflection_chain(RIGHT_ISO)
        with pytest.raises(NotAcute, match="not acutely below"):
            sub_orthic_schedule(RIGHT_ISO, 0.5)
        with pytest.raises(NotAcute, match="not acutely below"):
            lower_bound_profile(RIGHT_ISO, 5)


def test_unfolding_is_built_on_the_local_frame_and_placed_back(rng):
    # Its base vertices are the caller's own; every other point is the
    # local unfolding's, placed back; unit vectors and edge parameters are
    # the local ones.
    t = acute_triangle(dx=1e6, scale=3.0)
    local, origin, scale = local_frame(t)
    unf, there = reflection_chain(t), reflection_chain(local)
    assert all(a is b for a, b in zip(sorted(unf.copies[0].vertices, key=id), sorted(t.vertices, key=id)))

    def points(u):  # C1, B1, A1, C2, B2 and the seven feet
        c = u.copies
        return (c[1].c, c[2].b, c[3].a, c[4].c, c[5].b, u.k, u.m, u.l1, u.k1, u.m1, u.l2, u.k2)

    for p, q in zip(points(unf), points(there), strict=True):
        assert p == Point(origin.x + q.x * scale, origin.y + q.y * scale)
    assert unf.direction == there.direction
    assert unf.half_width == there.half_width * scale
    # Each copy keeps the points it shares with the one before.
    assert unf.copies[5].vertices == (unf.copies[3].a, unf.copies[5].b, unf.copies[4].c)
    for lam in (-1.0, -0.4, 0.0, 0.7, 1.0):
        assert sub_orthic_schedule(t, lam).generator == sub_orthic_schedule(local, lam).generator
    # A triangle that is its own frame is built as given: its signed zeros stay.
    flat = Triangle(Point(-0.0, -0.0), Point(1.0, -0.0), Point(0.45, 0.8))
    assert local_frame(flat)[0] is flat
    assert all(math.copysign(1.0, z) < 0.0 for z in (flat.a.x, flat.a.y, reflection_chain(flat).copies[0].c.y))


@pytest.mark.parametrize("pushed", ["bottom", "top"])
def test_channel_check_is_tight_at_each_boundary(pushed):
    """The channel is the widest strip the copies allow, exactly: some copy
    has no vertex beyond A's side of the parallel through A, and some copy
    none beyond A1's side of the parallel through A1, so either boundary
    moved outward misses a copy (tests/reference_exact.py, every triangle
    of the exact suite)."""
    for label, u in UNFOLDINGS:
        if pushed == "top":
            assert min(max(o) for o in u.offsets) == u.offset(u.copies[0][0]), label
        else:
            assert max(min(o) for o in u.offsets) == u.offset(u.a1), label


@pytest.mark.parametrize("scale", [1e-12, 1e-14, 1e-100])
def test_reports_scale_linearly_with_tiny_sides(scale):
    unit, tiny = acute_triangle(), acute_triangle(scale=scale)
    assert orthic_triangle(tiny).perimeter / scale == pytest.approx(
        orthic_triangle(unit).perimeter, rel=1e-12
    )
    for lam in (-1.0, 0.0, 0.5):
        assert gap_report(sub_orthic_schedule(tiny, lam), 2).overall / scale == pytest.approx(
            gap_report(sub_orthic_schedule(unit, lam), 2).overall, rel=1e-12
        )
    rows = zip(lower_bound_profile(tiny, 30), lower_bound_profile(unit, 30))
    for (_, tiny_vk_over_k, _), (_, unit_vk_over_k, _) in rows:
        assert tiny_vk_over_k / scale == pytest.approx(unit_vk_over_k, rel=1e-12)

import math
import random

import pytest

import reference_channel
from tripatrol.geom import (
    EdgeId,
    NotAcute,
    Point,
    Triangle,
    angles,
    edge_frame,
    edge_point,
    foot_on_edge,
    local_frame,
)
from tripatrol.greedy import (
    _CYCLES,
    _ratio_formula,
    greedy_limit_gap,
    greedy_ratio,
    greedy_ratio_extremes,
    greedy_run,
    recurrence_constants,
)
from conftest import FOOT_EPS, near_right_triangles, random_acute_triangle, thin_triangles
from test_reference_channel import walk_error

SQRT3 = math.sqrt(3.0)


def test_equilateral_constants(equilateral):
    tr = greedy_run(equilateral, 0.1, 300, "cw")
    assert tr.c == pytest.approx(0.75, abs=1e-12)
    assert tr.x == pytest.approx(0.125, abs=1e-12)
    assert tr.fixed_point == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert tr.limit_gap == pytest.approx(SQRT3, rel=1e-12)
    assert tr.converged


def test_start_at_fixed_point_is_stationary(equilateral):
    tr = greedy_run(equilateral, 2.0 / 3.0, 50, "cw")
    assert all(abs(d - 2.0 / 3.0) < 1e-12 for d in tr.iterates)
    assert tr.iterations_to_converge == 1


def test_cw_ccw_same_limit_gap(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        cw = greedy_run(t, 0.3, 400, "cw")
        ccw = greedy_run(t, 0.3, 400, "ccw")
        assert cw.limit_gap == pytest.approx(ccw.limit_gap, rel=1e-10)


def test_recurrence_is_exact(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        direction = rng.choice(["cw", "ccw"])
        tr = greedy_run(t, rng.random(), 300, direction)
        for d_prev, d_next in zip(tr.iterates, tr.iterates[1:]):
            assert abs(d_next - (tr.c - tr.x * d_prev)) <= 1e-12


def test_geometric_contraction_factor(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        tr = greedy_run(t, 0.02, 400, "cw")
        d_star = tr.fixed_point
        for d_prev, d_next in zip(tr.iterates, tr.iterates[1:]):
            if abs(d_prev - d_star) > 1e-6:
                ratio = abs(d_next - d_star) / abs(d_prev - d_star)
                assert ratio == pytest.approx(abs(tr.x), abs=1e-9)


def test_contraction_bound(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        _, x = recurrence_constants(t)
        assert abs(x) < 1.0


def test_limit_triangle_similar_to_input(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        tr = greedy_run(t, 0.4, 400, "cw")
        d = tr.limit_schedule.position(0)
        e = tr.limit_schedule.position(1)
        f = tr.limit_schedule.position(2)
        a_ang, b_ang, c_ang = angles(t)
        got = angles(Triangle(d, e, f))
        assert got[0] == pytest.approx(b_ang, abs=1e-9)
        assert got[1] == pytest.approx(a_ang, abs=1e-9)
        assert got[2] == pytest.approx(c_ang, abs=1e-9)
        k = (
            math.sin(a_ang) * math.sin(b_ang) * math.sin(c_ang)
            / (1.0 + math.cos(a_ang) * math.cos(b_ang) * math.cos(c_ang))
        )
        assert tr.limit_gap / t.perimeter == pytest.approx(k, rel=1e-10)


def test_limit_gap_formula_vs_simulation(rng):
    for _ in range(200):
        t = random_acute_triangle(rng)
        tr = greedy_run(t, rng.random(), 500, "cw")
        assert tr.limit_gap == pytest.approx(greedy_limit_gap(t), rel=1e-9)


def test_limit_gap_equilateral(equilateral):
    # 3 * (sqrt3/2)^3 / (1 + 1/8) = sqrt(3)
    assert greedy_limit_gap(equilateral) == pytest.approx(SQRT3, rel=1e-12)


def test_limit_gap_scale_invariance(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        s = rng.uniform(0.1, 10)
        scaled = Triangle(*[Point(s * v.x, s * v.y) for v in t.vertices])
        assert greedy_limit_gap(scaled) == pytest.approx(s * greedy_limit_gap(t), rel=1e-12)


def test_greedy_requires_acute():
    with pytest.raises(NotAcute):
        greedy_run(Triangle(Point(0.5, 0.5), Point(0, 0), Point(1, 0)), 0.3)


def test_greedy_bad_args(equilateral):
    with pytest.raises(ValueError):
        greedy_run(equilateral, 1.5)
    with pytest.raises(ValueError):
        greedy_run(equilateral, 0.5, 0)
    with pytest.raises(ValueError):
        greedy_run(equilateral, 0.5, 10, "widdershins")


def test_ratio_landmarks():
    assert greedy_ratio((math.pi / 3, math.pi / 3, math.pi / 3)) == pytest.approx(
        2 * SQRT3 / 3, abs=1e-12
    )
    assert greedy_ratio((math.pi / 4, math.pi / 4, math.pi / 2)) == pytest.approx(
        (1 + math.sqrt(2)) / 2, abs=1e-12
    )


def test_ratio_tends_to_one_at_degenerate_corner():
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        val = greedy_ratio((eps, math.pi / 2 - eps, math.pi / 2))
        assert val > 1.0 - 1e-12
        if prev is not None:
            assert val < prev
        prev = val
    assert prev == pytest.approx(1.0, abs=1e-5)


def test_ratio_domain_checks():
    with pytest.raises(ValueError):
        greedy_ratio((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        greedy_ratio((0.2, 0.2, math.pi - 0.4))
    # Every comparison with NaN is false, so a NaN once passed both checks.
    for bad in ((math.nan, 1.0, 1.0), (0.5, math.nan, 1.0)):
        with pytest.raises(ValueError):
            greedy_ratio(bad)


def test_ratio_matches_gap_quotient(rng):
    for _ in range(100):
        t = random_acute_triangle(rng)
        from tripatrol.orthic import orthic_perimeter

        want = greedy_limit_gap(t) / orthic_perimeter(t)
        assert greedy_ratio(tuple(angles(t))) == pytest.approx(want, rel=1e-10)


def test_ratio_extremes_grid():
    fmax, fmin, argmax, argmin = greedy_ratio_extremes(500)
    assert fmax == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-4)
    h = (math.pi / 2) / 500
    assert abs(argmax[0] - math.pi / 4) <= 2 * h
    assert abs(argmax[1] - math.pi / 4) <= 2 * h
    assert abs(argmax[2] - math.pi / 2) <= 4 * h
    # The infimum is approached at the degenerate corners.
    assert 1.0 - 1e-12 <= fmin <= 1.0 + 4 * h


def test_ratio_bounds_on_admissible_grid():
    fmax, fmin, _, _ = greedy_ratio_extremes(120)
    assert fmin >= 1.0 - 1e-9
    assert fmax <= (1 + math.sqrt(2)) / 2 + 1e-9
    with pytest.raises(ValueError):
        greedy_ratio_extremes(50)
    # numpy's arange took 100.5, and the argmax of that grid had B > pi/2.
    with pytest.raises(ValueError, match="integer"):
        greedy_ratio_extremes(100.5)


@pytest.mark.parametrize("grid_n", [100, 120, 400, 500])
def test_ratio_extremes_equal_the_numpy_landscape(grid_n):
    """The math loop visits the numpy grid's cells in its row order and
    returns the same four values, bit for bit."""
    assert greedy_ratio_extremes(grid_n) == reference_channel.greedy_ratio_extremes(grid_n)


def test_equilateral_is_interior_stationary_point():
    third = math.pi / 3
    assert greedy_ratio((third, third, third)) == pytest.approx(2 * SQRT3 / 3, abs=1e-12)
    # Central differences along the constraint plane vanish.
    h = 1e-6
    for d in ((1.0, -1.0, 0.0), (1.0, 0.0, -1.0)):
        hi = greedy_ratio(tuple(third + h * x for x in d))
        lo = greedy_ratio(tuple(third - h * x for x in d))
        assert abs(hi - lo) / (2 * h) < 1e-6


def test_boundary_face_reduces_to_inverse_sine():
    # On the A = 0 face the ratio collapses to 1 / sin(C); its maximum over
    # C in [pi/3, pi/2) is 2*sqrt(3)/3 at C = pi/3.
    step = (math.pi / 2 - 1e-9 - math.pi / 3) / 499
    cs = [math.pi / 3 + i * step for i in range(500)]
    vals = [_ratio_formula(0.0, math.pi - c, c) for c in cs]
    assert max(abs(v - 1.0 / math.sin(c)) for v, c in zip(vals, cs)) < 1e-12
    assert max(vals) == pytest.approx(2 * SQRT3 / 3, abs=1e-9)
    assert vals.index(max(vals)) == 0


def test_greedy_settles_far_from_the_origin():
    # The channel benchmark's moved triangles, drawn as it draws them (a
    # triangle, then a start on BC) and moved by 1e6: the walk runs on the
    # local frame and settles as the unmoved one does.  The third once ran
    # all 600 cycles both ways.
    rng = random.Random(0)
    for _ in range(8):
        t = random_acute_triangle(rng)
        start = rng.uniform(0.05, 0.95)
        moved = Triangle(*(Point(v.x + 1e6, v.y + 1e6) for v in t.vertices))
        for direction in ("cw", "ccw"):
            run = greedy_run(moved, start, 600, direction)
            assert run.converged and run.iterations_to_converge <= 20
            assert run.limit_gap == pytest.approx(greedy_limit_gap(t), rel=1e-9)


def test_greedy_runs_on_thin_triangles():
    # On the short edge AC, rounding puts a foot's raw parameter up to 1.2e-8
    # outside [0, 1], and the fixed point c/(1+x) can round above 1: the
    # walk and the limit cycle clamp both, so every acute triangle gets its
    # cycle, and each stop lies near the exact walk's.
    thin = thin_triangles(random.Random(27), 300)
    assert len(thin) > 200
    for t in thin:
        for direction in ("cw", "ccw"):
            run = greedy_run(t, 0.25, 200, direction)
            # The prototype's worst was 1.95e-8; 1.84e-8 over 8,400 of these.
            assert run.limit_gap == pytest.approx(greedy_limit_gap(t), rel=1e-7)
            # On t itself: its frame is an exact translate and scaling.
            assert walk_error(t, run) <= FOOT_EPS, (t, direction)


def test_limit_cycle_closes_onto_its_fixed_point(rng):
    # _limit_schedule takes the two steps it reports from the fixed point
    # c/(1+x); the third, back onto BC, lands on the start.  Measured at most
    # 2.6 eps * diameter on 2,000 generic triangles, 3.8 on 2,564 thin, 3.4
    # on 1,000 near right and 2.5 on 1,000 moved by 1e12, both directions.
    eps = 2.0**-52
    generic = [random_acute_triangle(rng) for _ in range(40)]
    moved = [Triangle(*[Point(v.x + 1e12, v.y + 1e12) for v in t.vertices]) for t in generic[:20]]
    near_right = [t for _, t in near_right_triangles(random.Random(3), 40)]
    for t in generic + thin_triangles(random.Random(27), 200) + near_right + moved:
        local = local_frame(t)[0]
        for direction, cycle in _CYCLES.items():
            start = edge_point(local, EdgeId.A, greedy_run(t, 0.5, 1, direction).fixed_point)
            x, y = start.x, start.y
            for e in cycle:
                x, y, _ = foot_on_edge(x, y, *edge_frame(*local.edges[e]))
            assert math.hypot(x - start.x, y - start.y) <= FOOT_EPS * eps * local.diameter, (t, direction)


def test_limit_cycle_clamps_a_fixed_point_rounded_above_one():
    # Angle B is 7.8e-9 rad and AC is 7.8e-9 diameters long: the fixed point
    # c/(1+x) rounds to 1 + 2^-52.  The trace keeps that closed form; the
    # limit cycle starts at the vertex C.
    t = Triangle(
        Point(3.093013915764694, 1.1045671530825059),
        Point(4.480577485588302, 2.52264103881799),
        Point(3.0930139046465754, 1.1045671639614145),
    )
    run = greedy_run(t, 0.25, 200, "ccw")
    assert run.fixed_point == 1.0 + 2.0**-52
    assert run.limit_schedule.generator[0].u == 1.0
    assert run.limit_gap == pytest.approx(greedy_limit_gap(t), rel=1e-7)

"""Acceptance gate: one test per criterion, each printed as a PASS line with
its stated tolerance once the assertions hold (run with -s to see them).

Random triangles are produced by the conftest sampler with all angles
bounded away from 0 and pi/2.  Criteria 1-2 use a 0.25 rad bound: the
argmin-location check needs the perimeter's curvature at the optimum to be
well conditioned, which degrades as the triangle approaches a right or a
degenerate one.  The other suites use the default 0.08 rad bound.

Criterion 5 note: v_k/k is a lower bound that approaches 2*P from below
(v_1 <= 2*P already), so the monotonicity that can hold is that the
deviation |v_k/k - 2*P| is non-increasing, i.e. the sequence approaches its
limit monotonically; that is what is asserted, together with the final
deviation being inside the reported parallelogram bound.
"""

import json
import math
import pathlib
import random
import time
import xml.etree.ElementTree as ET

import pytest

from tripatrol.greedy import greedy_limit_gap, greedy_ratio, greedy_ratio_extremes, greedy_run
from tripatrol.orthic import (
    lower_bound_profile,
    orthic_perimeter,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
)
from tripatrol.schedule import cyclic_reduction, gap_report, is_cyclic, pairwise_gap
from tripatrol.search import grid_search_3periodic, grid_search_6periodic_gap2
from conftest import random_acute_triangle
from make_goldens import invocations, run_case, EQ_SCHEDULE, RI_SCHEDULE
from test_schedule import plant_window
from test_search import orthic_feet_params

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _pass(num: int, msg: str, t0: float) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS ({time.time() - t0:.1f}s): {msg}")


def suite(seed: int, n: int, margin: float = 0.08):
    rng = random.Random(seed)
    return [random_acute_triangle(rng, margin) for _ in range(n)]


def test_criterion_01_orthic_optimality_by_grid():
    t0 = time.time()
    grid_n = 200
    for t in suite(101, 1000, margin=0.25):
        res = grid_search_3periodic(t, grid_n)
        od = orthic_triangle(t)
        tol = 6.0 * t.diameter / grid_n
        assert res.certified_tolerance == pytest.approx(tol, rel=1e-12)
        assert abs(res.best_value - od.perimeter) <= tol
        for got, want in zip(res.best_params, orthic_feet_params(t)):
            assert abs(got - want) <= 2.0 / grid_n
    _pass(1, "grid minimum and argmin match the orthic triangle, 1000 triangles", t0)


def test_criterion_02_orthic_perimeter_formula():
    t0 = time.time()
    for t in suite(101, 1000, margin=0.25):
        od = orthic_triangle(t)
        coord = (
            od.k_foot.dist(od.l_foot)
            + od.l_foot.dist(od.m_foot)
            + od.m_foot.dist(od.k_foot)
        )
        assert abs(coord - orthic_perimeter(t)) <= 1e-10 * coord
    _pass(2, "coordinate vs closed-form perimeter within 1e-10 relative", t0)


def test_criterion_03_collinearity_and_parallelism():
    t0 = time.time()
    for t in suite(103, 1000):
        ch = reflection_chain(t)
        scale2 = t.diameter**2
        pts = [ch.k, ch.m, ch.l1, ch.k1, ch.m1, ch.l2, ch.k2]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    det = abs((pts[j] - pts[i]).cross(pts[k] - pts[i]))
                    assert det <= 1e-9 * scale2
        base, last = ch.copies[0], ch.copies[-1]
        d0, d5 = base.c - base.b, last.c - last.b
        ang = math.asin(
            min(1.0, abs(d0.cross(d5)) / (d0.norm() * d5.norm()))
        )
        assert ang <= 1e-10
    _pass(3, "orthic-line collinearity <= 1e-9*scale^2, parallelism <= 1e-10 rad", t0)


def test_criterion_04_two_gap_optimality():
    t0 = time.time()
    lams = [i / 10.0 for i in range(-10, 11)]
    for t in suite(104, 50):
        per2 = 2.0 * orthic_perimeter(t)
        for lam in lams:
            s = sub_orthic_schedule(t, lam)
            assert is_cyclic(s)
            g2 = gap_report(s, 2).overall
            assert abs(g2 - per2) <= 1e-9 * per2
        res = grid_search_6periodic_gap2(t, 8)
        assert res.best_value >= per2 - res.certified_tolerance
    _pass(4, "G2 = 2*orthic perimeter across the channel; grid finds nothing below", t0)


def test_criterion_05_lower_bound_sequence():
    t0 = time.time()
    for t in suite(105, 50):
        per2 = 2.0 * orthic_perimeter(t)
        rows = lower_bound_profile(t, 100)
        devs = [abs(per2 - vk_k) for _, vk_k, _ in rows]
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-12 * per2  # monotone approach to the limit
        assert all(vk_k <= per2 + 1e-12 * per2 for _, vk_k, _ in rows)
        assert devs[-1] <= rows[-1][2]  # within the reported parallelogram bound
    _pass(5, "v_k/k approaches 2*P monotonically; v_100/100 within reported bound", t0)


def test_criterion_06_multi_objective_optimality():
    t0 = time.time()
    lams = [i / 10.0 for i in range(-10, 11)]
    for t in suite(106, 50):
        base = pairwise_gap(sub_orthic_schedule(t, 0.0))
        for lam in lams:
            assert pairwise_gap(sub_orthic_schedule(t, lam)) >= base - 1e-10
    _pass(6, "pairwise gap over the channel is minimized by the orthic orbit", t0)


def test_criterion_07_greedy_convergence_and_cost():
    t0 = time.time()
    rng = random.Random(107)
    for t in suite(107, 1000):
        start = rng.uniform(0.0, 1.0)
        tr = greedy_run(t, start, 600, "cw")
        want = greedy_limit_gap(t)
        assert abs(tr.limit_gap - want) <= 1e-8 * want
        x = tr.x
        d_star = tr.fixed_point
        for d_prev, d_next in zip(tr.iterates, tr.iterates[1:]):
            if abs(d_prev - d_star) > 1e-6:
                assert abs(abs(d_next - d_star) / abs(d_prev - d_star) - abs(x)) <= 1e-9
        ccw = greedy_run(t, start, 600, "ccw")
        assert abs(ccw.limit_gap - tr.limit_gap) <= 1e-10 * tr.limit_gap
    _pass(7, "simulation matches the closed form; contraction |cosA cosB cosC|", t0)


def test_criterion_08_ratio_landmarks():
    t0 = time.time()
    assert greedy_ratio((math.pi / 3, math.pi / 3, math.pi / 3)) == pytest.approx(
        2.0 * math.sqrt(3.0) / 3.0, abs=1e-12
    )
    assert greedy_ratio((math.pi / 4, math.pi / 4, math.pi / 2)) == pytest.approx(
        (1.0 + math.sqrt(2.0)) / 2.0, abs=1e-12
    )
    fmax, fmin, argmax, _ = greedy_ratio_extremes(500)
    assert abs(fmax - 1.2071068) <= 1e-4
    h = (math.pi / 2) / 500
    assert abs(argmax[0] - math.pi / 4) <= 2 * h
    assert abs(argmax[1] - math.pi / 4) <= 2 * h
    assert 1.0 - 1e-12 <= fmin <= 1.0 + 4 * h  # corner values approach 1
    _pass(8, "f(pi/3)=2sqrt3/3, f(pi/4,pi/4,pi/2)=(1+sqrt2)/2, grid extremes agree", t0)


def test_criterion_09_cyclic_reduction_never_worse():
    t0 = time.time()
    rng = random.Random(109)
    for _ in range(10_000):
        t = random_acute_triangle(rng)
        prefix, window_travel = plant_window(rng, t)
        s = cyclic_reduction(prefix, t)
        assert gap_report(s, 1).overall <= window_travel + 1e-12 * t.diameter
    _pass(9, "reduced schedule 1-gap <= planted window travel time, 10^4 trials", t0)


def test_criterion_10_cli_determinism_and_schema(tmp_path):
    t0 = time.time()
    eq_sched = tmp_path / "eq_schedule.json"
    ri_sched = tmp_path / "ri_schedule.json"
    eq_sched.write_text(json.dumps(EQ_SCHEDULE))
    ri_sched.write_text(json.dumps(RI_SCHEDULE))
    for name, args in invocations(str(eq_sched), str(ri_sched)).items():
        code1, out1, svg1 = run_case(args, tmp_path)
        code2, out2, svg2 = run_case(args, tmp_path)
        assert (code1, out1, svg1) == (code2, out2, svg2)
        assert code1 == int((GOLDEN / f"{name}.exit").read_text())
        assert out1 == (GOLDEN / f"{name}.out").read_text()
        golden_svg = GOLDEN / f"{name}.svg"
        if golden_svg.exists():
            assert svg1 == golden_svg.read_bytes()
            ET.fromstring(svg1)  # valid XML
    _pass(10, "all subcommands byte-identical vs goldens; SVG parses as XML", t0)

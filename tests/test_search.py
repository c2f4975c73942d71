import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_search

from tripatrol.geom import EdgeId, Point, Triangle, edge_point, local_frame
from tripatrol.orthic import (
    lower_bound_profile,
    orthic_perimeter,
    orthic_schedule,
    sub_orthic_schedule,
    verify_1gap_optimality,
)
from tripatrol.schedule import Schedule, SchedulePoint, gap_report
from tripatrol import search
from tripatrol.search import GAP2_PATTERN, grid_search_3periodic, grid_search_6periodic_gap2
from conftest import SPECIAL_TRIANGLES, random_acute_triangle


def moved(t: Triangle, offset: float, scale: float = 1.0) -> Triangle:
    return Triangle(*[Point((v.x + offset) * scale, (v.y + offset) * scale) for v in t.vertices])


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hypot_calls(t: Triangle, grid_n: int) -> int:
    """The distance evaluations of grid_search_3periodic(t, grid_n), counted
    through the hypot its module calls."""
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return math.hypot(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "hypot", counted)
        grid_search_3periodic(t, grid_n)
    return calls


def walk(values: list[float], k: int, bound: float = math.inf, slack: float = math.inf):
    """search._run over a list of values, from cell k."""
    return search._run(values.__getitem__, k, len(values) - 1, bound, slack)


def orthic_feet_params(t: Triangle) -> list[float]:
    """The altitude feet's parameters on edges A, B and C, as orthic_schedule reports them."""
    u = {p.edge: p.u for p in orthic_schedule(t).generator}
    return [u[e] for e in EdgeId]


def evaluate_gap2_cycle(t: Triangle, params: list[float]) -> float:
    return Schedule(t, tuple(map(SchedulePoint, GAP2_PATTERN, params))).period_length()


def test_grid3_equilateral(equilateral):
    res = grid_search_3periodic(equilateral, 200)
    assert res.certified_tolerance == pytest.approx(6.0 / 200)
    assert res.best_value == pytest.approx(1.5, abs=0.02)
    for p in res.best_params:
        assert p == pytest.approx(0.5, abs=0.01)
    assert res.objective == "gap1"


def test_grid3_coarse_lower_bounded(equilateral):
    res = grid_search_3periodic(equilateral, 2)
    assert res.best_value >= orthic_perimeter(equilateral) - 1e-12


def test_grid3_brackets_orthic_perimeter(rng):
    for _ in range(25):
        t = random_acute_triangle(rng)
        res = grid_search_3periodic(t, 60)
        per = orthic_perimeter(t)
        assert res.best_value >= per - 1e-9 * per
        assert res.best_value <= per + res.certified_tolerance
        assert res.best_value >= 0
        assert all(0.0 <= u <= 1.0 for u in res.best_params)


def test_grid3_monotone_refinement(rng):
    for _ in range(10):
        t = random_acute_triangle(rng)
        coarse = grid_search_3periodic(t, 40)
        fine = grid_search_3periodic(t, 80)
        assert fine.best_value <= coarse.best_value + 1e-12


def test_grid3_deterministic(equilateral):
    r1 = grid_search_3periodic(equilateral, 50)
    r2 = grid_search_3periodic(equilateral, 50)
    assert r1 == r2


@pytest.mark.parametrize("k", [0, 3, 6, 9])
def test_run_walks_a_plateau_from_any_start(k):
    values = [9.0, 5.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0, 9.0]
    assert walk(values, k, bound=2.0) == (2, 7, 3, 1.0)
    assert walk(values, k, slack=0.5) == (3, 6, 3, 1.0)


@pytest.mark.parametrize("k", [0, 4, 8])
def test_run_keeps_exact_ties_at_both_ends(k):
    values = [16.0, 9.0, 4.0, 1.0, 0.0, 1.0, 4.0, 9.0, 16.0]
    assert walk(values, k, bound=4.0) == (2, 6, 4, 0.0)
    assert walk(values, k, bound=math.nextafter(4.0, 0.0)) == (3, 5, 4, 0.0)
    assert walk(values, k, slack=1.0) == (3, 5, 4, 0.0)


def test_run_descends_from_either_end_and_the_far_side():
    rising = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]
    for k in (0, 2, 5):  # from the least cell, from the slope, from the far end
        assert walk(rising, k, bound=1.0) == (0, 1, 0, 0.0)
        assert walk(rising[::-1], 5 - k, bound=1.0) == (4, 5, 5, 0.0)
    lo, hi, arg, least = walk(rising, 5, bound=-1.0)  # no cell within the bound
    assert lo > hi and (arg, least) == (0, 0.0)


def test_run_reaches_ties_across_one_ulp_noise():
    # Rounding makes a convex sequence wobble by an ulp.  The first least
    # value lies past a cell one ulp above it, from a start that is already
    # a local minimum (cell 4) or that descends into a dip (cell 0).
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    assert walk([3.0, up, 1.0, up, 1.0, up, 3.0], 4, slack=1e-12) == (1, 5, 2, 1.0)
    assert walk([3.0, 1.0, up, up, 1.0, 3.0], 4, slack=1e-12) == (1, 4, 1, 1.0)
    assert walk([3.0, 1.0, down, 1.0, 3.0], 0, slack=1e-12) == (1, 3, 2, down)
    # A new least found while extending rightward sets the threshold to
    # that least plus slack, so the cell an ulp or two above it still joins.
    assert walk([3.0, 1.0, 1.0, down, up, 3.0], 1, slack=1e-12) == (1, 4, 3, down)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
def test_grid_oracles_match_reference(rng, offset):
    # Pruning, stacking and batching must not change a single bit of the
    # result: value, parameters and tie-breaking.  The references run the
    # full cube and the plain loop on the same local frame, so they see the
    # same rounding-level gaps between the bounds and the totals at every
    # offset and scale, and the pruning margin is 1e-9 of the local
    # diameter whatever the offset or the scale (2^-300, 1e-100).
    triangles = [random_acute_triangle(rng) for _ in range(6)] + list(SPECIAL_TRIANGLES)
    for scale in (1.0, 2.0**-300, 2.0**300, 1e-100):
        some = triangles if scale == 1.0 else triangles[:2] + triangles[-4:]
        for t in some:
            t = moved(t, offset, scale)
            for n in (2, 3, 7, 50):
                assert grid_search_3periodic(t, n) == reference_search.grid_search_3periodic(t, n)
            for n in (2, 3, 7, 50) if scale == 1.0 else (2, 7):
                assert grid_search_6periodic_gap2(t, n) == reference_search.grid_search_6periodic_gap2(t, n)
        # The size the benchmark and the CLI default run, where the row bound
        # skips the most: a random, the equilateral and the thin triangle.
        for t in (triangles[0], triangles[6], triangles[9]):
            t = moved(t, offset, scale)
            assert grid_search_3periodic(t, 200) == reference_search.grid_search_3periodic(t, 200)


@pytest.mark.parametrize("per_block", [1, 2, 5])
def test_grid_oracles_match_reference_in_small_blocks(rng, monkeypatch, per_block):
    # A small _CHUNK gives grid6's min-plus products ragged batches of
    # per_block x rows (13 = 5 + 5 + 3 at n = 12).  The batches must change
    # no bit: each row of the half-path matrix is the same min over the
    # same sums, whichever batch computes it.
    triangles = [random_acute_triangle(rng) for _ in range(6)] + list(SPECIAL_TRIANGLES)
    for t in triangles:
        for n in (7, 12, 50):
            monkeypatch.setattr(search, "_CHUNK", per_block * (n + 1) ** 2)
            assert grid_search_6periodic_gap2(t, n) == reference_search.grid_search_6periodic_gap2(t, n)


@pytest.mark.parametrize("grid_n", [5, 7, 12, 50])
def test_grid_oracles_report_exact_grid_points(rng, grid_n):
    # Every reported parameter is the float nearest to i / grid_n, not
    # i * (1 / grid_n) as np.linspace computes it, which at grid_n = 12 is
    # one ulp off for i = 5, 7 and 10.
    triangles = [random_acute_triangle(rng) for _ in range(8)] + list(SPECIAL_TRIANGLES)
    for t in triangles:
        for search_fn in (grid_search_3periodic, grid_search_6periodic_gap2):
            for p in search_fn(t, grid_n).best_params:
                assert p == round(p * grid_n) / grid_n


def test_grid_oracles_agree_with_the_caller_frame_brute_force(rng):
    # An independent check of the frame: the same brute force run on t
    # itself, not on local_frame(t).  The frame is an exact translate of t,
    # but the brute force on t rounds its differences at the ulp of t's
    # coordinates, so best_value may move by a few ulps of their size; the
    # parameters may differ where grid totals tie within that.  Measured
    # over 160 random and the 4 special triangles at scales 1, 0.3, 7,
    # 2^-300, 2^300 and 1e-100: at most 2.0 * 2^-52 * size; the bound is 8.
    searches = (
        (grid_search_3periodic, reference_search.caller_frame_grid_search_3periodic, (2, 7, 50)),
        (grid_search_6periodic_gap2, reference_search.caller_frame_grid_search_6periodic_gap2, (2, 7)),
    )
    triangles = [random_acute_triangle(rng) for _ in range(8)] + list(SPECIAL_TRIANGLES)
    for scale in (1.0, 2.0**-300, 2.0**300, 1e-100):
        for t in triangles:
            t = moved(t, 0.0, scale)
            size = t.diameter + max(abs(x) for v in t.vertices for x in v.as_tuple())
            for search_fn, brute_force, sizes in searches:
                for n in sizes:
                    got, want = search_fn(t, n).best_value, brute_force(t, n).best_value
                    assert abs(got - want) <= 8 * 2.0**-52 * size


@st.composite
def similar_triangles(draw):
    """An acute triangle as in conftest.random_acute_triangle: angles at
    least 0.08 from 0 and pi/2, side 0.5 to 3, turned and moved by up to 5."""
    b_ang = draw(st.floats(0.17, math.pi / 2 - 0.08))
    c_ang = draw(st.floats(math.pi / 2 - b_ang + 0.08, math.pi / 2 - 0.08))
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    side = draw(st.floats(0.5, 3.0))
    c, s = math.cos(th := draw(st.floats(0.0, 2.0 * math.pi))), math.sin(th)
    dx, dy = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    pts = [(side * p, side * q), (0.0, 0.0), (side, 0.0)]
    return Triangle(*(Point(c * x - s * y + dx, s * x + c * y + dy) for x, y in pts))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(t=similar_triangles(), k=st.integers(-300, 300), grid_n=st.integers(2, 30))
def test_grid_oracles_scale_exactly_by_powers_of_two(t, k, grid_n):
    # t * 2^k has the same local frame as t, with its scale times 2^k.
    big = moved(t, 0.0, math.ldexp(1.0, k))
    for search_fn in (grid_search_3periodic, grid_search_6periodic_gap2):
        res, res_big = search_fn(t, grid_n), search_fn(big, grid_n)
        assert res_big.best_params == res.best_params
        assert res_big.best_value == math.ldexp(res.best_value, k)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    t=similar_triangles(),
    dx=st.floats(-1e12, 1e12),
    dy=st.floats(-1e12, 1e12),
    grid_n=st.integers(4, 60),
)
def test_grid_oracles_certify_moved_triangles(t, dx, dy, grid_n):
    # Criterion 01's certificates hold up to 1e12 diameters from the origin.
    far = Triangle(*(Point(v.x + dx * t.diameter, v.y + dy * t.diameter) for v in t.vertices))
    per = orthic_perimeter(far)
    res3 = grid_search_3periodic(far, grid_n)
    assert abs(res3.best_value - per) <= res3.certified_tolerance
    res6 = grid_search_6periodic_gap2(far, min(grid_n, 12))
    assert res6.best_value >= 2.0 * per - res6.certified_tolerance


@st.composite
def tie_prone_triangles(draw):
    """Random, isosceles and equilateral triangles on the base (-1, 0),
    (1, 0), turned by quarter turns (exact in floats) and maybe by a random
    angle, relabelled, and moved by 0, 1e6 or 1e9.  The symmetric ones give
    exact or ulp-level ties between grid totals."""
    shape = draw(st.sampled_from(["random", "isosceles", "equilateral"]))
    apex_x = draw(st.floats(-0.9, 0.9)) if shape == "random" else 0.0
    height = math.sqrt(3.0) if shape == "equilateral" else draw(st.floats(0.3, 3.0))
    pts = [(apex_x, height), (-1.0, 0.0), (1.0, 0.0)]
    for _ in range(draw(st.integers(0, 3))):
        pts = [(-y, x) for x, y in pts]
    if draw(st.booleans()):
        c, s = math.cos(th := draw(st.floats(0.0, 2.0 * math.pi))), math.sin(th)
        pts = [(c * x - s * y, s * x + c * y) for x, y in pts]
    offset = draw(st.sampled_from([0.0, 1e6, 1e9]))
    return Triangle(*(Point(x + offset, y + offset) for x, y in draw(st.permutations(pts))))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(t=tie_prone_triangles(), grid_n=st.integers(2, 40))
def test_grid_oracles_match_reference_on_tie_prone_triangles(t, grid_n):
    # The pair blocks and the recomputed backpointers break ties as the full
    # cube and the loop over pairs of BC cells do: first in row order.
    assert grid_search_3periodic(t, grid_n) == reference_search.grid_search_3periodic(t, grid_n)
    assert grid_search_6periodic_gap2(t, grid_n) == reference_search.grid_search_6periodic_gap2(t, grid_n)
    assert chain_error(t, grid_n) <= GRID6_CHAIN_N


# grid6 adds each half path's legs in turn and then the two halves; the
# chain reference adds all six legs in turn from the first stop.  Both are
# float evaluations of the same cycle lengths, so their grid minima lie a
# few roundings of a cycle length apart.  Measured: 2.48 eps diam over the
# random and special triangles of test_grid6_is_near_the_six_leg_fold, 2.0
# over 150 draws of tie_prone_triangles, and 3.29 over 512 others
# (random_acute_triangle(Random(7))) at n = 4, 8, 12 and 20.
GRID6_CHAIN_N = 8


def chain_error(t: Triangle, grid_n: int) -> float:
    """|grid6's best value - the six-leg fold's|, in eps diam."""
    got = grid_search_6periodic_gap2(t, grid_n).best_value
    want = reference_search.chain_grid_search_6periodic_gap2(t, grid_n).best_value
    return abs(got - want) / (2.0**-52 * t.diameter)


def test_grid6_is_near_the_six_leg_fold(rng):
    triangles = [random_acute_triangle(rng) for _ in range(40)] + list(SPECIAL_TRIANGLES)
    errors = {(i, n): chain_error(t, n) for i, t in enumerate(triangles) for n in (4, 8, 12, 20)}
    assert {key: e for key, e in errors.items() if e > GRID6_CHAIN_N} == {}
    assert max(errors.values()) > GRID6_CHAIN_N / 10


def test_grid6_cycle_starts_at_its_smaller_bc_cell(rng):
    # A cycle's two halves add to the same float either way round, so its
    # rotation by three stops ties with it, and the first in row order is
    # the one whose first BC cell is the smaller.
    triangles = [random_acute_triangle(rng) for _ in range(20)] + list(SPECIAL_TRIANGLES)
    for t in triangles:
        for n in (2, 3, 7, 12, 50):
            params = grid_search_6periodic_gap2(t, n).best_params
            assert params[0] <= params[3]


@st.composite
def non_acute_triangles(draw):
    """Triangles on the base (0, 0), (1, 0), turned by quarter turns and
    relabelled: obtuse at the apex (inside the circle on the base) or at a
    base vertex (apex beyond it), right at a base vertex (exactly) or at the
    apex (on the circle, to rounding), or thin (apex height 1e-6 to 1e-2)."""
    kind = draw(st.sampled_from(["obtuse apex", "obtuse base", "right base", "right apex", "thin"]))
    if kind in ("obtuse apex", "right apex"):
        th = draw(st.floats(0.1, math.pi - 0.1))
        r = 0.5 * (draw(st.floats(0.1, 0.95)) if kind == "obtuse apex" else 1.0)
        apex = (0.5 + r * math.cos(th), r * math.sin(th))
    elif kind == "obtuse base":
        apex = (draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.55, 2.5)) + 0.5, draw(st.floats(0.05, 2.0)))
    elif kind == "right base":
        apex = (draw(st.sampled_from([0.0, 1.0])), draw(st.floats(0.05, 3.0)))
    else:
        apex = (draw(st.floats(-0.5, 1.5)), draw(st.floats(1e-6, 1e-2)))
    pts = [apex, (0.0, 0.0), (1.0, 0.0)]
    for _ in range(draw(st.integers(0, 3))):
        pts = [(-y, x) for x, y in pts]
    return Triangle(*(Point(x, y) for x, y in draw(st.permutations(pts))))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(t=non_acute_triangles(), grid_n=st.integers(2, 30))
def test_grid3_matches_reference_on_non_acute_triangles(t, grid_n):
    # The bounds and the walks rest on convexity alone, which holds for any
    # triangle: obtuse and right ones, whose best cycle is degenerate, and
    # thin ones, whose rows are nearly flat.
    assert grid_search_3periodic(t, grid_n) == reference_search.grid_search_3periodic(t, grid_n)


@pytest.mark.parametrize("th", [0.1, 0.15, 0.2, 0.25, 0.3])
def test_grid3_takes_the_first_u2_of_a_flat_cycle(th):
    # A right angle at A, on the circle over BC, with a short leg AC.  At
    # many grid sizes the best grid cycle is then C, PB, A, whose length
    # 2|AC| is the same for every PB on AC, so the computed |C PB| + |PB A|
    # wobbles by an ulp along the edge.  The first u2 at its least value
    # lies past cells one ulp above it, which only the u2 walk's slack
    # crosses (with no slack, 32 of these 145 searches differ).
    t = Triangle(Point(0.5 + 0.5 * math.cos(th), 0.5 * math.sin(th)), Point(0.0, 0.0), Point(1.0, 0.0))
    for n in range(2, 31):
        assert grid_search_3periodic(t, n) == reference_search.grid_search_3periodic(t, n)


def test_grid3_is_within_ulps_of_the_numpy_hypot_cube(rng):
    # The search measures distances with math.hypot, the grid3 reference
    # too; np.hypot, which the search used before, rounds a little
    # differently.  Measured on these 200 triangles at n = 50 and 200: 3
    # of the 400 best values differ, each by 1 ulp, and no parameters.
    for _ in range(200):
        local = local_frame(random_acute_triangle(rng))[0]
        for n in (50, 200):
            got = grid_search_3periodic(local, n)
            least, cell, total = reference_search.numpy_hypot_cube_3periodic(
                local, n, got.best_value + 1e-9 * local.diameter
            )
            assert abs(got.best_value - least) <= 2 * math.ulp(least)
            got_cell = tuple(round(u * n) for u in got.best_params)
            if got_cell != cell:
                assert total(*got_cell) <= least + 4 * math.ulp(least)


# The most distance evaluations one grid3 call may make on the triangles of
# test_grid3_distance_evaluations_stay_bounded: twice the measured maximum,
# 238 at n = 200 and 114 at n = 4728, where the Fagnano bound keeps a run of
# 9 to 14 rows; the median is 16.  A walk that degraded to O(n) cells per
# row or pair would pass it at n = 4728.
GRID3_MAX_HYPOT_CALLS = 476


@pytest.mark.parametrize("grid_n", [200, 4728])  # 4728: the largest grid the search accepts
def test_grid3_distance_evaluations_stay_bounded(rng, grid_n):
    for _ in range(64):
        assert hypot_calls(random_acute_triangle(rng), grid_n) <= GRID3_MAX_HYPOT_CALLS


def test_segment_mirrors_closed_form_coordinates():
    # A at the origin and B = (1, 0): reflecting B across AC lands at
    # (cos 2A, sin 2A), and reflecting C across AB flips its height.
    a_ang = 0.6
    c = Point(0.9 * math.cos(a_ang), 0.9 * math.sin(a_ang))
    *_, (rx, ry, _, _), (bx, by, qdx, qdy) = search._segments(Triangle(Point(0, 0), Point(1, 0), c))
    assert math.hypot(rx - math.cos(2 * a_ang), ry - math.sin(2 * a_ang)) < 1e-15
    assert math.hypot(bx + qdx - c.x, by + qdy + c.y) < 1e-15


def test_segment_mirrors_keep_their_distances_to_the_mirror(rng):
    # A reflection across AC fixes A and C, so R_AC(B) is as far from each
    # as B is; likewise R_AB(C) from A and B.
    for _ in range(200):
        t = random_acute_triangle(rng)
        a, b, c = t.vertices
        *_, (rx, ry, _, _), (bx, by, qdx, qdy) = search._segments(t)
        r, q = Point(rx, ry), Point(bx + qdx, by + qdy)
        scale = t.diameter + max(abs(x) for v in t.vertices for x in v.as_tuple())
        for mirror_end, image, source in ((a, r, b), (c, r, b), (a, q, c), (b, q, c)):
            assert abs(mirror_end.dist(image) - mirror_end.dist(source)) <= 1e-13 * scale


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_oracle_builds_no_points_once_the_frame_is_cached(rng, monkeypatch, offset):
    # The oracle's calls compute on plain floats: with the triangle's local
    # frame cached, the orthic perimeter, grid3 at n = 200 and grid6 at
    # n = 12 construct no Point.
    t = moved(random_acute_triangle(rng), offset)
    local_frame(t)
    built = 0
    point_init = Point.__init__

    def counted(self, x, y):
        nonlocal built
        built += 1
        point_init(self, x, y)

    monkeypatch.setattr(Point, "__init__", counted)
    orthic_perimeter(t)
    grid_search_3periodic(t, 200)
    grid_search_6periodic_gap2(t, 12)
    Point(0.0, 0.0)  # the counter itself is live
    assert built == 1


@st.composite
def acute_triangles(draw):
    """(triangle, u_K, P): B at the origin and C on the x axis before an
    offset of up to 1e6, angles at least 0.08 from 0 and pi/2, a
    power-of-two scale; u_K is the parameter of the foot of the altitude
    from A on BC, and P the orthic perimeter, taken before the offset."""
    b_ang = draw(st.floats(0.17, math.pi / 2 - 0.08))
    c_ang = draw(st.floats(math.pi / 2 - b_ang + 0.08, math.pi / 2 - 0.08))
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    scale = math.ldexp(1.0, draw(st.integers(-300, 300)))
    offset = draw(st.sampled_from([0.0, 1.0, 1e6])) * draw(st.floats(-1.0, 1.0))
    base = Triangle(Point(p, q), Point(0.0, 0.0), Point(1.0, 0.0))
    return moved(base, offset, scale), p, orthic_perimeter(moved(base, 0.0, scale))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=acute_triangles(), grid_n=st.integers(2, 8))
def test_fagnano_row_bound(case, grid_n):
    # rho_i bounds every cycle through PA_i from below (here the grid
    # cycles, found by brute force over the full cube), and equals the
    # orthic perimeter at the foot of the altitude from A (Fagnano).
    t, u_k, per = case
    size = t.diameter + max(abs(x) for v in t.vertices for x in v.as_tuple())
    us = np.arange(grid_n + 1) / grid_n
    pa, pb, pc = (reference_search._edge_grid(t, e, us) for e in EdgeId)
    cube = (
        reference_search._dist_matrix(pa, pb)[:, :, None]
        + reference_search._dist_matrix(pb, pc)[None, :, :]
        + reference_search._dist_matrix(pc, pa).T[:, None, :]
    )
    *_, (rsx, rsy, rdx, rdy), (qsx, qsy, qdx, qdy) = search._segments(t)

    def rho(u):  # |R_AC(PA(u)) R_AB(PA(u))|
        return math.hypot(rsx + u * rdx - (qsx + u * qdx), rsy + u * rdy - (qsy + u * qdy))

    assert np.all(np.array([rho(u) for u in us]) <= cube.min(axis=(1, 2)) + 1e-12 * size)
    assert abs(rho(u_k) - per) <= 1e-12 * size


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9, 1e12])
def test_grid3_memory_within_reference(equilateral, offset):
    # The search runs in the local frame, so its pruning margin is 1e-9 of
    # the diameter at any offset: a moved triangle keeps about the rows and
    # pairs of the unmoved one, counted in distance evaluations.  It holds
    # no grid: its peak is a few KiB of Python objects (2-3 KiB measured),
    # below 1/64 of one (n+1)^2 float64 matrix, and so far below the
    # reference, whose cube holds three such matrices and a block of sums.
    t = moved(equilateral, offset)
    assert peak_bytes(grid_search_3periodic, t, 400) <= 8 * 401**2 // 64
    assert hypot_calls(t, 400) <= 1.1 * hypot_calls(equilateral, 400)


@pytest.mark.parametrize("grid_n", [12, 200])
def test_grid6_memory_within_one_chunk_of_reference(equilateral, grid_n):
    # Batching x rows may add one temporary of at most 2**17 float64s, the
    # chunk size of the reference cube search.
    new = peak_bytes(grid_search_6periodic_gap2, equilateral, grid_n)
    old = peak_bytes(reference_search.grid_search_6periodic_gap2, equilateral, grid_n)
    assert new <= old + 8 * (1 << 17)


@pytest.mark.parametrize("grid_n", [200, 300])  # 3 and 1 x rows per batch
def test_grid6_batches_fit_one_chunk(equilateral, grid_n):
    # grid6 holds its slab, v1 and h, 5 (n+1)^2 float64s, and one batch's
    # sums of at most _CHUNK float64s; numpy's reductions add a buffer of
    # ~140 KiB.  Measured 2.73 and 4.50 MB, against bounds of 2.93 and 4.93
    # MB; one x row more per batch peaks at 3.05 and 5.23 MB.  The slab's
    # hypot, 6 (n+1)^2 float64s, is within the bound up to n = 361.
    n1 = grid_n + 1
    bound = 8 * (5 * n1 * n1 + search._CHUNK) + (1 << 18)
    assert peak_bytes(grid_search_6periodic_gap2, equilateral, grid_n) <= bound


def test_grid_n_validation(equilateral):
    with pytest.raises(ValueError):
        grid_search_3periodic(equilateral, 1)
    with pytest.raises(ValueError):
        grid_search_6periodic_gap2(equilateral, 1)


@pytest.mark.parametrize(
    "fn, slabs", [(grid_search_3periodic, 3), (grid_search_6periodic_gap2, 6)]
)
def test_oversized_grid_raises_before_allocating(equilateral, fn, slabs):
    # The smallest grid_n whose float64s held at once exceed the cap; grid_n - 1
    # is within it.  Only the refused size is run.
    n = math.isqrt(search.MAX_GRID_FLOATS // slabs)
    assert slabs * n**2 <= search.MAX_GRID_FLOATS < slabs * (n + 1) ** 2
    if slabs == 3:
        message = f"grid_n {n} is above the 3-periodic search's limit of {n - 1}$"
    else:
        message = f"grid_n {n} needs .* above the limit"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            fn(equilateral, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_grid6_equilateral(equilateral):
    res = grid_search_6periodic_gap2(equilateral, 16)
    assert res.best_value == pytest.approx(3.0, abs=0.05)
    assert res.objective == "gap2"
    assert res.best_value >= 3.0 - res.certified_tolerance


@pytest.mark.parametrize("grid_n", [3, 12])
def test_grid6_reports_its_grid_minimum(rng, grid_n):
    # The certificate covers what is reported: every best parameter is a
    # grid point i / grid_n, and best_value is the six-leg cycle length at
    # those parameters and the minimum over the whole grid (brute force).
    us = np.arange(grid_n + 1) / grid_n
    triangles = [random_acute_triangle(rng) for _ in range(8)]
    for t in [Triangle(Point(0.0, 0.0), Point(2.0, 0.0), Point(0.7, 1.5)), *triangles]:
        res = grid_search_6periodic_gap2(t, grid_n)
        for p in res.best_params:
            assert p == pytest.approx(us[round(p * grid_n)], abs=1e-15)
        assert res.best_value == pytest.approx(evaluate_gap2_cycle(t, res.best_params), rel=1e-12)
        if grid_n == 3:
            grids = [reference_search._edge_grid(t, e, us) for e in GAP2_PATTERN]
            total = 0.0  # total[u1, ..., u6]; each leg broadcast over its two axes, i < j
            for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)):
                leg = reference_search._dist_matrix(grids[i], grids[j])
                total = total + leg.reshape([grid_n + 1 if k in (i, j) else 1 for k in range(6)])
            assert res.best_value == pytest.approx(total.min(), rel=1e-12)


def test_grid6_matches_gap_report(rng):
    # The searched objective (cycle length of the alternating pattern) is
    # exactly the 2-gap of the corresponding schedule.
    for _ in range(20):
        t = random_acute_triangle(rng)
        params = [rng.uniform(0.05, 0.95) for _ in range(6)]
        val = evaluate_gap2_cycle(t, params)
        pattern = (EdgeId.A, EdgeId.C, EdgeId.B, EdgeId.A, EdgeId.C, EdgeId.B)
        s = Schedule(t, tuple(SchedulePoint(e, u) for e, u in zip(pattern, params)))
        assert gap_report(s, 2).overall == pytest.approx(val, rel=1e-12)


def test_gap2_at_orthic_cycle_exact(rng):
    for _ in range(30):
        t = random_acute_triangle(rng)
        u = orthic_feet_params(t)
        params = [u[0], u[2], u[1], u[0], u[2], u[1]]  # K, M, L doubled
        assert evaluate_gap2_cycle(t, params) == pytest.approx(
            2 * orthic_perimeter(t), rel=1e-10
        )


def test_gap2_flat_valley_along_channel(rng):
    for _ in range(15):
        t = random_acute_triangle(rng)
        per2 = 2 * orthic_perimeter(t)
        for lam in (-0.9, -0.5, 0.5, 0.9):
            s = sub_orthic_schedule(t, lam)
            pos = [edge_point(t, p.edge, p.u) for p in s.generator]
            cycle = sum(pos[i].dist(pos[(i + 1) % 6]) for i in range(6))
            assert cycle == pytest.approx(per2, rel=1e-9)
            assert gap_report(s, 2).overall == pytest.approx(per2, rel=1e-9)


def test_grid6_never_below_channel_value(rng):
    for _ in range(6):
        t = random_acute_triangle(rng)
        res = grid_search_6periodic_gap2(t, 10)
        assert res.best_value >= 2 * orthic_perimeter(t) - 1e-9


def test_limited_2k_feasibility_bound(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        assert lower_bound_profile(t, 1)[-1][1] <= 2 * orthic_perimeter(t) + 1e-12


def test_limited_2k_equilateral_values(equilateral):
    # v_k^2 = 9k^2 - 3k + 1 for the unit equilateral (skew parallelogram
    # diagonal with |v| = 3, side 1, v.w = -1.5).
    for k in (1, 2, 5, 50):
        want = math.sqrt(9 * k * k - 3 * k + 1)
        assert lower_bound_profile(equilateral, k)[-1][1] * k == pytest.approx(want, rel=1e-12)


def test_vk_over_k_approaches_twice_perimeter(rng, equilateral):
    for t in [equilateral] + [random_acute_triangle(rng) for _ in range(20)]:
        per2 = 2 * orthic_perimeter(t)
        rows = lower_bound_profile(t, 60)
        devs = [per2 - vk_k for _, vk_k, _ in rows]
        # valid lower bound, approached monotonically from below
        assert all(d >= -1e-9 * per2 for d in devs)
        assert all(
            devs[i + 1] <= devs[i] + 1e-12 * per2 for i in range(len(devs) - 1)
        )
        # the skew-parallelogram bound dominates the true deviation
        assert all(abs(d) <= b + 1e-12 for d, (_, _, b) in zip(devs, rows))


def test_vk_is_lower_bound_for_cyclic_gap2(rng):
    for _ in range(20):
        t = random_acute_triangle(rng)
        vk_k = lower_bound_profile(t, 30)[-1][1]
        r = random.Random(rng.random())
        for _ in range(5):
            pts = tuple(
                SchedulePoint(e, r.uniform(0, 1))
                for e in (EdgeId.A, EdgeId.C, EdgeId.B)
            )
            g2 = gap_report(Schedule(t, pts), 2).overall
            assert vk_k <= g2 + 1e-9
        lam = r.uniform(-1, 1)
        assert vk_k <= gap_report(sub_orthic_schedule(t, lam), 2).overall + 1e-9


def test_verify_1gap_optimality(rng, equilateral):
    assert verify_1gap_optimality(equilateral, 100)
    for _ in range(25):
        assert verify_1gap_optimality(random_acute_triangle(rng), 100)


def test_verify_1gap_optimality_allows_rounding_on_a_thin_triangle():
    # 2P is ~9.4e-8 diameters here, so the rows' rounding, a fraction of
    # eps * diameter, is ~1e-9 of the 1-gap: upper - lower came out 4.9e-17
    # at bound_k = 0, above a slack of 1e-9 * upper = 4.7e-17 alone.
    t = Triangle(
        Point(0.6371651029824486, -0.7707273392979941),
        Point(0.0, 0.0),
        Point(0.6371650848392733, -0.7707273542970703),
    )
    assert verify_1gap_optimality(t, 100)


def test_verify_1gap_optimality_refuses_depth_zero(equilateral):
    """The argument is the unfolding depth k; k = 0 is refused, not clamped to 1."""
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        verify_1gap_optimality(equilateral, 0)


def test_verify_1gap_optimality_near_right():
    # Slow certificate convergence near the right-angle boundary.
    b_ang = math.pi / 2 - 0.01
    c_ang = math.pi / 4
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    t = Triangle(Point(p, q), Point(0, 0), Point(1, 0))
    assert verify_1gap_optimality(t, 200)


def test_gap1_sandwich_explicitly(equilateral):
    rows = lower_bound_profile(equilateral, 100)
    lower = rows[-1][1] / 2
    upper = gap_report(orthic_schedule(equilateral), 1).overall
    assert lower <= upper
    assert upper - lower <= 0.02

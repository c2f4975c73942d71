"""The float channel kernels against tests/reference_exact.py, on random
acute triangles as drawn, moved far from the origin and scaled to the ends
of the float range.  gap_report's and prefix_gap_report's gaps lie within
G eps T of the exact timeline's, T its last visit time, with the same
horizon, mode and number of gaps per edge.  greedy_run's stops lie within
W eps diam of the exact walk's on the triangle given, so the rounding of
its local frame counts too, and its fixed point and limit cycle within F
eps diam of the exact ones, each along its edge.  lower_bound_profile's
rows lie within N eps diam of the exact rows, here and near a right angle.
The bit gate in test_bits.py says that something changed; these say which
function changed it, and by how much."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import reference_exact as rx
from tripatrol.geom import EdgeId, Point, Triangle, local_frame
from tripatrol.greedy import greedy_run
from tripatrol.orthic import sub_orthic_schedule
from tripatrol.schedule import gap_report, prefix_gap_report
from conftest import near_right_triangles, random_acute_triangle, thin_triangles
from test_reference_exact import N, row_error

SEED = 13
COUNT = 5
OFFSETS = (1e6, 1e12, 1e15)
SCALES = (2.0**300, 2.0**-300, 1e-160, 1e153)
LAMBDAS = (-1.0, -0.5, 0.0, 0.3, 1.0)

EPS = sys.float_info.epsilon
# Each gap lies within G eps T of the exact one.  Measured at most 2.66 on
# the schedules below ("base5*1e-160", order 3, horizon 50), and 1.77 on
# the prefixes of the 40-cycle walks.
G = 6
# Each stop of greedy_run's walk lies within W eps diam of the exact walk's.
# Measured at most 2.10 on TRIANGLES ("base4*1e-160"), and from the
# vertices 2.63 on random triangles and 1.81 near a right angle.
W = 6
# The fixed point and the limit cycle's stops lie within F eps diam of the
# exact ones.  Measured at most 1.50 and 1.77 on 256 thin triangles, 1.01
# and 1.55 on TRIANGLES, and 1.26 and 1.60 near a right angle.
F = 4


def triangles() -> list[tuple[str, Triangle]]:
    """(label, triangle): a fixed scalene triangle and COUNT random ones,
    then each of them moved by every offset and scaled by every scale."""
    rng = random.Random(SEED)
    base = [Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.45, 0.8))]
    base += [random_acute_triangle(rng) for _ in range(COUNT)]
    out = [(f"base{i}", t) for i, t in enumerate(base)]
    for o in OFFSETS:
        out += [(f"base{i}+{o:g}", Triangle(*(Point(v.x + o, v.y + o) for v in t.vertices))) for i, t in enumerate(base)]
    for s in SCALES:
        out += [(f"base{i}*{s:g}", Triangle(*(Point(v.x * s, v.y * s) for v in t.vertices))) for i, t in enumerate(base)]
    return out


TRIANGLES = triangles()
# (slack, triangle): conftest's near-right triangles.
NEAR_RIGHT = near_right_triangles(random.Random(SEED + 2), 40)


def along(t: Triangle, e: EdgeId, u: float, exact: Fraction) -> Fraction:
    """How far the parameter u lies from its exact value along edge e of
    local_frame(t)'s triangle, in eps diam."""
    local = local_frame(t)[0]
    return abs(Fraction(u) - exact) * Fraction(local.side_lengths[e]) / Fraction(EPS * local.diameter)


def walk_error(t: Triangle, run) -> float:
    """The largest distance, in eps diam, of a stop of the greedy run from
    the exact walk's."""
    stops = rx.walk(t, run.start_u, len(run.visited) - 1, run.direction)
    assert [p.edge for p in run.visited[1:]] == [e for e, _ in stops]
    return float(max(along(t, e, p.u, u) for p, (e, u) in zip(run.visited[1:], stops)))


def gap_error(report, times: tuple[list[Decimal], ...], order: int) -> float:
    """The largest distance, in eps T, of a gap of the report from the exact
    timeline's, T its last visit time; the report has as many gaps per edge
    as the timeline."""
    gaps = {e: [b - a for a, b in zip(ts, ts[order:])] for e, ts in zip(EdgeId, times) if len(ts) > order}
    assert {e: len(g) for e, g in report.per_edge_gaps.items()} == {e: len(g) for e, g in gaps.items()}
    unit = Decimal(EPS) * max(ts[-1] for ts in times)
    return float(max(abs(Decimal(g) - x) for e in gaps for g, x in zip(report.per_edge_gaps[e], gaps[e])) / unit)


def test_greedy_run_from_a_vertex_matches_reference():
    # A start at B (u = 0) or C (u = 1) projects onto the edges' ends, where
    # the edge parameter rounds just outside [0, 1] and must be clamped.
    rng = random.Random(SEED + 1)
    for t in [random_acute_triangle(rng) for _ in range(50)] + [t for _, t in NEAR_RIGHT]:
        for start in (0.0, 1.0):
            for direction in ("cw", "ccw"):
                assert walk_error(t, greedy_run(t, start, 40, direction)) <= W, (t, start, direction)


@pytest.mark.parametrize("label, t", TRIANGLES, ids=[label for label, _ in TRIANGLES])
def test_sub_orthic_schedule_and_gaps_match_reference(label, t):
    # The schedules are the closed form's, checked against the exact channel
    # in test_reference_exact.py; here their gaps are checked.
    rng = random.Random(label)
    lams = LAMBDAS + tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
    for lam in lams:
        s = sub_orthic_schedule(t, lam)
        m = len(s.generator)
        for order in (1, 2, 3):
            attained = m * (order + 1) + 1
            # The default horizon, a longer periodic one and an observed one.
            for horizon in (None, 2 * attained, attained - 1):
                report = gap_report(s, order) if horizon is None else gap_report(s, order, horizon)
                h = horizon or attained
                assert (report.horizon, report.mode) == (h, "periodic" if h >= attained else "observed")
                assert gap_error(report, rx.visit_times(s.generator, t, h), order) <= G, (lam, order, horizon)


@pytest.mark.parametrize("label, t", TRIANGLES, ids=[label for label, _ in TRIANGLES])
def test_lower_bound_profile_matches_reference(label, t):
    # Within N eps diam of the exact rows, scale and offset included:
    # measured at most 5.23, on "base3*1e-160".
    for k_max in (1, 60):
        assert row_error(t, k_max) <= N


def near_right_inputs() -> list[tuple[str, Triangle]]:
    """(label, triangle): conftest's near-right triangles, each as drawn,
    moved by 1e6 and scaled by 2^300 and 2^-300."""
    out = []
    for slack, t in NEAR_RIGHT:
        out += [(f"{slack:.3g}", t), (f"{slack:.3g}+1e6", Triangle(*(Point(v.x + 1e6, v.y + 1e6) for v in t.vertices)))]
        out += [(f"{slack:.3g}*{s:g}", Triangle(*(Point(v.x * s, v.y * s) for v in t.vertices))) for s in SCALES[:2]]
    return out


def test_lower_bound_profile_near_a_right_angle_is_within_ulps_of_reference():
    # Within N eps diam of the exact rows: measured at most 4.18.
    errors = {label: row_error(t) for label, t in near_right_inputs()}
    assert {label: e for label, e in errors.items() if e > N} == {}


@pytest.mark.parametrize("label, t", TRIANGLES, ids=[label for label, _ in TRIANGLES])
def test_greedy_run_and_prefix_gaps_match_reference(label, t):
    start_u = random.Random(label).uniform(0.05, 0.95)
    for direction in ("cw", "ccw"):
        run = greedy_run(t, start_u, 40, direction)
        assert walk_error(t, run) <= W, direction
        for n in (2, 3, 5, 8, len(run.visited)):
            for order in (1, 2, 3):
                points = run.visited[:n]
                times = rx.visit_times(points, t, n)
                if not all(times) or max(map(len, times)) <= order:
                    # An edge never visited, or no t-gap observable.
                    with pytest.raises(ValueError):
                        prefix_gap_report(points, t, order)
                    continue
                report = prefix_gap_report(points, t, order)
                assert (report.horizon, report.mode) == (n, "observed")
                assert gap_error(report, times, order) <= G, (direction, n, order)


def test_greedy_fixed_point_and_limit_cycle_match_reference():
    errors = []
    for t in [t for _, t in TRIANGLES + NEAR_RIGHT] + thin_triangles(random.Random(27), 300):
        for direction in ("cw", "ccw"):
            run = greedy_run(t, 0.5, 1, direction)
            fixed = rx.fixed_point(t, direction)
            stops = [(EdgeId.A, fixed)] + rx.walk(t, fixed, 2, direction)
            assert [p.edge for p in run.limit_schedule.generator] == [e for e, _ in stops]
            errors.append(along(t, EdgeId.A, run.fixed_point, fixed))
            errors += [along(t, e, p.u, u) for p, (e, u) in zip(run.limit_schedule.generator, stops)]
    assert max(errors) <= F
    # F is measured, not padded: a tenth of it fails on some input.
    assert max(errors) > F / 10

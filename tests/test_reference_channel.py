"""The float-only channel kernels against tests/reference_channel.py: the
same values bit for bit (equal reprs), and the same exception type and
message, on random acute triangles as drawn, moved far from the origin and
scaled to the ends of the float range.  lower_bound_profile's rows are
closed forms with no float twin; on the same inputs, and near a right
angle, they are checked against the exact rows of tests/reference_exact.py.
The bit gate in test_bits.py says that something changed; these say which
function changed it."""

import random

import pytest

import reference_channel as ref
from tripatrol.geom import Point, Triangle
from tripatrol.greedy import greedy_run
from tripatrol.orthic import sub_orthic_schedule
from tripatrol.schedule import gap_report, prefix_gap_report
from conftest import near_right_triangles, random_acute_triangle
from test_reference_exact import N, row_error

SEED = 13
COUNT = 5
OFFSETS = (1e6, 1e12, 1e15)
SCALES = (2.0**300, 2.0**-300, 1e-160, 1e153)
LAMBDAS = (-1.0, -0.5, 0.0, 0.3, 1.0)


def outcome(fn, *args):
    """repr of the value (exact for floats), or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


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


def test_greedy_run_from_a_vertex_matches_reference():
    # A start at B (u = 0) or C (u = 1) projects onto the edges' ends, where
    # the edge parameter rounds just outside [0, 1] and must be clamped.
    rng = random.Random(SEED + 1)
    for _ in range(50):
        t = random_acute_triangle(rng)
        for start in (0.0, 1.0):
            for direction in ("cw", "ccw"):
                want = outcome(ref.greedy_run, t, start, 40, direction)
                assert not isinstance(want, tuple), want
                assert outcome(greedy_run, t, start, 40, direction) == want


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
            # The default horizon, explicit periodic ones, observed ones and one too short.
            for horizon in (None, attained, 2 * attained, attained - 1, m + 1, m):
                args = (s, order) if horizon is None else (s, order, horizon)
                assert outcome(gap_report, *args) == outcome(ref.gap_report, *args), (lam, order, horizon)


@pytest.mark.parametrize("label, t", TRIANGLES, ids=[label for label, _ in TRIANGLES])
def test_lower_bound_profile_matches_reference(label, t):
    # Within N eps diam of the exact rows, scale and offset included:
    # measured at most 5.23, on "base3*1e-160".
    for k_max in (1, 60):
        assert row_error(t, k_max) <= N


NEAR_RIGHT_COUNT = 40


def near_right_inputs() -> list[tuple[str, Triangle]]:
    """(label, triangle): conftest's near-right triangles, each as drawn,
    moved by 1e6 and scaled by 2^300 and 2^-300."""
    out = []
    for slack, t in near_right_triangles(random.Random(SEED + 2), NEAR_RIGHT_COUNT):
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
        want = outcome(ref.greedy_run, t, start_u, 40, direction)
        assert outcome(greedy_run, t, start_u, 40, direction) == want
        if isinstance(want, tuple):
            continue
        visited = greedy_run(t, start_u, 40, direction).visited
        for n in (2, 3, 5, 8, len(visited)):
            for order in (1, 2, 3):
                args = (visited[:n], t, order)
                assert outcome(prefix_gap_report, *args) == outcome(ref.prefix_gap_report, *args), (n, order)


# The frame's own effect.  On a triangle near the origin, each caller-frame
# body agrees with the frame's to CALLER_FRAME_ULPS ulps of the coordinates'
# size, eps * (diameter + max|coord|): greedy's edge parameters times the
# diameter.  Measured at most 2.8 over 4 seeds x 40 triangles x 4 scales.
# Not at 1e-160, where the caller frame's products of two lengths fall
# into the subnormals.
CALLER_FRAME_ULPS = 16
UNMOVED = [(label, t) for label, t in TRIANGLES if "+" not in label and not label.endswith("*1e-160")]


@pytest.mark.parametrize("label, t", UNMOVED, ids=[label for label, _ in UNMOVED])
def test_caller_frame_kernels_agree_with_the_frame(label, t):
    size = 2.0**-52 * (t.diameter + max(max(abs(v.x), abs(v.y)) for v in t.vertices))
    bound = CALLER_FRAME_ULPS * size
    start_u = random.Random(label).uniform(0.05, 0.95)
    for direction in ("cw", "ccw"):
        here, there = greedy_run(t, start_u, 40, direction), ref.caller_frame_greedy_run(t, start_u, 40, direction)
        assert all(abs(p.u - q.u) * t.diameter <= bound for p, q in zip(here.visited, there.visited))

"""Scaling by a power of two is exact in binary floating point, so every
length a construction reports must scale by exactly 2**k and every edge
parameter must stay bit for bit the same.  Every length the paper reports
is similarity-invariant: moved, turned, scaled and relabelled, a triangle
must report them scaled, to the rounding of its own coordinates."""

import math
import random

from hypothesis import given, settings, strategies as st

from tripatrol.geom import DegenerateTriangle, Point, Triangle
from tripatrol.greedy import greedy_limit_gap, greedy_run
from tripatrol.orthic import (
    lower_bound_profile,
    orthic_perimeter,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
)
from tripatrol.schedule import gap_report
from conftest import random_acute_triangle

LAMBDAS = (-1.0, -0.3, 0.0, 0.7, 1.0)


def outputs(t: Triangle) -> tuple[list[float], list]:
    """The lengths the constructions report for t, and their scale-free
    values: edge parameters, greedy iterates and row indices."""
    unf = reflection_chain(t)
    lengths = [orthic_triangle(t).perimeter, unf.half_width]
    free = []
    for lam in LAMBDAS:
        s = sub_orthic_schedule(t, lam)
        lengths += [gap_report(s, 1).overall, gap_report(s, 2).overall]
        free.append(s.generator)
    for k, vk_over_k, bound in lower_bound_profile(t, 40):
        lengths += [vk_over_k, bound]
        free.append(k)
    for direction in ("cw", "ccw"):
        run = greedy_run(t, 0.25, direction=direction)
        lengths.append(run.limit_gap)
        free.append(run.iterates)
    return lengths, free


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300))
def test_power_of_two_scaling_is_exact(seed, k):
    t = random_acute_triangle(random.Random(seed))
    scaled = Triangle(*(Point(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in t.vertices))
    lengths, free = outputs(t)
    assert outputs(scaled) == ([math.ldexp(x, k) for x in lengths], free)


def similarity_values(t: Triangle) -> list[float]:
    """The paper's similarity-invariant lengths of t: the orthic perimeter
    (constructed and closed-form), the 2-gaps of five sub-orthic schedules
    (each 2P), the greedy limit gaps both ways with the closed form, and
    v_k / k for k = 1..30."""
    values = [orthic_triangle(t).perimeter, orthic_perimeter(t), greedy_limit_gap(t)]
    values += [gap_report(sub_orthic_schedule(t, lam), 2).overall for lam in LAMBDAS]
    values += [greedy_run(t, 0.3, 100, direction).limit_gap for direction in ("cw", "ccw")]
    return values + [vk_over_k for _, vk_over_k, _ in lower_bound_profile(t, 30)]


# |moved - scale * unmoved| <= SIMILARITY_ULPS * eps * (diameter + max|coord|)
# of the moved triangle: the rounding of its own coordinates bounds how far
# it is from a similar copy.  Measured at most 4.9 over 1,000 random cases.
SIMILARITY_ULPS = 16


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    move=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9, 1e12]),
    slant=st.floats(-1.0, 1.0),
    turn=st.floats(0.0, 2.0 * math.pi),
    scale=st.one_of(st.integers(-520, 520).map(lambda k: math.ldexp(1.0, k)), st.sampled_from([1e150, 1e-150])),
    order=st.permutations(range(3)),
)
def test_similarity_invariance(seed, move, slant, turn, scale, order):
    """Translated by up to 1e12 diameters, rotated, scaled by 2^k or
    10^+-150 and relabelled, a triangle gives the paper's lengths times the
    scale, or a documented domain error: past sides of ~1.3e154 it is too
    large for the float range.  Its angles stay 0.08 rad clear of 0 and
    pi/2, far more than the rounding moves them, so none is refused as not
    acute."""
    t = random_acute_triangle(random.Random(seed))
    c, s = math.cos(turn), math.sin(turn)
    dx = move * t.diameter * scale
    points = [Point(scale * (c * v.x - s * v.y) + dx, scale * (s * v.x + c * v.y) + slant * dx) for v in t.vertices]
    try:
        moved = Triangle(*(points[i] for i in order))
    except DegenerateTriangle as exc:
        assert str(exc).endswith("too large for the float range")
        assert scale * t.diameter > 1e154
        return
    size = 2.0**-52 * (moved.diameter + max(max(abs(v.x), abs(v.y)) for v in moved.vertices))
    got = similarity_values(moved)
    want = [scale * x for x in similarity_values(t)]
    assert max(abs(g - w) for g, w in zip(got, want)) <= SIMILARITY_ULPS * size

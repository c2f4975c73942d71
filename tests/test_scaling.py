"""Scaling by a power of two is exact in binary floating point, so every
length a construction reports must scale by exactly 2**k and every edge
parameter must stay bit for bit the same."""

import math
import random

from hypothesis import given, settings, strategies as st

from tripatrol.geom import Point, Triangle
from tripatrol.greedy import greedy_run
from tripatrol.orthic import lower_bound_profile, orthic_triangle, reflection_chain, sub_orthic_schedule
from tripatrol.schedule import gap_report
from conftest import random_acute_triangle

LAMBDAS = (-1.0, -0.3, 0.0, 0.7, 1.0)


def outputs(t: Triangle) -> tuple[list[float], list]:
    """The lengths the constructions report for t, and their scale-free
    values: edge parameters, greedy iterates and row indices."""
    unf = reflection_chain(t)
    lengths = [orthic_triangle(t).perimeter, unf.half_width_low, unf.half_width_high]
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

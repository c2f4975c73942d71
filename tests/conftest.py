import math
import random

import pytest

from tripatrol import orthic
from tripatrol.geom import Point, Triangle


def random_acute_triangle(rng: random.Random, margin: float = 0.08) -> Triangle:
    """Random acute triangle, angles bounded away from 0 and pi/2 by margin,
    with a random scale, rotation and translation applied."""
    while True:
        a_ang = rng.uniform(margin, math.pi / 2 - margin)
        b_ang = rng.uniform(margin, math.pi / 2 - margin)
        c_ang = math.pi - a_ang - b_ang
        if margin < c_ang < math.pi / 2 - margin:
            break
    alpha = rng.uniform(0.5, 3.0)
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    pts = [Point(alpha * p, alpha * q), Point(0.0, 0.0), Point(alpha, 0.0)]
    th = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    ct, st = math.cos(th), math.sin(th)
    return Triangle(
        *[Point(ct * v.x - st * v.y + dx, st * v.x + ct * v.y + dy) for v in pts]
    )


# The two golden-file triangles, an obtuse one and a thin one.
SPECIAL_TRIANGLES = (
    Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.8660254037844386)),
    Triangle(Point(0.5, 0.5), Point(0.0, 0.0), Point(1.0, 0.0)),
    Triangle(Point(0.0, 0.0), Point(3.0, 0.0), Point(0.4, 0.5)),
    Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.3, 0.01)),
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20230917)


@pytest.fixture
def equilateral() -> Triangle:
    return Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3.0) / 2.0))


@pytest.fixture
def builds(monkeypatch):
    """Counts of unfolding builds: each relabels the triangle once."""
    counts = {"builds": 0}
    relabel = orthic._relabel

    def counted(t):
        counts["builds"] += 1
        return relabel(t)

    monkeypatch.setattr(orthic, "_relabel", counted)
    return counts

import math
import random

import pytest

from tripatrol import geom, orthic
from tripatrol.geom import DegenerateTriangle, Point, Triangle, is_acute


def random_acute_triangle(rng: random.Random, margin: float = 0.08) -> Triangle:
    """Random acute triangle, angles bounded away from 0 and pi/2 by margin,
    with a random scale, rotation and translation applied."""
    while True:
        a_ang = rng.uniform(margin, math.pi / 2 - margin)
        b_ang = rng.uniform(margin, math.pi / 2 - margin)
        c_ang = math.pi - a_ang - b_ang
        if margin < c_ang < math.pi / 2 - margin:
            break
    return placed_triangle(rng, b_ang, c_ang)


def near_right_triangles(rng: random.Random, count: int) -> list[tuple[float, Triangle]]:
    """(slack, triangle): count random triangles whose angle at A is
    pi/2 - slack, the first two at slack 1e-5 and 2e-9 and the rest
    log-uniform between, their other two angles 0.08 or more from 0 and
    from pi/2, placed as random_acute_triangle places its triangles."""
    out = []
    for i in range(count):
        slack = (1e-5, 2e-9)[i] if i < 2 else 10.0 ** rng.uniform(math.log10(2e-9), -5.0)
        while True:
            b_ang = rng.uniform(0.08, math.pi / 2 - 0.08)
            c_ang = math.pi / 2 + slack - b_ang
            if 0.08 < c_ang < math.pi / 2 - 0.08:
                break
        out.append((slack, placed_triangle(rng, b_ang, c_ang)))
    return out


def placed_triangle(rng: random.Random, b_ang: float, c_ang: float) -> Triangle:
    """The triangle with angles B and C at B = (0, 0) and C = (alpha, 0),
    alpha random in [0.5, 3], then turned by a random angle and moved by a
    random offset in [-5, 5]^2."""
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


def thin_triangles(rng: random.Random, count: int) -> list[Triangle]:
    """The acute triangles among count draws with angle B = 10^U(-9, -1)
    and C = pi/2 - B * U(0.05, 0.95), placed by conftest.placed_triangle:
    a short edge AC, and A and C near right angles."""
    out = []
    for _ in range(count):
        b_ang = 10.0 ** rng.uniform(-9.0, -1.0)
        c_ang = math.pi / 2 - b_ang * rng.uniform(0.05, 0.95)
        try:
            t = placed_triangle(rng, b_ang, c_ang)
        except DegenerateTriangle:
            continue
        if is_acute(t):
            out.append(t)
    return out


# How far a point that foot_on_edge puts on an edge may lie from where it
# belongs, in units of eps * diameter of the local frame.  Measured: an
# orthic foot's distance from its edge's line, and how far its raw edge
# parameter lies outside [0, 1] times the edge's length, at most 1.02 and
# 2.00 over the 1,705 thin draws of seed 2; a greedy stop's distance along
# its edge from the exact walk's, 4.40 over the 256 thin draws of seed 27,
# both directions; the limit cycle's closing gap, 3.8 (test_greedy.py).
FOOT_EPS = 16


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
    """Counts of unfolding builds, of computations of the channel's
    numbers (the stops and the v_k rows), of the relabeled base, of the
    altitude feet and of the angles."""
    counts = {"unfoldings": 0, "channels": 0, "relabels": 0, "feet": 0, "angles": 0}

    def counting(key, fn):
        def counted(t):
            counts[key] += 1
            return fn(t)

        return counted

    monkeypatch.setattr(orthic, "_build", counting("unfoldings", orthic._build))
    monkeypatch.setattr(orthic, "_channel_numbers", counting("channels", orthic._channel_numbers))
    monkeypatch.setattr(orthic, "_relabel", counting("relabels", orthic._relabel))
    monkeypatch.setattr(orthic, "_feet", counting("feet", orthic._feet))
    monkeypatch.setattr(geom, "_angles", counting("angles", geom._angles))
    return counts

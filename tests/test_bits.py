"""Bit gate: a SHA-256 over the exact return values and exceptions of the
constructive geometry on a fixed set of triangles, including translated and
extremely scaled copies.  A change that is meant to be a pure speed-up must
keep the digest; a change that alters any float, any exception type or any
message must update DIGEST and say why."""

import hashlib
import random

from tripatrol.geom import Point, Triangle
from tripatrol.greedy import greedy_run
from tripatrol.orthic import (
    lower_bound_profile,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
    verify_1gap_optimality,
)
from tripatrol.schedule import gap_report
from conftest import random_acute_triangle

DIGEST = "024bfe86ab65516916a506ec36dc4df0cdf909850bc9d4a356fd07c68ecc3232"

BASE_SEED = 10
BASE_COUNT = 11
OFFSETS = (1e6, 1e7, 1e8, 1e12, 1e15)
SCALES = (2.0**100, 2.0**-100, 2.0**300, 2.0**-300, 1e100, 1e-100, 1e-160, 1e153)
LAMBDAS = tuple(round(-1.0 + i / 10.0, 10) for i in range(21))

# The fields Unfolding had when the digest was taken; a field added later
# leaves the digest alone.
UNFOLDING_FIELDS = (
    "copies", "k", "m", "l1", "k1", "m1", "l2", "k2", "direction", "boundary_low", "boundary_high", "half_width",
)


def triangles() -> list[tuple[Triangle, float]]:
    """(triangle, greedy start u): a fixed scalene triangle and the base
    draws, then their moved and scaled copies."""
    rng = random.Random(BASE_SEED)
    base = [(Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.45, 0.8)), 0.3)]
    base += [(random_acute_triangle(rng), rng.uniform(0.05, 0.95)) for _ in range(BASE_COUNT)]
    out = list(base)
    for o in OFFSETS:
        out += [(Triangle(*(Point(v.x + o, v.y + o) for v in t.vertices)), u) for t, u in base]
    for s in SCALES:
        out += [(Triangle(*(Point(v.x * s, v.y * s) for v in t.vertices)), u) for t, u in base]
    return out


def records(t: Triangle, start_u: float) -> list[str]:
    out = []

    def record(fn, *args):
        try:
            value = fn(*args)
        except Exception as exc:  # every exception is part of the record
            out.append(f"{type(exc).__name__}: {exc}")
            return None
        out.append(repr(value))
        return value

    record(orthic_triangle, t)
    record(lambda: [getattr(reflection_chain(t), f) for f in UNFOLDING_FIELDS])
    for lam in LAMBDAS:
        s = record(sub_orthic_schedule, t, lam)
        if s is not None:
            record(lambda: s.positions)
            record(gap_report, s, 1)
            record(gap_report, s, 2)
    record(lower_bound_profile, t, 100)
    record(verify_1gap_optimality, t, 50)
    for direction in ("cw", "ccw"):
        record(greedy_run, t, start_u, 200, direction)
    return out


def digest() -> str:
    h = hashlib.sha256()
    for t, u in triangles():
        for line in records(t, u):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def test_constructive_geometry_is_bit_identical():
    assert digest() == DIGEST

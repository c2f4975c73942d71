"""The paper's exact identities on tests/reference_exact.py, with zero
residual, and the float constructions against it.

The orthic triangle and the unfolding are rational in the vertex
coordinates, so on the exact reference the seven altitude feet are
collinear, B2C2 is parallel to BC and the channel between the parallels
through A and A1 meets two edges of every copy, each exactly, and the
orthic perimeter equals its closed form to 1e-40 (in `decimal` at 50
digits).
orthic_triangle and reflection_chain compute on local_frame(t) in floats
and check none of this; their points must lie within N eps diam of the
exact ones on that same frame.

Inputs: random acute triangles at angle margins 0.08, 0.01 and 0.001,
each as drawn, moved by 1e6, 1e12 and 1e15 and scaled by 2^500 and
2^-500 (a moved copy is kept where it is still an acute triangle: at 1e15
the coordinates round to multiples of 1/8), and the two acute golden
triangles.
"""

import functools
import random
import sys
from fractions import Fraction

import reference_exact as rx
from tripatrol import cli
from tripatrol.geom import EdgeId, Point, Triangle, is_acute, local_frame
from tripatrol.orthic import orthic_triangle, reflection_chain
from conftest import random_acute_triangle
from make_goldens import EQ

SEED = 22
PER_MARGIN = 18
MARGINS = (0.08, 0.01, 0.001)
OFFSETS = (1e6, 1e12, 1e15)
SCALES = (2.0**500, 2.0**-500)

EPS = sys.float_info.epsilon
# Every float point lies within N eps diam of its exact value on the local
# frame, and x0 within N eps.  Measured over TRIANGLES, the worst is
# 9.49 eps diam: the unfolding's c2 on "margin 0.001 #4 +1e+06"; the feet
# of orthic_triangle reach 2.12 eps diam and x0 1.98 eps.  The error grows
# as the smallest angle shrinks: over 3,600 other triangles the worst was
# 67.6 eps diam, at a smallest angle of 0.052 rad.
N = 16


def _golden(args: list[str]) -> Triangle:
    return cli._triangle_from_args(cli.build_parser().parse_args(["orthic", *args]))[0]


def _moved(t: Triangle, offset: float) -> Triangle | None:
    try:
        moved = Triangle(*(Point(v.x + offset, v.y + offset) for v in t.vertices))
    except ValueError:  # its vertices rounded onto one line
        return None
    return moved if is_acute(moved) else None


def triangles() -> list[tuple[str, Triangle]]:
    out = [("golden vertices", _golden(EQ)), ("golden angles", _golden(["--angles-deg", "60", "60", "--side", "1"]))]
    rng = random.Random(SEED)
    for margin in MARGINS:
        for i in range(PER_MARGIN):
            t = random_acute_triangle(rng, margin)
            label = f"margin {margin} #{i}"
            out.append((label, t))
            out += [(f"{label} +{o:g}", m) for o in OFFSETS if (m := _moved(t, o)) is not None]
            out += [
                (f"{label} *{s:g}", Triangle(*(Point(v.x * s, v.y * s) for v in t.vertices))) for s in SCALES
            ]
    return out


TRIANGLES = triangles()


# The float constructions are compared in their own labels, which are the
# exact ones on all but the golden triangles: each unfolding is built once.
exact_unfolding = functools.cache(rx.unfolding)


def exact_unfoldings() -> list[tuple[str, rx.Unfolding]]:
    """Each triangle's exact unfolding on its local frame, relabeled so
    that alpha >= beta >= gamma exactly."""
    out = []
    for label, t in TRIANGLES:
        local = local_frame(t)[0]
        out.append((label, exact_unfolding(*(local.vertices[i] for i in rx.relabel(local)))))
    return out


UNFOLDINGS = exact_unfoldings()


def test_inputs_cover_the_stated_range():
    assert len(TRIANGLES) >= 300
    for part in (*(f"margin {m} " for m in MARGINS), *(f"+{o:g}" for o in OFFSETS), *(f"*{s:g}" for s in SCALES)):
        assert sum(part in label for label, _ in TRIANGLES) >= 10, part


def test_feet_are_collinear():
    for label, u in UNFOLDINGS:
        assert [u.offset(p) for p in (u.k, u.m, u.l1, u.k1, u.m1, u.l2, u.k2)] == [0] * 7, label


def test_b2c2_is_parallel_to_bc():
    for label, u in UNFOLDINGS:
        a, b, c = u.copies[0]
        assert rx.cross(rx.sub(c, b), rx.sub(u.c2, u.b2)) == 0, label


def test_a_and_a1_lie_on_opposite_sides_of_the_orthic_line():
    for label, u in UNFOLDINGS:
        assert u.offset(u.copies[0][0]) * u.offset(u.a1) < 0, label


def test_channel_meets_two_edges_of_every_copy():
    for label, u in UNFOLDINGS:
        top, bottom = u.offset(u.copies[0][0]), u.offset(u.a1)
        assert all(rx.straddles(offsets, bottom, top) for offsets in u.offsets), label


def test_foot_l_is_the_convex_combination_at_x0():
    for label, t in TRIANGLES:
        local = local_frame(t)[0]
        a, _, c = (rx.exact(v) for v in local.vertices)
        od = rx.orthic(local)
        assert od.l_foot == (od.x0 * c[0] + (1 - od.x0) * a[0], od.x0 * c[1] + (1 - od.x0) * a[1]), label


def test_orthic_perimeter_matches_its_closed_form():
    for label, t in TRIANGLES:
        per, closed = rx.perimeters(local_frame(t)[0])
        assert abs(per - closed) <= per.scaleb(-40), label


def _error(p: Point, exact: rx.XY) -> Fraction:
    """Squared distance of p from its exact value."""
    d = rx.sub(rx.exact(p), exact)
    return rx.dot(d, d)


def float_errors(t: Triangle) -> tuple[float, float]:
    """The largest distance, in eps diam, of a foot of orthic_triangle or a
    point of reflection_chain on local_frame(t) from its exact value (the
    unfolding in the float's own labels), and x0's error in eps."""
    local = local_frame(t)[0]
    unit = Fraction(EPS * local.diameter) ** 2
    od, exact_od = orthic_triangle(local), rx.orthic(local)
    worst = max(_error(getattr(od, f), getattr(exact_od, f)) for f in ("k_foot", "l_foot", "m_foot"))
    unf = reflection_chain(local)
    v = local.vertices
    exact_unf = exact_unfolding(*(v[unf.edge_map[e]] for e in EdgeId))
    worst = max(worst, *(_error(getattr(unf, name), getattr(exact_unf, name)) for name in rx.POINTS))
    return float(worst / unit) ** 0.5, float(abs(Fraction(od.x0) - exact_od.x0) / Fraction(EPS))


def test_float_constructions_lie_near_the_exact_points():
    errors = {label: float_errors(t) for label, t in TRIANGLES}
    assert {label: e for label, e in errors.items() if max(e) > N} == {}
    # N is measured, not padded: a tenth of it fails on some input.
    assert max(max(e) for e in errors.values()) > N / 10


def test_float_relabeling_is_the_exact_one():
    """Wherever the side lengths are apart, the float relabeling sorts them
    as the exact one does.  The two golden triangles are equilateral up to
    rounding: sides that tie in floats are a few ulps apart exactly."""
    differ = []
    for label, t in TRIANGLES:
        local = local_frame(t)[0]
        edge_map = reflection_chain(local).edge_map
        if tuple(edge_map[e] for e in EdgeId) != rx.relabel(local):
            differ.append(label)
    assert differ == ["golden vertices", "golden angles"]

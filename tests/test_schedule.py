import json
import math
import random

import pytest

from tripatrol.geom import EdgeId, Triangle, edge_point
from tripatrol.schedule import (
    InfeasibleSchedule,
    NoReductionWindow,
    Schedule,
    SchedulePoint,
    cyclic_reduction,
    gap_report,
    is_cyclic,
    is_k_periodic,
    pairwise_gap,
    prefix_gap_report,
    schedule_from_dict,
    schedule_to_dict,
    travel_time,
)
from conftest import random_acute_triangle

SP = SchedulePoint


def medial(t: Triangle) -> Schedule:
    """Midpoint-of-every-edge cyclic schedule (for the equilateral it is
    exactly the orthic schedule, so its 1-gap is 1.5 by the closed form)."""
    return Schedule(t, (SP(EdgeId.A, 0.5), SP(EdgeId.C, 0.5), SP(EdgeId.B, 0.5)))


def test_positions_are_the_generator_points(rng):
    for _ in range(20):
        t = random_acute_triangle(rng)
        gen = tuple(SP(e, rng.uniform(0.0, 1.0)) for e in (EdgeId.A, EdgeId.C, EdgeId.B, EdgeId.A))
        s = Schedule(t, gen)
        assert s.positions == tuple(edge_point(t, p.edge, p.u) for p in gen)
        assert [s.position(i) for i in range(-4, 8)] == [s.positions[i % 4] for i in range(-4, 8)]


def test_positions_stay_out_of_eq_hash_and_repr(equilateral):
    s, twin = medial(equilateral), medial(equilateral)
    positions = s.positions
    assert s == twin and hash(s) == hash(twin)
    assert positions == twin.positions
    assert "positions" not in repr(s)


def test_is_cyclic_examples(equilateral):
    assert is_cyclic(Schedule(equilateral, (SP(EdgeId.A, 0.2), SP(EdgeId.C, 0.3), SP(EdgeId.B, 0.4))))
    assert not is_cyclic(
        Schedule(
            equilateral,
            (SP(EdgeId.A, 0.2), SP(EdgeId.C, 0.3), SP(EdgeId.C, 0.5), SP(EdgeId.B, 0.4)),
        )
    )


def test_is_k_periodic(equilateral):
    s = medial(equilateral)
    assert is_k_periodic(s, 3)
    assert is_k_periodic(s, 6)
    assert not is_k_periodic(s, 4)
    with pytest.raises(ValueError):
        is_k_periodic(s, 2)


def test_travel_time_orthic_period(equilateral):
    s = medial(equilateral)
    assert travel_time(s, 0, 0) == 0.0
    # One full period of the equilateral orthic orbit: 2 * alpha * sinB * sinC = 1.5.
    assert travel_time(s, 0, 3) == pytest.approx(1.5, rel=1e-12)


def test_travel_time_dominates_displacement(rng, equilateral):
    s = Schedule(
        equilateral,
        tuple(SP(rng.choice(list(EdgeId)), rng.uniform(0.05, 0.95)) for _ in range(8)),
    )
    for _ in range(30):
        i = rng.randrange(0, 8)
        j = i + rng.randrange(0, 12)
        assert travel_time(s, i, j) >= s.position(i).dist(s.position(j)) - 1e-12


def test_gap_report_orthic_equilateral(equilateral):
    s = medial(equilateral)
    r1 = gap_report(s, 1)
    assert r1.overall == pytest.approx(1.5, rel=1e-12)
    sups = list(r1.per_edge_sup.values())
    assert max(sups) - min(sups) < 1e-12
    r2 = gap_report(s, 2)
    assert r2.overall == pytest.approx(3.0, rel=1e-12)
    assert r2.mode == "periodic"


def test_gap_identity_g2_from_g1(rng, equilateral):
    for _ in range(50):
        pts = tuple(SP(e, rng.uniform(0, 1)) for e in (EdgeId.A, EdgeId.C, EdgeId.B))
        s = Schedule(equilateral, pts)
        horizon = 12
        r1 = gap_report(s, 1, horizon)
        r2 = gap_report(s, 2, horizon)
        for e in EdgeId:
            g1, g2 = r1.per_edge_gaps[e], r2.per_edge_gaps[e]
            for i in range(len(g2)):
                assert g2[i] == pytest.approx(g1[i] + g1[i + 1], rel=1e-12)


def test_gap_report_rotation_invariant(rng):
    for _ in range(30):
        t = random_acute_triangle(rng)
        pts = [SP(e, rng.uniform(0, 1)) for e in (EdgeId.A, EdgeId.C, EdgeId.B)]
        base = gap_report(Schedule(t, tuple(pts)), 1).per_edge_sup
        for shift in (1, 2):
            rotated = pts[shift:] + pts[:shift]
            sup = gap_report(Schedule(t, tuple(rotated)), 1).per_edge_sup
            for e in EdgeId:
                assert sup[e] == pytest.approx(base[e], rel=1e-12)


def test_cyclic_3periodic_gap_is_inscribed_perimeter(rng):
    for _ in range(50):
        t = random_acute_triangle(rng)
        pts = tuple(SP(e, rng.uniform(0, 1)) for e in (EdgeId.A, EdgeId.B, EdgeId.C))
        s = Schedule(t, pts)
        per = sum(s.position(i).dist(s.position(i + 1)) for i in range(3))
        r1 = gap_report(s, 1)
        assert r1.overall == pytest.approx(per, rel=1e-12)
        for e in EdgeId:  # every edge sees the same constant gap
            assert r1.per_edge_sup[e] == pytest.approx(per, rel=1e-12)
            assert max(r1.per_edge_gaps[e]) - min(r1.per_edge_gaps[e]) < 1e-12 * per
        r2 = gap_report(s, 2)
        assert r2.overall == pytest.approx(2 * per, rel=1e-12)
        assert r2.overall >= r1.overall


def test_vertex_visits_credit_both_edges(equilateral):
    # First point sits at vertex A (u=0 of edge C), crediting edges C and B
    # at time 0; edge B is then revisited by the third point.
    s = Schedule(
        equilateral, (SP(EdgeId.C, 0.0), SP(EdgeId.A, 0.5), SP(EdgeId.B, 0.5))
    )
    leg1 = math.sqrt(3) / 2  # A -> midpoint of BC
    period = leg1 + 0.5 + 0.5
    r = gap_report(s, 1)
    assert r.overall == pytest.approx(period, rel=1e-12)
    assert r.per_edge_sup[EdgeId.B] == pytest.approx(leg1 + 0.5, rel=1e-12)
    assert r.per_edge_sup[EdgeId.C] == pytest.approx(period, rel=1e-12)


def test_same_instant_vertex_repeat_is_one_visit(equilateral):
    # Two consecutive generator entries at the same vertex must not create a
    # zero gap for the edges they share.
    s = Schedule(
        equilateral,
        (SP(EdgeId.C, 0.0), SP(EdgeId.B, 0.0), SP(EdgeId.A, 0.5), SP(EdgeId.B, 0.5)),
    )
    r = gap_report(s, 1)
    for e in EdgeId:
        assert min(r.per_edge_gaps[e]) > 0.1


def test_infeasible_schedule_rejected(equilateral):
    with pytest.raises(InfeasibleSchedule):
        Schedule(equilateral, (SP(EdgeId.A, 0.5), SP(EdgeId.A, 0.2), SP(EdgeId.C, 0.5)))


def test_pairwise_gap(equilateral, rng):
    s = medial(equilateral)
    assert pairwise_gap(s) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        pairwise_gap(
            Schedule(
                equilateral,
                (SP(EdgeId.A, 0.1), SP(EdgeId.A, 0.9), SP(EdgeId.C, 0.5), SP(EdgeId.B, 0.5)),
            )
        )
    for _ in range(30):
        t = random_acute_triangle(rng)
        pts = tuple(SP(e, rng.uniform(0, 1)) for e in (EdgeId.B, EdgeId.A, EdgeId.C))
        s = Schedule(t, pts)
        assert pairwise_gap(s) <= gap_report(s, 1).overall + 1e-12


def test_prefix_gap_report(equilateral):
    pts = [SP(EdgeId.A, 0.5), SP(EdgeId.C, 0.5), SP(EdgeId.B, 0.5), SP(EdgeId.A, 0.5)]
    r = prefix_gap_report(pts, equilateral, 1)
    assert r.mode == "observed"
    assert r.per_edge_gaps[EdgeId.A] == [pytest.approx(1.5, rel=1e-12)]


def test_cyclic_reduction_already_cyclic(equilateral):
    pts = [SP(EdgeId.A, 0.2), SP(EdgeId.B, 0.7), SP(EdgeId.C, 0.4), SP(EdgeId.A, 0.2)]
    s = cyclic_reduction(pts, equilateral)
    assert tuple(s.generator) == tuple(pts[:3])


def test_cyclic_reduction_window_example(equilateral):
    # Window on edges (A, C, B, C, A) at parameters (.5, .2, .5, .8, .5).
    window = [
        SP(EdgeId.A, 0.5),
        SP(EdgeId.C, 0.2),
        SP(EdgeId.B, 0.5),
        SP(EdgeId.C, 0.8),
        SP(EdgeId.A, 0.5),
    ]
    pos = [edge_point(equilateral, p.edge, p.u) for p in window]
    window_travel = sum(pos[i].dist(pos[i + 1]) for i in range(4))

    def perim(i, j, k):
        return pos[i].dist(pos[j]) + pos[j].dist(pos[k]) + pos[k].dist(pos[i])

    expected = min(perim(0, 1, 2), perim(2, 3, 4))
    s = cyclic_reduction(window, equilateral)
    got = gap_report(s, 1).overall
    assert got == pytest.approx(expected, rel=1e-12)
    assert got <= window_travel + 1e-12


def test_cyclic_reduction_no_window(equilateral):
    pts = [
        SP(EdgeId.A, 0.1),
        SP(EdgeId.C, 0.2),
        SP(EdgeId.B, 0.3),
        SP(EdgeId.B, 0.4),
        SP(EdgeId.C, 0.5),
        SP(EdgeId.A, 0.6),
    ]
    with pytest.raises(NoReductionWindow):
        cyclic_reduction(pts, equilateral)


def test_cyclic_reduction_window_whose_first_edge_never_returns(equilateral):
    # (A, C, B, C) opens a window, but A never comes back to close it.  No
    # later window can then be taken: it would need all three edges within
    # three steps, and A appears nowhere after the first point.
    pts = [SP(EdgeId.A, 0.1), SP(EdgeId.C, 0.2), SP(EdgeId.B, 0.3), SP(EdgeId.C, 0.4), SP(EdgeId.B, 0.5)]
    with pytest.raises(NoReductionWindow):
        cyclic_reduction(pts, equilateral)
    with pytest.raises(NoReductionWindow):
        cyclic_reduction(pts + [SP(EdgeId.C, 0.6), SP(EdgeId.B, 0.7)], equilateral)


def plant_window(rng: random.Random, t: Triangle):
    """Prefix starting with the reduction pattern; returns it plus the
    travel time across the planted window."""
    edges = list(EdgeId)
    rng.shuffle(edges)
    alpha, beta, gamma = edges
    pts = [
        SP(alpha, rng.uniform(0, 1)),
        SP(beta, rng.uniform(0, 1)),
        SP(gamma, rng.uniform(0, 1)),
        SP(beta, rng.uniform(0, 1)),
    ]
    for _ in range(rng.randrange(0, 4)):
        pts.append(SP(rng.choice([beta, gamma]), rng.uniform(0, 1)))
    end = len(pts)
    pts.append(SP(alpha, rng.uniform(0, 1)))
    pos = [edge_point(t, p.edge, p.u) for p in pts]
    window_travel = sum(pos[i].dist(pos[i + 1]) for i in range(end))
    for _ in range(rng.randrange(0, 3)):
        pts.append(SP(rng.choice(list(EdgeId)), rng.uniform(0, 1)))
    return pts, window_travel


def test_cyclic_reduction_never_increases_gap(rng):
    for _ in range(1000):
        t = random_acute_triangle(rng)
        prefix, window_travel = plant_window(rng, t)
        s = cyclic_reduction(prefix, t)
        assert is_cyclic(s)
        assert gap_report(s, 1).overall <= window_travel + 1e-12 * t.diameter


def test_schedule_json_round_trip(equilateral, rng):
    pts = tuple(SP(e, rng.uniform(0, 1)) for e in (EdgeId.A, EdgeId.C, EdgeId.B))
    s = Schedule(equilateral, pts)
    blob = json.dumps(schedule_to_dict(s))
    s2 = schedule_from_dict(json.loads(blob))
    assert s2.generator == s.generator
    assert all(u.dist(v) < 1e-15 for u, v in zip(s.triangle.vertices, s2.triangle.vertices))


def test_schedule_from_dict_validation(equilateral):
    good = schedule_to_dict(Schedule(equilateral, (SP(EdgeId.A, 0.5), SP(EdgeId.B, 0.5), SP(EdgeId.C, 0.5))))
    bad = dict(good)
    bad["generator"] = [{"edge": "D", "u": 0.5}] * 3
    with pytest.raises(ValueError):
        schedule_from_dict(bad)
    bad2 = dict(good)
    bad2["triangle"] = [[0, 0], [1, 0]]
    with pytest.raises(ValueError):
        schedule_from_dict(bad2)

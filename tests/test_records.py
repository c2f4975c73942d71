"""Each tripatrol record behaves as the frozen dataclass it replaced
(tests/reference_records.py): repr, ==, hash, pickling, the assignment
guard, the constructor's signature, validation and messages."""

import copy
import dataclasses
import math
import pickle
import random

import pytest

import reference_records as ref
from tripatrol.geom import EdgeId, Point, Triangle
from tripatrol.greedy import GreedyTrace, greedy_run
from tripatrol.orthic import OrthicData, Unfolding, reflection_chain
from tripatrol.schedule import GapReport, Schedule, SchedulePoint
from tripatrol.search import SearchResult
from conftest import random_acute_triangle


def _point(rng):
    return Point(rng.uniform(-5, 5), rng.uniform(-5, 5))


def _schedule_point_args(rng):
    return EdgeId(rng.randrange(3)), rng.choice([0.0, 1.0, rng.random()])


def _triangle_args(rng):
    return random_acute_triangle(rng).vertices


def _schedule_args(rng):
    edges = [EdgeId.A, EdgeId.B, EdgeId.C] + [EdgeId(rng.randrange(3)) for _ in range(rng.randrange(4))]
    rng.shuffle(edges)
    # A list: the constructor stores it as a tuple.
    return random_acute_triangle(rng), [SchedulePoint(e, rng.random()) for e in edges]


def _gap_report_args(rng):
    gaps = {e: [rng.random() for _ in range(rng.randrange(1, 4))] for e in EdgeId}
    sups = {e: max(g) for e, g in gaps.items()}
    return (rng.randrange(1, 4), gaps, sups, max(sups.values()), rng.randrange(4, 40), rng.choice(["periodic", "observed"]))


def _orthic_data_args(rng):
    return (_point(rng), _point(rng), _point(rng), rng.random(), rng.random())


def _unfolding_args(rng):
    unf = reflection_chain(random_acute_triangle(rng))
    return tuple(getattr(unf, name) for name in Unfolding.__match_args__)


def _greedy_trace_args(rng):
    g = greedy_run(random_acute_triangle(rng), rng.random(), 20, rng.choice(["cw", "ccw"]))
    return tuple(getattr(g, name) for name in GreedyTrace.__match_args__)


def _search_result_args(rng):
    return (rng.random(), [rng.random() for _ in range(3)], rng.randrange(2, 300), rng.choice(["gap1", "gap2"]), rng.random())


RECORDS = {
    "Triangle": (Triangle, ref.Triangle, _triangle_args),
    "SchedulePoint": (SchedulePoint, ref.SchedulePoint, _schedule_point_args),
    "Schedule": (Schedule, ref.Schedule, _schedule_args),
    "GapReport": (GapReport, ref.GapReport, _gap_report_args),
    "OrthicData": (OrthicData, ref.OrthicData, _orthic_data_args),
    "Unfolding": (Unfolding, ref.Unfolding, _unfolding_args),
    "GreedyTrace": (GreedyTrace, ref.GreedyTrace, _greedy_trace_args),
    "SearchResult": (SearchResult, ref.SearchResult, _search_result_args),
}


def _raised(fn, *args, **kwargs) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return info.type, str(info.value)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_the_compared_fields_of_the_dataclass(name):
    new_cls, old_cls, draw = RECORDS[name]
    assert new_cls.__match_args__ == tuple(f.name for f in dataclasses.fields(old_cls) if f.compare)
    assert new_cls.__match_args__ == old_cls.__match_args__
    assert not hasattr(new_cls(*draw(random.Random(0))), "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_record_matches_its_dataclass_twin(name):
    new_cls, old_cls, draw = RECORDS[name]
    rng = random.Random(name)
    for _ in range(8):
        args, other_args = draw(rng), draw(rng)
        new, old = new_cls(*args), old_cls(*args)
        assert new_cls(**dict(zip(new_cls.__match_args__, args))) == new
        assert repr(new) == repr(old)

        # == and != against the same class, against the twin's class and
        # against any other.
        for a, b in ((new_cls(*args), old_cls(*args)), (new_cls(*other_args), old_cls(*other_args))):
            assert (new == a) == (old == b) and (new != a) == (old != b)
        assert new == new_cls(*args) and not new != new_cls(*args)
        assert new != new_cls(*other_args)
        for foreign in (old, Point(0.0, 0.0), tuple(args), None):
            assert new.__eq__(foreign) is NotImplemented
            assert new != foreign and not new == foreign

        try:
            want = hash(old)
        except TypeError as exc:
            assert _raised(hash, new) == (TypeError, str(exc))
        else:
            assert hash(new) == want

        for back in (pickle.loads(pickle.dumps(new)), copy.deepcopy(new), copy.copy(new)):
            assert type(back) is new_cls and back == new and repr(back) == repr(new)

        for field in new_cls.__match_args__ + ("no_such_field",):
            for fn, extra in ((setattr, (1.0,)), (delattr, ())):
                want_type, want_msg = _raised(fn, old, field, *extra)
                assert issubclass(want_type, AttributeError)
                got_type, got_msg = _raised(fn, new, field, *extra)
                assert issubclass(got_type, AttributeError) and got_msg == want_msg


@pytest.mark.parametrize("name, derived", [("Triangle", ("side_lengths", "diameter")), ("Schedule", ("positions",))])
def test_derived_fields_stay_out_of_eq_hash_and_repr(name, derived):
    new_cls, old_cls, draw = RECORDS[name]
    args = draw(random.Random(1))
    record, twin = new_cls(*args), new_cls(*args)
    for field in derived:
        assert getattr(record, field) == getattr(old_cls(*args), field)
        object.__setattr__(twin, field, ())
        assert field not in repr(record)
    assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)


def test_positional_and_keyword_construction():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.8)
    assert Triangle(a, b, c) == Triangle(a=a, b=b, c=c) == Triangle(a, c=c, b=b)
    assert GapReport(1, {}, {}, 0.5, 4).mode == "periodic"
    assert GapReport(1, {}, {}, 0.5, 4) == GapReport(t=1, per_edge_gaps={}, per_edge_sup={}, overall=0.5, horizon=4)
    assert GapReport(1, {}, {}, 0.5, 4, "observed") == GapReport(1, {}, {}, 0.5, 4, mode="observed")
    assert repr(GapReport(1, {}, {}, 0.5, 4)) == repr(ref.GapReport(1, {}, {}, 0.5, 4))


T = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.8))
A, B, C = (SchedulePoint(e, 0.5) for e in EdgeId)


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        ("Triangle", (Point(0, 0), Point(1, 0), Point(2, 0)), {}),
        ("Triangle", (Point(0, 0), Point(1e160, 0), Point(0, 1e160)), {}),
        ("Triangle", (Point(0, 0), Point(1, 0), None), {}),
        ("Triangle", (Point(0, 0), Point(1, 0)), {}),
        ("Triangle", (Point(0, 0), Point(1, 0), Point(0, 1)), {"a": Point(0, 0)}),
        ("Triangle", (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)), {}),
        ("SchedulePoint", (EdgeId.A, 1.5), {}),
        ("SchedulePoint", (EdgeId.A, -1e-300), {}),
        ("SchedulePoint", (EdgeId.A, math.nan), {}),
        ("SchedulePoint", (EdgeId.A, "0.5"), {}),
        ("SchedulePoint", (EdgeId.A,), {"v": 0.5}),
        ("Schedule", (T, (A, B)), {}),
        ("Schedule", (T, (A, B, B)), {}),
        ("Schedule", (T, 5), {}),
        ("Schedule", (T, (A, B, None)), {}),
        ("GapReport", (1, {}, {}, 0.5), {}),
        ("GapReport", (1, {}, {}, 0.5, 4, "periodic", 0), {}),
        ("OrthicData", (), {}),
        ("SearchResult", (1.0,), {"objective": "gap1"}),
    ],
)
def test_invalid_construction_raises_as_the_dataclass_did(name, args, kwargs):
    new_cls, old_cls, _ = RECORDS[name]
    assert _raised(new_cls, *args, **kwargs) == _raised(old_cls, *args, **kwargs)

"""Documented errors that no other test reaches: each raises the type and
message its code states, and on the command line each exits 2 with the
error as JSON."""

import json
import math

import pytest

from tripatrol.cli import main
from tripatrol.geom import EdgeId, Point, Triangle
from tripatrol.greedy import greedy_limit_gap, greedy_run, recurrence_constants
from tripatrol.orthic import lower_bound_profile, orthic_perimeter, orthic_schedule
from tripatrol.schedule import (
    SchedulePoint,
    gap_report,
    prefix_gap_report,
    schedule_from_dict,
    travel_time,
)

EQUILATERAL = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3.0) / 2.0))
OBTUSE = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.2, 0.1))
POINTS = [SchedulePoint(e, 0.5) for e in (EdgeId.A, EdgeId.C, EdgeId.B)]
TRIANGLE_DOC = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]
GENERATOR_DOC = [{"edge": e, "u": 0.5} for e in "ACB"]
ANGLES = "angles must lie in (0, pi/2]"

CASES = {
    "orthic-no-triangle": (
        main, (["orthic"],), "ValueError", "provide --vertices or --angles-deg/--angles-rad"
    ),
    "orthic-angles-90-90": (
        main, (["orthic", "--angles-deg", "90", "90"],),
        "ValueError", "angles must be positive and sum below pi",
    ),
    "orthic-side-0": (
        main, (["orthic", "--angles-deg", "60", "60", "--side", "0"],),
        "ValueError", "--side must be positive",
    ),
    "lower-bound-k0": (lower_bound_profile, (EQUILATERAL, 0), "ValueError", "k_max must be >= 1"),
    "gap-report-t0": (
        gap_report, (orthic_schedule(EQUILATERAL), 0), "ValueError", "gap order t must be >= 1"
    ),
    "gap-report-horizon-3": (
        gap_report, (orthic_schedule(EQUILATERAL), 1, 3),
        "ValueError", "horizon 3 shorter than one period plus a revisit",
    ),
    "gap-report-order-3-horizon-4": (
        gap_report, (orthic_schedule(EQUILATERAL), 3, 4),
        "ValueError", "horizon too short: edge A visited 2 time(s), need > 3",
    ),
    "prefix-gap-report-t0": (
        prefix_gap_report, (POINTS, EQUILATERAL, 0), "ValueError", "gap order t must be >= 1"
    ),
    "prefix-gap-report-one-period": (
        prefix_gap_report, (POINTS, EQUILATERAL, 1), "ValueError", "no t-gap observable within the prefix"
    ),
    "prefix-gap-report-two-edges": (
        prefix_gap_report, (POINTS[:2], EQUILATERAL, 1), "InfeasibleSchedule", "edge B never visited"
    ),
    "greedy-start-outside": (greedy_run, (EQUILATERAL, 1.5), "ValueError", "start_u must lie in [0, 1]"),
    "greedy-zero-cycles": (greedy_run, (EQUILATERAL, 0.5, 0), "ValueError", "num_cycles must be >= 1"),
    "greedy-direction": (
        greedy_run, (EQUILATERAL, 0.5, 10, "up"), "ValueError", "direction must be 'cw' or 'ccw'"
    ),
    "travel-time-backwards": (
        travel_time, (orthic_schedule(EQUILATERAL), 2, 1), "ValueError", "need i <= j"
    ),
    "recurrence-direction": (
        recurrence_constants, (EQUILATERAL, "up"), "ValueError", "direction must be 'cw' or 'ccw'"
    ),
    "orthic-perimeter-obtuse": (
        orthic_perimeter, (OBTUSE,), "ValueError", f"{ANGLES} for the perimeter formula"
    ),
    "greedy-limit-gap-obtuse": (greedy_limit_gap, (OBTUSE,), "ValueError", ANGLES),
    "schedule-list": (
        schedule_from_dict, ([],), "ValueError", "schedule document must be a JSON object"
    ),
    "schedule-two-points": (
        schedule_from_dict,
        ({"triangle": TRIANGLE_DOC, "generator": GENERATOR_DOC[:2]},),
        "ValueError",
        '"generator" must be a list of at least 3 points',
    ),
    "schedule-entry-without-u": (
        schedule_from_dict,
        ({"triangle": TRIANGLE_DOC, "generator": GENERATOR_DOC[:2] + [{"edge": "B"}]},),
        "ValueError",
        'generator entries must be {"edge": "A|B|C", "u": number}',
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_documented_error(name, capsys):
    fn, args, kind, message = CASES[name]
    if fn is main:
        assert main(*args) == 2
        doc = json.loads(capsys.readouterr().out)
        got = (doc["error"], doc["message"])
    else:
        with pytest.raises(Exception) as info:
            fn(*args)
        got = (type(info.value).__name__, str(info.value))
    assert got == (kind, message)

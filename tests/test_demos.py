"""Each demo, run as a fresh process in an empty directory, prints exactly
its golden stdout; demo 02 also writes exactly its golden out/unfolding.svg.

The goldens in tests/golden/demos/ hold the demos' expected output; a change
that means to move a demo's output regenerates its golden.
"""

import pathlib

import pytest

from test_cli import run_fresh

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "demos"
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_byte_identical(demo, tmp_path):
    proc = run_fresh([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text()
    if demo.stem == "02_unfolding_and_channel":
        assert (tmp_path / "out" / "unfolding.svg").read_bytes() == (GOLDEN / "unfolding.svg").read_bytes()

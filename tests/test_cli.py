import json
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import tripatrol
from tripatrol.cli import dumps, main
from tripatrol.search import MAX_GRID_FLOATS
from make_goldens import EQ, EQ_SCHEDULE, RI_SCHEDULE, invocations

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(tripatrol.__file__).resolve().parents[1]


def run_fresh(argv, cwd):
    """Run `python <argv>` in a new interpreter that imports tripatrol from SRC."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def run_cli(args, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def sched_files(tmp_path):
    eq = tmp_path / "eq_schedule.json"
    ri = tmp_path / "ri_schedule.json"
    eq.write_text(json.dumps(EQ_SCHEDULE))
    ri.write_text(json.dumps(RI_SCHEDULE))
    return str(eq), str(ri)


@pytest.mark.parametrize("name", sorted(invocations("EQ", "RI")))
def test_golden_outputs(name, capsys, monkeypatch, tmp_path, sched_files):
    args = invocations(*sched_files)[name]
    want_out = (GOLDEN / f"{name}.out").read_text()
    want_code = int((GOLDEN / f"{name}.exit").read_text())
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == want_code
    assert out == want_out
    # Byte-identical rerun.
    code2, out2 = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code2 == code and out2 == out
    svg_golden = GOLDEN / f"{name}.svg"
    if svg_golden.exists():
        produced = (tmp_path / "out.svg").read_bytes()
        assert produced == svg_golden.read_bytes()


@pytest.mark.parametrize("name", sorted(invocations("EQ", "RI")))
def test_golden_outputs_fresh_process(name, tmp_path, sched_files):
    """The real entry point, `python -m tripatrol.cli`, reproduces each golden;
    -X importtime lists every module it imports.  Only `search` may import
    numpy, and with it inspect, which numpy imports; none imports
    dataclasses."""
    args = invocations(*sched_files)[name]
    proc = run_fresh(["-X", "importtime", "-m", "tripatrol.cli", *args], tmp_path)
    assert proc.returncode == int((GOLDEN / f"{name}.exit").read_text())
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()
    svg_golden = GOLDEN / f"{name}.svg"
    if svg_golden.exists():
        assert (tmp_path / "out.svg").read_bytes() == svg_golden.read_bytes()
    imported = set(re.findall(r"\|\s+([\w.]+)$", proc.stderr, re.MULTILINE))
    assert ("numpy" in imported) == (args[0] == "search")
    assert "dataclasses" not in imported
    assert "inspect" not in imported or args[0] == "search"


def test_package_exports_are_lazy(tmp_path):
    """Importing the package and the CLI loads neither numpy nor dataclasses,
    inspect or typing.  -S leaves out site, whose .pth files may import
    typing themselves."""
    probe = "import sys, tripatrol, tripatrol.cli; print(sorted({'numpy', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = run_fresh(["-S", "-c", probe], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    assert tripatrol.grid_search_3periodic is tripatrol.search.grid_search_3periodic
    assert tripatrol.SearchResult is tripatrol.search.SearchResult
    for name in tripatrol.__all__:
        getattr(tripatrol, name)
    with pytest.raises(AttributeError):
        tripatrol.no_such_name


def test_svg_is_valid_xml_with_expected_elements(capsys, monkeypatch, tmp_path):
    code, _ = run_cli(
        ["channel", *EQ, "--lambda", "0.7", "--render", "out.svg"],
        capsys,
        monkeypatch,
        tmp_path,
    )
    assert code == 0
    root = ET.parse(tmp_path / "out.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f".//{ns}polygon")
    lines = root.findall(f".//{ns}line")
    plines = root.findall(f".//{ns}polyline")
    assert len(polys) == 6
    assert len(lines) == 3
    assert len(plines) == 1


def test_report_floats_round_trip(capsys, monkeypatch, tmp_path):
    code, out = run_cli(["orthic", *EQ], capsys, monkeypatch, tmp_path)
    assert code == 0
    doc = json.loads(out)
    per = doc["results"]["perimeter_formula"]
    assert json.loads(dumps(doc)) == doc
    assert per == pytest.approx(1.5, rel=1e-12)


def test_exit_code_2_on_domain_errors(capsys, monkeypatch, tmp_path):
    code, out = run_cli(
        ["orthic", "--vertices", "0,0", "1,0", "0.5,0.1"], capsys, monkeypatch, tmp_path
    )
    assert code == 2
    assert json.loads(out)["error"] == "NotAcute"
    code, out = run_cli(["channel", *EQ, "--lambda", "1.5"], capsys, monkeypatch, tmp_path)
    assert code == 2
    assert json.loads(out)["error"] == "OutsideChannel"
    code, out = run_cli(
        ["orthic", "--vertices", "0,0", "1,0", "oops"], capsys, monkeypatch, tmp_path
    )
    assert code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["orthic", "--vertices", "0,0", "1,0"], "argument --vertices: expected 3 arguments"),
        (["search", *EQ, "--period", "5"], "argument --period: invalid choice: 5 (choose from 3, 6)"),
    ],
    ids=["no-subcommand", "unknown-subcommand", "vertices-arity", "period-5"],
)
def test_usage_errors_are_json(args, message, capsys, monkeypatch, tmp_path):
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "UsageError" and doc["message"].startswith(message)


@pytest.mark.parametrize("vertices", [EQ[1:], ["0,0", "1,0", "0.45,0.8"]], ids=["golden-equilateral", "scalene"])
def test_vertices_may_be_negative(vertices, capsys, monkeypatch, tmp_path):
    """The mirror image x -> -x of a triangle has the same orthic perimeter."""
    reports = []
    for spec in (vertices, ["-" + v for v in vertices]):
        code, out = run_cli(["orthic", "--vertices", *spec], capsys, monkeypatch, tmp_path)
        assert code == 0, out
        reports.append(json.loads(out))
    plain, mirrored = reports
    assert [x for x, _ in mirrored["input"]["vertices"]] == [-x for x, _ in plain["input"]["vertices"]]
    for key in ("perimeter_coordinates", "perimeter_formula"):
        assert mirrored["results"][key] == pytest.approx(plain["results"][key], rel=1e-12, abs=0)
    code, out = run_cli(["orthic", "--vertices", "-.5,0", "0.5,0", "-1e-3,-2"], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert json.loads(out)["input"]["vertices"] == [[-0.5, 0.0], [0.5, 0.0], [-0.001, -2.0]]


def test_exit_code_2_on_non_finite_report(capsys, monkeypatch, tmp_path):
    # At this side length the v_k parallelogram bound's |v . (T - R)|
    # overflows to inf.
    code, out = run_cli(
        ["unfold", "--angles-deg", "60", "60", "--side", "1e154"],
        capsys,
        monkeypatch,
        tmp_path,
    )
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "non-finite number in report"}


@pytest.mark.parametrize(
    "args",
    [["channel"], ["unfold"], ["render", "--out", "out.svg"]],
    ids=["channel", "unfold", "render"],
)
def test_exit_code_2_on_channel_lines_too_large_for_floats(args, capsys, monkeypatch, tmp_path):
    # The channel checks stay finite at this side length (they used to
    # overflow and exit 1); a channel line's intersection point overflows.
    code, out = run_cli([*args, "--angles-deg", "60", "60", "--side", "1.2e154"], capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith("non-finite coordinates")


@pytest.mark.parametrize("side", ["1e155", "1e160"])
@pytest.mark.parametrize("command", ["orthic", "search"])
def test_exit_code_2_on_triangles_too_large_for_floats(command, side, capsys, monkeypatch, tmp_path):
    # The cross product and the squared diameter overflow; such a triangle
    # is not collinear, and says so.
    code, out = run_cli([command, "--angles-deg", "60", "60", "--side", side], capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "DegenerateTriangle"
    assert doc["message"].endswith(" too large for the float range")


@pytest.mark.parametrize("period, slabs", [("3", 3), ("6", 6)])
def test_exit_code_2_on_oversized_grid(period, slabs, capsys, monkeypatch, tmp_path):
    # The smallest refused grid: rejected before any array is allocated,
    # where a larger one used to exhaust memory.
    n = math.isqrt(MAX_GRID_FLOATS // slabs)
    args = ["search", "--period", period, "--grid", str(n), "--angles-deg", "60", "60"]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith(f"grid_n {n} needs ")


def test_exit_code_2_on_bad_vertices(capsys, monkeypatch, tmp_path):
    code, out = run_cli(
        ["orthic", "--vertices", "nan,0", "1,0", "0,1"], capsys, monkeypatch, tmp_path
    )
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "non-finite coordinates (nan, 0.0)"}
    code, out = run_cli(
        ["channel", "--vertices", "0,0", "1,0", "2,0"], capsys, monkeypatch, tmp_path
    )
    assert code == 2
    assert json.loads(out) == {
        "error": "DegenerateTriangle",
        "message": "collinear vertices Point(x=0.0, y=0.0), Point(x=1.0, y=0.0), Point(x=2.0, y=0.0)",
    }


@pytest.mark.parametrize("side", ["1e-12", "1e-14", "1e-100"])
@pytest.mark.parametrize("command", ["orthic", "channel", "unfold", "greedy"])
def test_tiny_triangles_succeed(command, side, capsys, monkeypatch, tmp_path):
    args = [command, "--angles-deg", "60", "60", "--side", side]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 0, out


@pytest.mark.parametrize(
    "command,spec",
    [
        (command, ["--angles-deg", "60", "60", "--side", side])
        for side in ("3e8", "1e13", "1e153")
        for command in ("channel", "unfold", "render")
    ]
    + [("channel", ["--vertices", "0,0", "2e8,0", "9e7,1.6e8"])],
    ids=lambda v: v if isinstance(v, str) else v[-1],
)
def test_large_triangles_succeed(command, spec, capsys, monkeypatch, tmp_path):
    # The channel lines step one diameter, not one unit, along the orthic line.
    extra = ["--out", "out.svg"] if command == "render" else []
    code, out = run_cli([command, *spec, *extra], capsys, monkeypatch, tmp_path)
    assert code == 0, out


def test_exit_code_3_on_infeasible_schedule(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "triangle": [[0, 0], [1, 0], [0.5, 0.8660254037844386]],
                "generator": [
                    {"edge": "A", "u": 0.5},
                    {"edge": "A", "u": 0.2},
                    {"edge": "C", "u": 0.5},
                ],
            }
        )
    )
    code, out = run_cli(["gap", "--schedule", str(bad)], capsys, monkeypatch, tmp_path)
    assert code == 3
    assert json.loads(out)["error"] == "InfeasibleSchedule"


def test_exit_code_2_on_schema_violation(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"triangle": [[0, 0], [1, 0]], "generator": []}))
    code, out = run_cli(["gap", "--schedule", str(bad)], capsys, monkeypatch, tmp_path)
    assert code == 2
    bad.write_text("{not json")
    code, _ = run_cli(["gap", "--schedule", str(bad)], capsys, monkeypatch, tmp_path)
    assert code == 2


@pytest.mark.parametrize(
    "path, value",
    [
        (("generator", 0, "u"), None),
        (("generator", 1, "u"), [0.5]),
        (("generator", 2, "u"), {"u": 0.5}),
        (("generator", 0, "u"), True),
        (("generator", 1, "u"), "0.5"),
        (("triangle", 1, 0), None),
        (("triangle", 2, 1), 10**400),
    ],
    ids=["u-null", "u-list", "u-object", "u-bool", "u-string", "vertex-null", "vertex-int-beyond-float"],
)
def test_exit_code_2_on_non_numeric_schedule_value(path, value, capsys, monkeypatch, tmp_path):
    doc = json.loads(json.dumps(EQ_SCHEDULE))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(["gap", "--schedule", str(bad)], capsys, monkeypatch, tmp_path)
    assert code == 2, out
    err = json.loads(out)
    assert err["error"] == "ValueError" and "must be a number" in err["message"]


@pytest.mark.parametrize(
    "args",
    [["channel", *EQ, "--lambda", "0.7", "--render", "out.svg"], ["render", *EQ, "--out", "out.svg"]],
    ids=["channel-render", "render"],
)
def test_rendering_builds_the_unfolding_once(args, builds, capsys, monkeypatch, tmp_path):
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert builds == {"builds": 1, "channel_checks": 6}


@pytest.mark.parametrize("value", ["1e-7", "nan"])
def test_tolerance_is_fixed(value, capsys, monkeypatch, tmp_path, sched_files):
    """The tolerance is a constant: no environment variable changes a report."""
    monkeypatch.setenv("TRIPATROL_REL_TOL", value)
    args = invocations(*sched_files)["orthic_equilateral"]
    golden = (GOLDEN / "orthic_equilateral.out").read_text()
    assert run_cli(args, capsys, monkeypatch, tmp_path) == (0, golden)
    proc = run_fresh(["-m", "tripatrol.cli", *args], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, golden)


def test_gap_cross_checks_triangle_spec(capsys, monkeypatch, tmp_path, sched_files):
    eq_sched, _ = sched_files
    code, _ = run_cli(
        ["gap", "--schedule", eq_sched, *EQ], capsys, monkeypatch, tmp_path
    )
    assert code == 0
    code, out = run_cli(
        ["gap", "--schedule", eq_sched, "--vertices", "0,0", "2,0", "1,1.7"],
        capsys,
        monkeypatch,
        tmp_path,
    )
    assert code == 2


def test_greedy_not_converged_reports_observed_gaps(capsys, monkeypatch, tmp_path):
    code, out = run_cli(
        ["greedy", *EQ, "--start", "0.0", "--cycles", "1"], capsys, monkeypatch, tmp_path
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["converged"] is False
    assert "observed_gap1" in doc["results"]
    # One cycle revisits BC once, so only edge A has an observed 1-gap.
    assert list(doc["results"]["observed_gap1"]["per_edge_sup"]) == ["A"]


def test_angle_and_vertex_specs_agree(capsys, monkeypatch, tmp_path):
    code1, out1 = run_cli(
        ["orthic", "--angles-rad", str(math.pi / 3), str(math.pi / 3)],
        capsys,
        monkeypatch,
        tmp_path,
    )
    code2, out2 = run_cli(["orthic", *EQ], capsys, monkeypatch, tmp_path)
    assert code1 == code2 == 0
    p1 = json.loads(out1)["results"]["perimeter_formula"]
    p2 = json.loads(out2)["results"]["perimeter_formula"]
    assert p1 == pytest.approx(p2, rel=1e-9)

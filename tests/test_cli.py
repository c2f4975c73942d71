import contextlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

import tripatrol
from tripatrol import cli
from tripatrol.cli import MAX_ROWS, dumps, main
from tripatrol.search import MAX_GRID_FLOATS
from conftest import random_acute_triangle
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
    -X importtime lists every module it imports.  Only `search --period 6`
    may import numpy, and with it inspect, which numpy imports; none
    imports dataclasses."""
    args = invocations(*sched_files)[name]
    proc = run_fresh(["-X", "importtime", "-m", "tripatrol.cli", *args], tmp_path)
    assert proc.returncode == int((GOLDEN / f"{name}.exit").read_text())
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()
    svg_golden = GOLDEN / f"{name}.svg"
    if svg_golden.exists():
        assert (tmp_path / "out.svg").read_bytes() == svg_golden.read_bytes()
    imported = set(re.findall(r"\|\s+([\w.]+)$", proc.stderr, re.MULTILINE))
    grid6 = args[0] == "search" and args[args.index("--period") + 1] == "6"
    assert ("numpy" in imported) == grid6
    assert "dataclasses" not in imported
    assert "inspect" not in imported or grid6


NO_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None  # import numpy now fails, wherever numpy is installed
from tripatrol import *
t = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.45, 0.8))
orthic_triangle(t)
gap_report(sub_orthic_schedule(t, 0.3), 2)
lower_bound_profile(t, 10)
greedy_run(t, 0.25)
greedy_limit_gap(t)
greedy_ratio(angles(t))
greedy_ratio_extremes(100)
for grid_n in (4, 200):
    print(repr(grid_search_3periodic(t, grid_n)))
for grid_n in (1, 4):  # refused before numpy is needed; then a 6-periodic call
    try:
        grid_search_6periodic_gap2(t, grid_n)
    except (ValueError, ImportError) as exc:
        print(type(exc).__name__)
"""


def test_package_exports_are_lazy(tmp_path):
    """Importing the package and the CLI loads neither numpy nor dataclasses,
    inspect or typing.  -S leaves out site, whose .pth files may import
    typing themselves.  Without numpy, the star-import, every construction
    and the 3-periodic oracle run, the latter with the same results as
    here, and a 6-periodic grid is refused as before; the first 6-periodic
    call is what loads numpy."""
    probe = "import sys, tripatrol, tripatrol.cli; print(sorted({'numpy', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = run_fresh(["-S", "-c", probe], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    proc = run_fresh(["-S", "-c", NO_NUMPY_PROBE], tmp_path)
    t = tripatrol.Triangle(tripatrol.Point(0.0, 0.0), tripatrol.Point(1.0, 0.0), tripatrol.Point(0.45, 0.8))
    grid3 = "".join(f"{tripatrol.grid_search_3periodic(t, n)!r}\n" for n in (4, 200))
    assert proc.returncode == 0 and proc.stdout == grid3 + "ValueError\nModuleNotFoundError\n", proc.stderr
    probe = (
        "import sys\nfrom tripatrol import Point, Triangle, grid_search_6periodic_gap2\n"
        "loaded = 'numpy' in sys.modules\n"
        "grid_search_6periodic_gap2(Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.45, 0.8)), 4)\n"
        "print(loaded, 'numpy' in sys.modules)"
    )
    proc = run_fresh(["-c", probe], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "False True\n", proc.stderr
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


def _svg_frame(args, capsys, monkeypatch, tmp_path):
    """The viewBox numbers and the group's stroke-width of a render."""
    code, _ = run_cli(["render", *args, "--out", "out.svg"], capsys, monkeypatch, tmp_path)
    assert code == 0
    root = ET.parse(tmp_path / "out.svg").getroot()
    group = root.find("{http://www.w3.org/2000/svg}g")
    return [float(x) for x in root.get("viewBox").split()] + [float(group.get("stroke-width"))]


def test_svg_frame_scales_with_the_triangle(capsys, monkeypatch, tmp_path):
    """The view box pads by a share of the drawing's extent alone, so a
    triangle 1e-12 the size draws in a frame 1e-12 the size."""
    unit = _svg_frame(["--angles-deg", "60", "60", "--side", "1"], capsys, monkeypatch, tmp_path)
    tiny = _svg_frame(["--angles-deg", "60", "60", "--side", "1e-12"], capsys, monkeypatch, tmp_path)
    assert tiny == pytest.approx([x * 1e-12 for x in unit], rel=1e-6)


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


# Thin acute triangles: angle B 7.5e-8 and 3.4e-7 rad, A and C near right angles.
THIN_GREEDY = (
    "3.139127161137748,3.664858745148333 2.1329630925276337,1.5501374260786358 3.1391273198518954,3.6648586696336585",
    "6.869160172560454,-3.978537334885198 4.750995631442352,-4.771344367472793 6.86916043894691,-3.9785380465976568",
)


@pytest.mark.parametrize("vertices", THIN_GREEDY, ids=["escape", "limit"])
def test_greedy_succeeds_on_thin_triangles(vertices, capsys, monkeypatch, tmp_path):
    # Each once failed on an edge parameter rounded outside [0, 1] on the
    # short edge AC: the first with exit 1 on a foot of the walk at
    # u = 1.0000000011, the second with exit 2 on the limit cycle's second
    # point at u = 1.00000000012.
    args = ["greedy", "--vertices", *vertices.split(), "--direction", "ccw"]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 0, out


def test_orthic_succeeds_on_a_thin_triangle(capsys, monkeypatch, tmp_path):
    # Angle B is 7.8e-9 rad: the foot K's raw parameter on BC rounds to
    # 1 + 2^-52, which once exited 2 with "edge parameter
    # 1.0000000000000002 outside [0, 1]".
    vertices = "3.093013915764694,1.1045671530825059 4.480577485588302,2.52264103881799 3.0930139046465754,1.1045671639614145"
    code, out = run_cli(["orthic", "--vertices", *vertices.split()], capsys, monkeypatch, tmp_path)
    assert code == 0, out


def test_channel_succeeds_on_a_thin_near_right_triangle(capsys, monkeypatch, tmp_path):
    # Its float side lengths sort apart from the exact ones: labeled by
    # them, the stop on AC at lambda = -1 was u = 1.72, and channel exited 2
    # with "edge parameter 1.7214416026415904 outside [0, 1]".
    vertices = "1.0340287538396467,1.7061208890160318 2.82327056875899,0.9411694534398043 1.0340287618798996,1.7061209078223973"
    code, out = run_cli(["channel", "--vertices", *vertices.split(), "--lambda", "-1"], capsys, monkeypatch, tmp_path)
    assert code == 0, out


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["orthic", "--vertices", "0,0", "1,0"], "argument --vertices: expected 3 arguments"),
        (["search", *EQ, "--period", "5"], "argument --period: invalid choice: 5 (choose from 3, 6)"),
        (
            ["orthic", "--vertices", "0,0", "1,0", "0.5,0.8", "--angles-deg", "60", "60"],
            "argument --angles-deg: not allowed with argument --vertices",
        ),
        (
            ["gap", "--schedule", "s.json", "--angles-rad", "1", "1", *EQ],
            "argument --vertices: not allowed with argument --angles-rad",
        ),
        (
            ["channel", "--angles-deg", "60", "60", "--angles-rad", "1", "1"],
            "argument --angles-rad: not allowed with argument --angles-deg",
        ),
    ],
    ids=["no-subcommand", "unknown-subcommand", "vertices-arity", "period-5", "orthic-two-specs", "gap-two-specs", "channel-two-specs"],
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


@pytest.mark.parametrize("value", ["-1e-05", "-0.5", "-1"])
def test_option_values_may_be_negative(value, capsys, monkeypatch, tmp_path):
    # argparse reads "-1e-05" as an option unless it is shielded as "-1,0" is.
    code, out = run_cli(["channel", "--angles-deg", "60", "60", "--lambda", value], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert json.loads(out)["results"]["lambda"] == float(value)


def test_exit_code_2_on_non_finite_report(capsys, monkeypatch, tmp_path):
    # The constructions run on the local frame, so no input that passes the
    # too-large check overflows a report (at this side length the v_k
    # bound's |v . (T - R)| once did); a non-finite value that reached the
    # report would still be refused.
    args = ["unfold", "--angles-deg", "60", "60", "--side", "1e154"]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert json.loads(out)["results"]["two_orthic_perimeter"] == pytest.approx(3e154, rel=1e-12)
    monkeypatch.setattr(cli, "orthic_perimeter", lambda t: math.inf)
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "non-finite number in report"}


@pytest.mark.parametrize(
    "args",
    [["channel"], ["unfold"], ["render", "--out", "out.svg"]],
    ids=["channel", "unfold", "render"],
)
def test_exit_code_2_on_channel_lines_too_large_for_floats(args, capsys, monkeypatch, tmp_path):
    # On the local frame the channel lines stay finite up to the largest
    # side the float range allows (at 1.2e154 an intersection point once
    # overflowed); past it, the triangle itself is refused.
    code, out = run_cli([*args, "--angles-deg", "60", "60", "--side", "1.2e154"], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    code, out = run_cli([*args, "--angles-deg", "60", "60", "--side", "1.4e154"], capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "DegenerateTriangle"
    assert doc["message"].endswith(" too large for the float range")


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
    if period == "3":
        assert doc["message"] == f"grid_n {n} is above the 3-periodic search's limit of {n - 1}"
    else:
        assert doc["message"].startswith(f"grid_n {n} needs ")


@pytest.mark.parametrize("period", ["3", "6"])
def test_search_refuses_an_obtuse_triangle_before_any_grid_work(period, capsys, monkeypatch, tmp_path):
    # The grid oracles fail the test if called: the orthic reference is
    # computed first, so the refusal costs no grid work at any --grid.
    def no_grid(*args):
        raise AssertionError("grid search ran on an obtuse triangle")

    monkeypatch.setattr("tripatrol.search.grid_search_3periodic", no_grid)
    monkeypatch.setattr("tripatrol.search.grid_search_6periodic_gap2", no_grid)
    args = ["search", "--period", period, "--grid", "400", "--angles-deg", "100", "40"]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError",
        "message": "angles must lie in (0, pi/2] for the perimeter formula",
    }


@pytest.mark.parametrize(
    "args, option, value",
    [
        (["unfold", *EQ, "-k", str(MAX_ROWS + 1)], "-k", MAX_ROWS + 1),
        (["greedy", *EQ, "--cycles", str(MAX_ROWS + 1)], "--cycles", MAX_ROWS + 1),
        (["gap", "--schedule", "SCHED", "--horizon", str(MAX_ROWS + 1)], "--horizon", MAX_ROWS + 1),
        # The 3-point schedule's default horizon is 3 (t + 1) + 1 sequence elements.
        (["gap", "--schedule", "SCHED", "--t", str((MAX_ROWS - 1) // 3)], "--t", (MAX_ROWS - 1) // 3),
    ],
    ids=["k", "cycles", "horizon", "t"],
)
def test_exit_code_2_on_too_many_rows(args, option, value, capsys, monkeypatch, tmp_path, sched_files):
    # The smallest refused sizes: rejected before any computation, where a
    # huge one used to exhaust memory.
    if option == "--t":  # one less gives at most MAX_ROWS
        assert 3 * value + 1 <= MAX_ROWS
    args = [sched_files[0] if a == "SCHED" else a for a in args]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith(f"{option} {value} gives ")
    assert doc["message"].endswith(f" rows, above the limit of {MAX_ROWS}")


def test_gap_on_a_deeply_nested_file_exits_2(capsys, monkeypatch, tmp_path):
    # json.load recurses once per level and hits the recursion limit.
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**4 + "]" * 10**4)
    code, out = run_cli(["gap", "--schedule", str(path)], capsys, monkeypatch, tmp_path)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "schedule file is nested too deeply"}


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    # A reader that quits early (`tripatrol orthic ... | head -1`), here a
    # pipe whose read end is closed before the report is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tripatrol.cli", "orthic", "--angles-deg", "60", "60"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


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


GATE_VERTICES = ((0.0, 0.0), (1.0, 0.0), (0.45, 0.8))
GATE_SPECS = {
    **{
        f"moved_{o:g}": ["--vertices", *(f"{x + o!r},{y + o!r}" for x, y in GATE_VERTICES)]
        for o in (1e6, 1e7, 1e8, 1e12)
    },
    **{f"side_{side}": ["--angles-deg", "60", "60", "--side", side] for side in ("1e-160", "1e-200")},
}


@pytest.mark.parametrize("spec", GATE_SPECS)
@pytest.mark.parametrize("command", ["orthic", "channel", "unfold", "greedy"])
def test_far_and_tiny_triangles_succeed(command, spec, capsys, monkeypatch, tmp_path):
    # Each construction runs on the triangle's local frame, so neither an
    # offset of 1e12 diameters nor sides whose squares underflow lose it;
    # each report holds the paper's identities.
    code, out = run_cli([command, *GATE_SPECS[spec]], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    res = json.loads(out)["results"]
    if command == "orthic":
        assert res["perimeter_coordinates"] == pytest.approx(res["perimeter_formula"], rel=1e-12)
    elif command == "channel":
        assert res["gap2"] == pytest.approx(res["two_orthic_perimeter"], rel=1e-12)
    elif command == "unfold":
        assert 0.0 < res["final_gap_to_limit"] < 0.01 * res["two_orthic_perimeter"]
    else:
        assert res["converged"] and res["iterations_to_converge"] <= 20


def test_tiny_orthic_reference_keeps_its_digits(capsys, monkeypatch, tmp_path):
    # The angles are read on the local frame: at side 1e-160 the products of
    # two sides no longer fall into the subnormals.
    args = ["search", "--angles-deg", "60", "60", "--side", "1e-160", "--period", "3"]
    code, out = run_cli(args, capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert json.loads(out)["results"]["orthic_reference"] == pytest.approx(1.5e-160, rel=1e-14)


@st.composite
def fuzz_argv(draw, tmp: pathlib.Path) -> list[str]:
    """A subcommand on a random acute triangle that is moved by 10^3 to
    10^15, scaled by 10^+-(150 to 300), or neither."""
    t = random_acute_triangle(random.Random(draw(st.integers(0, 2**32 - 1))), margin=0.05)
    kind = draw(st.sampled_from(["plain", "moved", "tiny", "huge"]))
    move = 10.0 ** draw(st.floats(3.0, 15.0)) if kind == "moved" else 0.0
    scale = 10.0 ** draw(st.floats(150.0, 300.0)) if kind in ("tiny", "huge") else 1.0
    if kind == "tiny":
        scale = 1.0 / scale
    points = [[v.x * scale + move, v.y * scale + move] for v in t.vertices]
    vertices = [f"{x!r},{y!r}" for x, y in points]
    command = draw(st.sampled_from(["orthic", "greedy", "channel", "unfold", "search", "render", "gap"]))
    extra = {
        "greedy": ["--direction", draw(st.sampled_from(["cw", "ccw"]))],
        "channel": ["--lambda", repr(draw(st.floats(-1.0, 1.0)))],
        "unfold": ["-k", "5"],
        "search": ["--grid", "8", "--period", draw(st.sampled_from(["3", "6"]))],
        "render": ["--out", str(tmp / "out.svg")],
    }.get(command, [])
    if command == "gap":
        doc = {"triangle": points, "generator": [{"edge": e, "u": 0.5} for e in "ACB"]}
        (tmp / "fuzz.json").write_text(json.dumps(doc))
        return ["gap", "--schedule", str(tmp / "fuzz.json"), "--t", "2"]
    return [command, "--vertices", *vertices, *extra]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_fuzzed_inputs_never_exit_1(fuzz_dir):
    # A result (0) or a documented domain error (2): the too-large verdict
    # on huge sides, or a triangle rounded to non-acute far out; never an
    # internal error (1).
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(argv=fuzz_argv(fuzz_dir))
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 2), (argv, out.getvalue())
        if code == 2:
            assert json.loads(out.getvalue())["error"] in ("DegenerateTriangle", "NotAcute"), (argv, out.getvalue())

    run()


SIX_POINT_SCHEDULE = {
    "triangle": RI_SCHEDULE["triangle"],
    "generator": [{"edge": e, "u": u} for e, u in zip("ACBACB", (0.25, 0.5, 0.75, 0.6, 0.4, 0.2))],
}
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.text(max_size=3),
    st.lists(st.floats(-2.0, 2.0), max_size=3), st.dictionaries(st.sampled_from(["edge", "u"]), st.floats(0.0, 1.0)),
)
OUTSIDE_UNIT = st.one_of(st.floats(-10.0, -1e-12), st.floats(1.0 + 1e-12, 10.0), st.sampled_from([-1e-300, 1.0 + 2**-52]))


@st.composite
def mutated_schedule(draw):
    """A schedule document after one or two mutations: a value of the wrong
    type, a missing key, a non-finite number, u outside [0, 1], an unknown
    edge, or a generator point dropped or repeated."""
    doc = json.loads(json.dumps(draw(st.sampled_from([EQ_SCHEDULE, RI_SCHEDULE, SIX_POINT_SCHEDULE]))))
    for _ in range(draw(st.integers(1, 2))):
        if not isinstance(doc, dict):
            break
        gen, tri = doc.get("generator"), doc.get("triangle")
        entries = [e for e in gen if isinstance(e, dict)] if isinstance(gen, list) else []
        vertices = [v for v in tri if isinstance(v, list)] if isinstance(tri, list) else []
        coordinates = [(v, i) for v in vertices for i in range(len(v))]
        numbers = coordinates + [(e, "u") for e in entries]
        kind = draw(st.sampled_from(["type", "missing", "non-finite", "u-outside", "edge", "drop", "repeat"]))
        if kind == "type":
            holders = [(doc, None), (doc, "triangle"), (doc, "generator"), *numbers]
            holder, key = draw(st.sampled_from(holders + [(e, "edge") for e in entries]))
            if key is None:
                doc = draw(JUNK)
            else:
                holder[key] = draw(JUNK)
        elif kind == "missing":
            holder = draw(st.sampled_from([doc, *entries]))
            if holder:
                del holder[draw(st.sampled_from(sorted(holder)))]
        elif kind == "non-finite" and numbers:
            holder, key = draw(st.sampled_from(numbers))
            holder[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif kind == "u-outside" and entries:
            draw(st.sampled_from(entries))["u"] = draw(OUTSIDE_UNIT)
        elif kind == "edge" and entries:
            draw(st.sampled_from(entries))["edge"] = draw(st.sampled_from(["D", "a", "", "AB", 0]))
        elif kind in ("drop", "repeat") and isinstance(gen, list) and gen:
            i = draw(st.integers(0, len(gen) - 1))
            if kind == "drop":
                del gen[i]
            else:
                gen.insert(i, json.loads(json.dumps(gen[i])))
    return doc


def test_gap_on_mutated_schedules_reports_json_errors(fuzz_dir):
    """`gap --schedule` on a damaged schedule file gives a report (0), a
    domain error (2) or an infeasible schedule (3), never an internal error
    (1), and every error is a JSON object on stdout."""
    path = fuzz_dir / "mutated.json"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(doc=mutated_schedule(), t=st.sampled_from([-1, 0, 1, 2, 100]))
    def run(doc, t):
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["gap", "--schedule", str(path), "--t", str(t)])
        assert code in (0, 2, 3), (doc, t, out.getvalue())
        report = json.loads(out.getvalue())
        assert ("error" in report) == (code != 0), (doc, t, report)

    run()


FAR_RIGHT_ISO = ["--vertices", "999999999999,1000000000000", "1000000000000,1000000000001", "1000000000001,1000000000000"]


@pytest.mark.parametrize("period, best", [("3", 2.0), ("6", 4.0)])
def test_search_far_from_the_origin(period, best, capsys, monkeypatch, tmp_path):
    # A right isosceles triangle with legs sqrt(2), 1e12 from the origin: the
    # grid holds the optimum (the altitude to the hypotenuse, twice per
    # 2-gap), and the search runs in the local frame, where no line of the
    # Fagnano bound is short against the coordinates.
    code, out = run_cli(["search", *FAR_RIGHT_ISO, "--period", period], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    assert json.loads(out)["results"]["best_value"] == best


@pytest.mark.parametrize("period", ["3", "6"])
def test_search_certifies_a_random_triangle_moved_by_1e12(period, capsys, monkeypatch, tmp_path):
    t = random_acute_triangle(random.Random(17))
    vertices = [f"{v.x + 1e12!r},{v.y + 1e12!r}" for v in t.vertices]
    code, out = run_cli(["search", "--vertices", *vertices, "--period", period], capsys, monkeypatch, tmp_path)
    assert code == 0, out
    res = json.loads(out)["results"]
    assert res["best_value"] >= res["orthic_reference"] - res["certified_tolerance"]
    if period == "3":
        assert res["best_value"] <= res["orthic_reference"] + res["certified_tolerance"]


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
    assert builds == {"unfoldings": 1, "channels": 1, "relabels": 1, "feet": 0, "angles": 1}


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

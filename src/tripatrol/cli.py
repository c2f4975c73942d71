"""Command-line front-end: triangle ingestion, JSON reports, SVG renderings.

Every report is deterministic: identical invocations produce byte-identical
output.  Floats are emitted with 17 significant digits (round-trip exact).
Exit codes: 0 success, 2 input/domain error, 3 infeasible schedule,
1 internal error.  Every error is a JSON object on stdout; a command line
that does not parse is {"error": "UsageError", ...} with exit 2.  Exit 2
also refuses, before any computation, a report above MAX_ROWS rows (`unfold
-k`, `greedy --cycles`, the horizon of `gap`), and ends a run whose reader
closed stdout early (`| head`) without a traceback.

A vertex or a number may start with a minus sign: `--vertices -1,0 1,0 0,1`,
`--lambda -1e-05`.

Tolerances are fixed, named once in geom, and no option or environment
variable changes them; every report records DEFAULT_REL_TOL under
"tolerances".  Lengths compare at DEFAULT_REL_TOL (10^-9) times the
triangle's diameter; an edge parameter within VERTEX_SNAP (10^-12) of
0 or 1 is the vertex, and a channel stop that close snaps to it.  A
right triangle is a domain boundary: `search` evaluates the closed-form
orthic perimeter up to a largest angle of pi/2 + RIGHT_ANGLE_SLACK
(10^-12 rad), so it accepts one, and `gap` needs no angle condition;
`orthic`, `greedy`, `channel`, `unfold` and `render` refuse (exit 2) a
largest angle within ACUTE_ANGLE_TOL (10^-9 rad) of pi/2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .geom import DEFAULT_REL_TOL, EdgeId, Point, Triangle
from .greedy import greedy_run
from .orthic import (
    lower_bound_profile,
    orthic_perimeter,
    orthic_schedule,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
)
from .schedule import (
    InfeasibleSchedule,
    gap_report,
    prefix_gap_report,
    schedule_from_dict,
    schedule_to_dict,
)
from .search import grid_search_3periodic, grid_search_6periodic_gap2
from .svgout import channel_svg

# The most rows a report may hold: unfold's v_k rows, greedy's cycles, or gap's horizon.
MAX_ROWS = 10**5


def dumps(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite number in report")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


class UsageError(ValueError):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _negative_value(arg: str) -> bool:
    """Whether arg is a number, or an "x,y" pair of numbers, that starts
    with a minus sign."""
    if not arg.startswith("-"):
        return False
    try:
        for x in arg.split(",", 1):
            float(x)
    except ValueError:
        return False
    return True


def _shield_negative_values(argv: list[str]) -> list[str]:
    """argparse reads an argument such as "-1,0" or "-1e-05" as an option;
    with a leading space it reads it as a value."""
    return [" " + a if _negative_value(a) else a for a in argv]


def _parse_vertex(s: str) -> Point:
    s = s.strip()
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError(f'vertex "{s}" is not "x,y"')
    return Point(float(parts[0]), float(parts[1]))


def _triangle_from_args(args) -> tuple[Triangle, dict]:
    """Resolve --vertices or --angles-{deg,rad} A B [--side] to a Triangle."""
    if args.vertices is not None:
        pts = [_parse_vertex(s) for s in args.vertices]
        tri = Triangle(*pts)
        spec = {"kind": "vertices"}
    else:
        if args.angles_deg is not None:
            a_ang, b_ang = (math.radians(v) for v in args.angles_deg)
            unit = "degrees"
        elif args.angles_rad is not None:
            a_ang, b_ang = args.angles_rad
            unit = "radians"
        else:
            raise ValueError("provide --vertices or --angles-deg/--angles-rad")
        c_ang = math.pi - a_ang - b_ang
        if min(a_ang, b_ang, c_ang) <= 0:
            raise ValueError("angles must be positive and sum below pi")
        side = args.side
        if side <= 0:
            raise ValueError("--side must be positive")
        # Coordinates: B at origin, C on the x axis, A above.
        p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
        q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
        tri = Triangle(Point(side * p, side * q), Point(0.0, 0.0), Point(side, 0.0))
        spec = {"kind": "angles", "unit": unit, "angles_rad": [a_ang, b_ang, c_ang], "side_a": side}
    return tri, {"vertices": [v.as_tuple() for v in tri.vertices], "spec": spec}


def _check_rows(option: str, value: int, rows: int) -> None:
    if rows > MAX_ROWS:
        raise ValueError(f"{option} {value} gives {rows} rows, above the limit of {MAX_ROWS}")


def _report(command: str, input_obj, results) -> dict:
    return {
        "command": command,
        "input": input_obj,
        "results": results,
        "tool_version": __version__,
        "tolerances": {"rel_tol": DEFAULT_REL_TOL},
    }


def _schedule_dict_out(s) -> dict:
    d = schedule_to_dict(s)
    del d["schema_version"]
    return d


def cmd_orthic(args) -> dict:
    tri, inp = _triangle_from_args(args)
    od = orthic_triangle(tri)
    # K, M, L's edge parameters, read on the local frame as the feet were.
    params = {p.edge: p.u for p in orthic_schedule(tri).generator}
    results = {
        "feet": {"K": od.k_foot.as_tuple(), "L": od.l_foot.as_tuple(), "M": od.m_foot.as_tuple()},
        "feet_params": {e.name: params[e] for e in EdgeId},
        "perimeter_coordinates": od.perimeter,
        "perimeter_formula": orthic_perimeter(tri),
        "x0": od.x0,
    }
    return _report("orthic", inp, results)


def cmd_greedy(args) -> dict:
    _check_rows("--cycles", args.cycles, args.cycles)
    tri, inp = _triangle_from_args(args)
    trace = greedy_run(tri, args.start, args.cycles, args.direction)
    results = {
        "start_u": trace.start_u,
        "direction": trace.direction,
        "cycles_requested": args.cycles,
        "converged": trace.converged,
        "iterations_to_converge": trace.iterations_to_converge,
        "c": trace.c,
        "x": trace.x,
        "fixed_point": trace.fixed_point,
        "iterates": list(trace.iterates),
        "limit_gap": trace.limit_gap,
        "ratio_to_orthic": trace.limit_gap / orthic_perimeter(tri),
        "limit_schedule": _schedule_dict_out(trace.limit_schedule),
    }
    if not trace.converged:
        obs = prefix_gap_report(trace.visited, tri, 1)
        results["observed_gap1"] = {
            "overall": obs.overall,
            "per_edge_sup": {e.name: v for e, v in obs.per_edge_sup.items()},
            "note": "gaps observed over the simulated prefix only",
        }
    return _report("greedy", inp, results)


def cmd_gap(args) -> dict:
    with open(args.schedule, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("schedule file is nested too deeply") from None
    sched = schedule_from_dict(doc)
    if args.horizon is not None:
        _check_rows("--horizon", args.horizon, args.horizon)
    else:  # gap_report's default horizon
        _check_rows("--t", args.t, len(sched.generator) * (args.t + 1) + 1)
    if args.vertices or args.angles_deg or args.angles_rad:
        tri, _ = _triangle_from_args(args)
        if any(u.dist(v) > tri.tol() for u, v in zip(tri.vertices, sched.triangle.vertices)):
            raise ValueError("triangle spec disagrees with the schedule file")
    rep = gap_report(sched, args.t, args.horizon)
    inp = {
        "vertices": [v.as_tuple() for v in sched.triangle.vertices],
        "spec": {"kind": "schedule-file"},
    }
    results = {
        "t": rep.t,
        "horizon": rep.horizon,
        "mode": rep.mode,
        "overall": rep.overall,
        "per_edge_sup": {e.name: rep.per_edge_sup[e] for e in EdgeId},
        "per_edge_gaps": {e.name: rep.per_edge_gaps[e] for e in EdgeId},
    }
    return _report("gap", inp, results)


def _render_to_file(unfolding, sched, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(channel_svg(unfolding, list(sched.positions)))


def cmd_channel(args) -> dict:
    tri, inp = _triangle_from_args(args)
    unf = reflection_chain(tri)
    sched = sub_orthic_schedule(tri, args.lam)
    g1 = gap_report(sched, 1).overall
    g2 = gap_report(sched, 2).overall
    results = {
        "lambda": args.lam,
        "direction": unf.direction.as_tuple(),
        "boundary_high": [p.as_tuple() for p in unf.boundary_high],
        "boundary_low": [p.as_tuple() for p in unf.boundary_low],
        # A and A1 lie at one distance from the orthic line: one width, both keys.
        "half_width_high": unf.half_width,
        "half_width_low": unf.half_width,
        "generator": _schedule_dict_out(sched),
        "gap1": g1,
        "gap2": g2,
        "two_orthic_perimeter": 2.0 * orthic_perimeter(tri),
        "rendered": args.render,
    }
    if args.render:
        _render_to_file(unf, sched, args.render)
    return _report("channel", inp, results)


def cmd_search(args) -> dict:
    tri, inp = _triangle_from_args(args)
    grid = args.grid if args.grid is not None else (200 if args.period == 3 else 12)
    # First, so that an obtuse triangle is refused before any grid work.
    reference = orthic_perimeter(tri) * (1.0 if args.period == 3 else 2.0)
    if args.period == 3:
        res = grid_search_3periodic(tri, grid)
    else:
        res = grid_search_6periodic_gap2(tri, grid)
    results = {
        "period": args.period,
        "objective": res.objective,
        "grid_n": res.grid_n,
        "best_value": res.best_value,
        "best_params": list(res.best_params),
        "certified_tolerance": res.certified_tolerance,
        "orthic_reference": reference,
    }
    return _report("search", inp, results)


def cmd_unfold(args) -> dict:
    _check_rows("-k", args.k, args.k)
    tri, inp = _triangle_from_args(args)
    rows = lower_bound_profile(tri, args.k)
    per2 = 2.0 * orthic_perimeter(tri)
    results = {
        "k_max": args.k,
        "two_orthic_perimeter": per2,
        "rows": [
            {"k": k, "v_k": vk_over_k * k, "v_k_over_k": vk_over_k, "bound": bound}
            for k, vk_over_k, bound in rows
        ],
        "final_gap_to_limit": per2 - rows[-1][1],
    }
    return _report("unfold", inp, results)


def cmd_render(args) -> dict:
    tri, inp = _triangle_from_args(args)
    _render_to_file(reflection_chain(tri), sub_orthic_schedule(tri, args.lam), args.out)
    return _report("render", inp, {"lambda": args.lam, "svg": args.out})


def _add_triangle_args(p: argparse.ArgumentParser) -> None:
    spec = p.add_mutually_exclusive_group()
    spec.add_argument("--vertices", nargs=3, metavar="X,Y", help="three vertices a b c")
    spec.add_argument("--angles-deg", nargs=2, type=float, metavar=("A", "B"), help="angles A and B in degrees")
    spec.add_argument("--angles-rad", nargs=2, type=float, metavar=("A", "B"), help="angles A and B in radians")
    p.add_argument("--side", type=float, default=1.0, help="length of side BC (with --angles-*)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="tripatrol", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orthic", help="altitude feet, orthic perimeter, optimizer")
    _add_triangle_args(p)
    p.set_defaults(fn=cmd_orthic)

    p = sub.add_parser("greedy", help="greedy projection schedule and its limit")
    _add_triangle_args(p)
    p.add_argument("--start", type=float, default=0.25, help="start parameter on BC")
    p.add_argument("--cycles", type=int, default=200, help="max BC revisits")
    p.add_argument("--direction", choices=("cw", "ccw"), default="cw")
    p.set_defaults(fn=cmd_greedy)

    p = sub.add_parser("gap", help="t-gap report of a schedule file")
    _add_triangle_args(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--t", type=int, default=1, help="gap order")
    p.add_argument("--horizon", type=int, default=None, help="sequence elements examined")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("channel", help="orthic channel and a sub-orthic schedule")
    _add_triangle_args(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="channel parameter in [-1,1]")
    p.add_argument("--render", default=None, help="write an SVG of the unfolded strip")
    p.set_defaults(fn=cmd_channel)

    p = sub.add_parser("search", help="certified brute-force grid search")
    _add_triangle_args(p)
    p.add_argument("--period", type=int, choices=(3, 6), default=3)
    p.add_argument("--grid", type=int, default=None, help="grid resolution per parameter")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("unfold", help="v_k lower-bound table from the unfolding")
    _add_triangle_args(p)
    p.add_argument("-k", "--k", type=int, default=50, help="max unfolding depth")
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("render", help="SVG of reflected triangles, channel, trajectory")
    _add_triangle_args(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    argv = _shield_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
        # Rendered here too: a non-finite number in the report is a domain error.
        out, code = dumps(args.fn(args)), 0
    except InfeasibleSchedule as exc:
        out, code = dumps({"error": "InfeasibleSchedule", "message": str(exc)}), 3
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        out, code = dumps({"error": type(exc).__name__, "message": str(exc)}), 2
    except Exception as exc:  # pragma: no cover - internal errors
        out, code = dumps({"error": type(exc).__name__, "message": str(exc)}), 1
    try:
        print(out, flush=True)
    except BrokenPipeError:  # the reader closed stdout: point it at os.devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

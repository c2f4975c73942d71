"""Inputs, operations and output checks of the three benchmark workloads.

An operation makes every call into the library through a hook
``call(name, fn, *args)``, so the same code runs untraced (the hook just
calls ``fn``) and traced (the hook records a span).  It returns
``(status, extra)``: status is "ok", "raised" (a library call raised) or
"wrong" (an output failed its check); extra is a per-op number the traced
run aggregates, or None.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from tripatrol import (
    gap_report,
    greedy_limit_gap,
    greedy_run,
    grid_search_3periodic,
    grid_search_6periodic_gap2,
    lower_bound_profile,
    orthic_perimeter,
    orthic_triangle,
    reflection_chain,
    sub_orthic_schedule,
)
from tripatrol.geom import Point, Triangle

# Imported, not copied, so the cli workload cannot drift from the goldens.
import make_goldens

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Every TRANSLATED_EVERY-th triangle is moved by TRANSLATION in x and y.
# Cancellation at that offset is the known numerical defect of the
# orthic/greedy layers; the benchmark keeps it visible as failed ops.
# The moved slice is drawn from a stream of its own, seeded with
# TRANSLATED_SEED whatever the run's seed, so that every run of a given
# program fails the same share of ops.
TRANSLATED_EVERY = 8
TRANSLATION = 1e6
TRANSLATED_SEED = 0
LAMBDAS = tuple(round(-1.0 + i / 10.0, 10) for i in range(21))
GRID3_N = 200
GRID6_N = 12
# Grid rounds grid_search_6periodic_gap2 runs at its default 8 refine rounds:
# at GRID6_N its 1e-9 cell-width early stop is never reached (the last
# round's cell is ~5e-8 wide), so all 1 + 8 rounds run.
GAP2_ROUNDS = 9
LOWER_BOUND_K = 100
GREEDY_CYCLES = 600


def plain_call(name, fn, *args):
    return fn(*args)


def random_acute_triangle(rng: random.Random, margin: float = 0.08):
    """Same distribution as tests/conftest.random_acute_triangle (which
    cannot be imported without pulling pytest into the set-up time)."""
    while True:
        a_ang = rng.uniform(margin, math.pi / 2 - margin)
        b_ang = rng.uniform(margin, math.pi / 2 - margin)
        c_ang = math.pi - a_ang - b_ang
        if margin < c_ang < math.pi / 2 - margin:
            break
    alpha = rng.uniform(0.5, 3.0)
    p = math.cos(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    q = math.sin(b_ang) * math.sin(c_ang) / math.sin(b_ang + c_ang)
    pts = [(alpha * p, alpha * q), (0.0, 0.0), (alpha, 0.0)]
    th = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    ct, st = math.cos(th), math.sin(th)
    return Triangle(*[Point(ct * x - st * y + dx, st * x + ct * y + dy) for x, y in pts])


def inputs(seed: int, count: int) -> list:
    """count (triangle, greedy start u) pairs. The unmoved ones come from
    seed; every TRANSLATED_EVERY-th one comes from TRANSLATED_SEED and is
    moved by TRANSLATION."""
    rng, moved = random.Random(seed), random.Random(TRANSLATED_SEED)
    out = []
    for i in range(count):
        if i % TRANSLATED_EVERY == TRANSLATED_EVERY - 1:
            t = random_acute_triangle(moved)
            t = Triangle(*[Point(v.x + TRANSLATION, v.y + TRANSLATION) for v in t.vertices])
            out.append((t, moved.uniform(0.05, 0.95)))
        else:
            out.append((random_acute_triangle(rng), rng.uniform(0.05, 0.95)))
    return out


def _attempt(call, errors: list, name: str, fn, *args):
    """One library call; an exception is recorded and the op carries on with
    its independent calls, so per-layer failure counts stay complete."""
    try:
        return call(name, fn, *args)
    except Exception as exc:  # the op boundary: record the failure, keep running
        errors.append(f"{name}:{type(exc).__name__}")
        return None


class _InProcess:
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Oracle(_InProcess):
    """One op: one triangle through both certified grid oracles (the
    computation of acceptance criterion 01). numpy min-plus work dominates."""

    pool_size = 64

    def __init__(self, seed: int, workdir: Path):
        self.items = [t for t, _ in inputs(seed, self.pool_size)]

    def op(self, t, call, errors):
        per = orthic_perimeter(t)
        r3 = _attempt(call, errors, "search.grid_search_3periodic", grid_search_3periodic, t, GRID3_N)
        r6 = _attempt(call, errors, "search.grid_search_6periodic_gap2", grid_search_6periodic_gap2, t, GRID6_N)
        if r3 is None or r6 is None:
            return "raised", None
        ok = (
            abs(r3.best_value - per) <= r3.certified_tolerance
            and r6.best_value >= 2.0 * per - r6.certified_tolerance
        )
        return ("ok" if ok else "wrong"), (r3.best_value - per) / r3.certified_tolerance


class Channel(_InProcess):
    """One op: one triangle through the constructive geometry: orthic
    triangle, unfolding, 21 sub-orthic schedules with their 1- and 2-gaps,
    the v_k profile and greedy runs both ways. Pure-Python object geometry."""

    pool_size = 64

    def __init__(self, seed: int, workdir: Path):
        self.items = inputs(seed, self.pool_size)

    def op(self, item, call, errors):
        t, start_u = item
        per2 = 2.0 * orthic_perimeter(t)
        wrong = False
        _attempt(call, errors, "orthic.orthic_triangle", orthic_triangle, t)
        _attempt(call, errors, "orthic.reflection_chain", reflection_chain, t)
        for lam in LAMBDAS:
            s = _attempt(call, errors, "orthic.sub_orthic_schedule", sub_orthic_schedule, t, lam)
            if s is None:
                continue
            _attempt(call, errors, "schedule.gap_report", gap_report, s, 1)
            g2 = _attempt(call, errors, "schedule.gap_report", gap_report, s, 2)
            if g2 is not None:
                wrong |= abs(g2.overall - per2) > 1e-9 * per2
        rows = _attempt(call, errors, "search.lower_bound_profile", lower_bound_profile, t, LOWER_BOUND_K)
        if rows is not None:
            wrong |= any(vk_over_k > per2 * (1.0 + 1e-9) for _, vk_over_k, _ in rows)
        limit = greedy_limit_gap(t)
        for direction in ("cw", "ccw"):
            g = _attempt(call, errors, "greedy.greedy_run", greedy_run, t, start_u, GREEDY_CYCLES, direction)
            if g is not None:
                wrong |= abs(g.limit_gap - limit) > 1e-8 * limit
        if wrong:
            return "wrong", None
        return ("raised" if errors else "ok"), None


# Golden invocation standing for each subcommand in the in-process timings.
INPROC_GOLDEN = {
    "orthic": "orthic_equilateral",
    "greedy": "greedy_equilateral",
    "gap": "gap_equilateral",
    "channel": "channel_equilateral",
    "search": "search3_equilateral",
    "unfold": "unfold_equilateral",
    "render": "render_equilateral",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRIPATROL_REL_TOL", None)  # the goldens use the default tolerance
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, bytes, int]:
    """Run a fresh interpreter; returns (exit code, stdout, peak RSS in KiB)."""
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Cli:
    """One op: one golden invocation from tests/make_goldens.invocations,
    run as a fresh `python -m tripatrol.cli` process, one at a time."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        (workdir / "eq_schedule.json").write_text(json.dumps(make_goldens.EQ_SCHEDULE))
        (workdir / "ri_schedule.json").write_text(json.dumps(make_goldens.RI_SCHEDULE))
        cases = make_goldens.invocations("eq_schedule.json", "ri_schedule.json")
        self.cases = cases
        # The seed only rotates where the cycle over the 15 goldens starts.
        names = sorted(cases)
        k = seed % len(names)
        self.items = names[k:] + names[:k]
        self.expected = {n: self._golden(n) for n in names}
        self.peak_kib = 0

    @staticmethod
    def _golden(name: str) -> tuple[int, bytes, bytes | None]:
        svg = GOLDEN / f"{name}.svg"
        return (
            int((GOLDEN / f"{name}.exit").read_text()),
            (GOLDEN / f"{name}.out").read_bytes(),
            svg.read_bytes() if svg.exists() else None,
        )

    def _matches(self, name: str, code: int, out: bytes, svg: bytes | None) -> bool:
        want_code, want_out, want_svg = self.expected[name]
        return code == want_code and out == want_out and (want_svg is None or svg == want_svg)

    def op(self, name, call, errors):
        argv = ["-m", "tripatrol.cli", *self.cases[name]]
        code, out, peak = call("cli.process", run_child, argv, self.workdir, self.env)
        self.peak_kib = max(self.peak_kib, peak)
        svg_path = self.workdir / "out.svg"
        svg = svg_path.read_bytes() if svg_path.exists() else None
        svg_path.unlink(missing_ok=True)
        return ("ok" if self._matches(name, code, out, svg) else "wrong"), None

    def inproc(self, name: str) -> bool:
        """main(argv) of the golden invocation in this process; True if its
        stdout, exit code and SVG match the golden."""
        code, out, svg = make_goldens.run_case(self.cases[name], self.workdir)
        return self._matches(name, code, out.encode(), svg)

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024.0


WORKLOADS = {"oracle": Oracle, "channel": Channel, "cli": Cli}


def timed_child_ms(argv: list[str], cwd: Path, env: dict) -> float:
    t0 = time.perf_counter()
    code, _, _ = run_child(argv, cwd, env)
    if code != 0:
        raise RuntimeError(f"child {argv} exited {code}")
    return (time.perf_counter() - t0) * 1e3

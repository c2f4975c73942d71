"""The tripatrol benchmark.

    python3 perfbench/run.py --workload {oracle,channel,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. One single-threaded closed loop with one
client: the next op starts only when the last one has finished. Inputs come
from --seed; the loop runs whole passes over the workload's input pool until
--seconds have gone by, so the share of failed ops is exact. An
input's latency is its fastest time over the passes, which stays steady on
a host whose speed swings from second to second (see README.md).

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs the ops traced (spans around each library call, kept in
memory) and prints the per-layer metrics. The last line of stdout is the
result object; the line before it holds the context and the sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/tripatrol/__init__.py", "tests/make_goldens.py", "tests/golden")
SETUP_PROBES = 5  # fresh processes timed for setup_s; their median is reported
TRACE_BLOCK = 8  # ops run untraced, then the same ops traced, for the overhead ratio
SIDE_OPS = {"oracle": 8, "channel": 16}  # traced ops for layers another workload owns
PROFILED_OPS = 8  # channel ops run under cProfile for the geom call counts
CLI_PROBES = 7  # fresh interpreters for cli.interpreter_ms and cli.import_ms
INPROC_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("oracle", "channel", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Tracer:
    """The traced `call` hook: one span (name, start, end, ok, work) per
    library call, plus one "op" span around each op, which is their parent."""

    def __init__(self, work: dict):
        self.work = work
        self.spans: list[tuple] = []
        self.extras: list[float] = []

    def __call__(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            res = fn(*args)
        except Exception:
            self.spans.append((name, t0, time.perf_counter(), False, None))
            raise
        t1 = time.perf_counter()
        count = self.work.get(name)
        self.spans.append((name, t0, t1, True, count(res) if count else None))
        return res

    def op(self, workload, item) -> str:
        errors: list[str] = []
        t0 = time.perf_counter()
        status, extra = workload.op(item, self, errors)
        self.spans.append(("op", t0, time.perf_counter(), status == "ok", None))
        if extra is not None:
            self.extras.append(extra)
        return status


def set_up(wl, name: str, seed: int, workdir: Path):
    workload = wl.WORKLOADS[name](seed, workdir)
    workload.op(workload.items[0], wl.plain_call, [])  # warm-up
    return workload


def run_untraced(wl, workload, seconds: float):
    """Whole passes over the pool; per item, its fastest time over the passes."""
    best = [math.inf] * len(workload.items)
    statuses: Counter = Counter()
    errors: Counter = Counter()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    for n in itertools.count():
        # Passes alternate between the CPUs the process may use: on a shared
        # host each CPU has slow stretches of its own.
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})
        for i, item in enumerate(workload.items):
            errs: list[str] = []
            t0 = time.perf_counter()
            status, _ = workload.op(item, wl.plain_call, errs)
            best[i] = min(best[i], time.perf_counter() - t0)
            statuses[status] += 1
            errors.update(errs)
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    os.sched_setaffinity(0, cpus)
    return best, statuses, errors, wall


def setup_seconds(name: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start to the
    moment the first timed op could start."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--setup-probe", repr(t0)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def end_to_end(wl, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    workload = set_up(wl, name, seed, workdir)
    best, statuses, errors, wall = run_untraced(wl, workload, seconds)
    attempted = sum(statuses.values())
    ok = statuses["ok"]
    passes = attempted // len(best)
    print(json.dumps({
        "workload": name, "seed": seed, "samples": len(best), "passes": passes, "wall_s": wall,
        "failed_frac": (attempted - ok) / attempted, "errors": dict(errors),
        "context": context(),
    }))
    metrics = {
        "setup_s": (setup_seconds(name, seed), "s"),
        "ops_per_s": (ok / passes / sum(best), "1/s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    return result(statuses["wrong"] == 0, attempted, attempted - ok, metrics)


# Work counted per traced library call, for the rate metrics.
def _work(wl) -> dict:
    return {
        "search.grid_search_3periodic": lambda r: (r.grid_n + 1) ** 3,
        "search.grid_search_6periodic_gap2": lambda r: wl.GAP2_ROUNDS * (r.grid_n + 1) ** 6,
        "search.lower_bound_profile": len,
        "schedule.gap_report": lambda r: r.horizon,
        "greedy.greedy_run": lambda r: (r.iterations_to_converge, r.converged),
    }


def traced_main_loop(wl, workload, seconds: float):
    """Blocks of ops run untraced and then traced, until --seconds are up."""
    tracer = Tracer(_work(wl))
    untraced = traced = 0.0
    statuses: Counter = Counter()
    start = time.perf_counter()
    while True:
        for i in range(0, len(workload.items), TRACE_BLOCK):
            block = workload.items[i:i + TRACE_BLOCK]
            t0 = time.perf_counter()
            for item in block:
                workload.op(item, wl.plain_call, [])
            t1 = time.perf_counter()
            for item in block:
                statuses[tracer.op(workload, item)] += 1
            t2 = time.perf_counter()
            untraced += t1 - t0
            traced += t2 - t1
        if time.perf_counter() - start >= seconds:
            break
    return tracer, statuses, traced / untraced


def geom_call_counts(wl, channel) -> tuple[float, float]:
    """Exact geom call counts per channel op, from the stdlib profiler."""
    import cProfile
    import pstats

    from tripatrol import geom

    items = channel.items[:PROFILED_OPS]
    prof = cProfile.Profile()
    prof.enable()
    for item in items:
        channel.op(item, wl.plain_call, [])
    prof.disable()
    post_init = geom.Point.__post_init__.__code__
    calls = point_new = 0
    for (path, line, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        if path == geom.__file__:
            calls += ncalls
            if line == post_init.co_firstlineno and func == post_init.co_name:
                point_new += ncalls
    return point_new / len(items), calls / len(items)


def cli_layer(wl, cli) -> tuple[dict, bool]:
    """Fresh-interpreter floor, fresh `import tripatrol`, and main(argv) of
    each subcommand in this process; False if an in-process output is wrong."""
    pass_ms = [wl.timed_child_ms(["-c", "pass"], cli.workdir, cli.env) for _ in range(CLI_PROBES)]
    probe = "import time; t = time.perf_counter(); import tripatrol; print((time.perf_counter() - t) * 1e3)"
    import_ms = [
        float(wl.run_child(["-c", probe], cli.workdir, cli.env)[1]) for _ in range(CLI_PROBES)
    ]
    metrics = {
        "cli.interpreter_ms": (statistics.median(pass_ms), "ms"),
        "cli.import_ms": (statistics.median(import_ms), "ms"),
    }
    correct = True
    for sub, golden in wl.INPROC_GOLDEN.items():
        times = []
        for _ in range(INPROC_REPEATS):
            t0 = time.perf_counter()
            correct &= cli.inproc(golden)
            times.append(time.perf_counter() - t0)
        metrics[f"cli.{sub}.inproc_ms"] = (statistics.median(times) * 1e3, "ms")
    return metrics, correct


def layer_metrics(spans: list[tuple], slack: list[float]) -> dict:
    calls: dict[str, list[tuple]] = {}
    for name, t0, t1, ok, work in spans:
        calls.setdefault(name, []).append((t1 - t0, ok, work))

    def done(name):
        return [(dt, work) for dt, ok, work in calls.get(name, []) if ok]

    def ms_p50(name):
        return statistics.median(dt for dt, _ in done(name)) * 1e3, "ms"

    def rate(name, unit="1/s"):
        ok = done(name)
        return sum(w for _, w in ok) / sum(dt for dt, _ in ok), unit

    def failed_frac(layer):
        made = [ok for name, c in calls.items() if name.startswith(layer + ".") for _, ok, _ in c]
        return made.count(False) / len(made), "ratio"

    greedy = [w for _, w in done("greedy.greedy_run")]
    return {
        "search.grid_search_3periodic.ms_p50": ms_p50("search.grid_search_3periodic"),
        "search.grid_search_3periodic.cells_per_s": rate("search.grid_search_3periodic"),
        "search.grid_search_3periodic.slack_ratio": (statistics.fmean(slack), "ratio"),
        "search.grid_search_6periodic_gap2.ms_p50": ms_p50("search.grid_search_6periodic_gap2"),
        "search.grid_search_6periodic_gap2.cells_per_s": rate("search.grid_search_6periodic_gap2"),
        "search.lower_bound_profile.ms_p50": ms_p50("search.lower_bound_profile"),
        "search.lower_bound_profile.rows_per_s": rate("search.lower_bound_profile"),
        "search.failed_frac": failed_frac("search"),
        "orthic.orthic_triangle.ms_p50": ms_p50("orthic.orthic_triangle"),
        "orthic.reflection_chain.ms_p50": ms_p50("orthic.reflection_chain"),
        "orthic.sub_orthic_schedule.ms_p50": ms_p50("orthic.sub_orthic_schedule"),
        "orthic.failed_frac": failed_frac("orthic"),
        "schedule.gap_report.ms_p50": ms_p50("schedule.gap_report"),
        "schedule.gap_report.points_per_s": rate("schedule.gap_report"),
        "schedule.failed_frac": failed_frac("schedule"),
        "greedy.greedy_run.ms_p50": ms_p50("greedy.greedy_run"),
        "greedy.greedy_run.iterations_mean": (statistics.fmean(i for i, _ in greedy), "count"),
        "greedy.greedy_run.converged_ratio": (statistics.fmean(c for _, c in greedy), "ratio"),
        "greedy.failed_frac": failed_frac("greedy"),
    }


def traced(wl, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    workload = set_up(wl, name, seed, workdir)
    tracer, statuses, overhead = traced_main_loop(wl, workload, seconds)
    spans = list(tracer.spans)
    # Layers this workload does not reach: a short traced pass of the
    # workload that does, so every traced run reports every layer.
    side = {"oracle": tracer, "channel": tracer}
    for other, count in SIDE_OPS.items():
        if other != name:
            helper = wl.WORKLOADS[other](seed, workdir)
            side[other] = Tracer(_work(wl))
            for item in helper.items[:count]:
                side[other].op(helper, item)
            spans += side[other].spans
    channel = workload if name == "channel" else wl.Channel(seed, workdir)
    point_new, geom_calls = geom_call_counts(wl, channel)
    cli = workload if name == "cli" else wl.Cli(seed, workdir)
    cli_metrics, inproc_correct = cli_layer(wl, cli)

    metrics = layer_metrics(spans, side["oracle"].extras)
    metrics["geom.point_new_per_op"] = (point_new, "count")
    metrics["geom.calls_per_op"] = (geom_calls, "count")
    metrics.update(cli_metrics)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    attempted = sum(statuses.values())
    print(json.dumps({"workload": name, "seed": seed, "traced_ops": attempted,
                      "spans": len(spans), "context": context()}))
    correct = statuses["wrong"] == 0 and inproc_correct
    return result(correct, attempted, attempted - statuses["ok"], metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.exists() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def context() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        cpu = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a tripatrol checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Build step: bytecode for the package, as an installed copy has it, so
    # fresh processes do not recompile it (PYTHONDONTWRITEBYTECODE may be set).
    compileall.compile_dir(ROOT / "src" / "tripatrol", quiet=1)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workdir = Path(__file__).resolve().parent / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        import workloads as wl  # after sys.path has the checkout's src and tests

        if args.setup_probe is not None:
            set_up(wl, args.workload, args.seed, workdir)
            print(time.monotonic() - args.setup_probe)
            return 0
        run = traced if args.trace else end_to_end
        out = run(wl, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

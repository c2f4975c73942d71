"""Smoke test of the benchmark: a short run of every workload.

    python3 perfbench/smoke.py

For each workload it makes two untraced runs with different seeds and one
traced run, and checks that every output was correct, that both untraced
runs report the same failed share, and that the metric names are exactly the
`end_to_end` (untraced) and `per_layer` (traced) names of BENCHMARK.json.
Exits 1 at the first check that fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 8)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (run(spec, workload, seed, 0) for seed in SEEDS)
        traced = run(spec, workload, SEEDS[0], 1)
        for res in (first, second, traced):
            check(res["correct"], f"{workload}: outputs correct")
        shares = [r["failed"] / r["attempted"] for r in (first, second)]
        check(shares[0] == shares[1], f"{workload}: failed share {shares[0]:.6f} repeats")
        check(set(first["metrics"]) == names["end_to_end"], f"{workload}: end_to_end names")
        check(set(traced["metrics"]) == names["per_layer"], f"{workload}: per_layer names")


if __name__ == "__main__":
    main()

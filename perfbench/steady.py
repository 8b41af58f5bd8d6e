#!/usr/bin/env python3
"""Steadiness report: run one workload repeatedly and compare each metric's spread with its bound.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload serve-hot --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time and each for
``run_seconds`` from ``BENCHMARK.json``, and prints for
every end-to-end metric its median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
distance between the quartiles as a share of the median — against the
bound ``BENCHMARK.json`` fixes for it.  A spread at or above a third of its
bound is flagged; ``setup_s`` is reported but its spread is not judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"seed {seed}: no output (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, 0)
        results.append(result)
        status = "ok" if result["correct"] and result["exit"] == 0 else "FAILED"
        print(f"seed {seed}: {status}, failed {result['failed']}/{result['attempted']}", flush=True)

    ok = all(r["correct"] and r["exit"] == 0 for r in results)
    print(f"\n{args.workload}: {len(results)} runs of {seconds}s")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        if None in values or len(values) < 2:
            ok = False
            print(f"{name:22s} not measured in every run: {values}")
            continue
        med, q1, q3, rel = spread(values)
        judged = name != "setup_s"
        flag = "" if not judged or rel < bound / 3 else ("  >= bound/3" if rel < bound else "  >= bound")
        if judged and rel >= bound:
            ok = False
        print(f"{name:22s} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.3f} {bound:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness and determinism evidence for the benchmark.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --determinism --seed 7 --seconds 10

The first form runs every workload (or ``--workloads a,b``) ``--runs``
times, each in a fresh process with its own seed, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the relative spread (quartile distance / median)
against a third of the metric's bound in ``BENCHMARK.json``.

The second form runs each workload twice with one seed and fails (exit
status 1) unless every count repeats exactly: QPF per query, RPOI
spent, bytes stored and every count the per-layer metrics come from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh-process run; returns its result line and its counts."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    counts = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-counts "))
    return {"result": json.loads(lines[-1]), "counts": counts}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and relative quartile spread."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def steadiness(spec: dict, workloads, runs: int, seconds: float,
               first_seed: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            results.append(run_once(workload, seed, seconds, 0)["result"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        print(f"{workload}: {runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound/3':>9}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            flag = "" if rel < bound / 3 or name == "setup_s" else "  WIDE"
            steady &= bool(not flag) and all(r["correct"] for r in results)
            print(f"  {name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{rel:>9.2%}{bound / 3:>9.2%}{flag}")
    return steady


def determinism(workloads, seed: int, seconds: float) -> bool:
    same = True
    for workload in workloads:
        first, second = (run_once(workload, seed, seconds, 0)
                         for _ in range(2))
        differing = sorted(
            k for k in set(first["counts"]) | set(second["counts"])
            if first["counts"].get(k) != second["counts"].get(k))
        qpf = [r["result"]["metrics"]["qpf_per_query"]["value"]
               for r in (first, second)]
        if qpf[0] != qpf[1]:
            differing.append("qpf_per_query")
        same &= not differing
        print(f"{workload} seed {seed}: " + (
            "counts repeat exactly" if not differing else
            "COUNTS DIFFER: " + ", ".join(
                f"{k} {first['counts'].get(k)} vs {second['counts'].get(k)}"
                for k in differing)))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--determinism", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.determinism:
        ok = determinism(workloads, args.seed, seconds)
    else:
        ok = steadiness(spec, workloads, args.runs, seconds, args.first_seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

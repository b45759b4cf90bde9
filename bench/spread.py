"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/spread.py --seeds 1-10 --out BENCH_spread.json

Runs ``run.py`` once per (workload, seed), one after another, for every
workload of BENCHMARK.json at its ``run_seconds``, and prints per workload
and metric the median and the quartile spread (Q3 - Q1) / median
over the seeds, with ``statistics.quantiles(values, n=4)``, next to the
metric's bound from BENCHMARK.json.  With ``--trace 1`` it runs every seed
twice and lists the work counts that differ between the two runs.  All raw
results go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: per-layer metrics that count work; they must repeat exactly for one seed
WORK_COUNTS = ("exprlang.parse.calls", "exprlang.evaluate.calls", "exprlang.evaluate.points",
               "quadrature.integrate.calls", "quadrature.passes",
               "choquet.level_set.evaluate_calls", "laplace.transforms",
               "laplace.truncation.evaluate_calls", "laplace.transform_lookups",
               "laplace.inversions")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seconds": seconds, "trace": args.trace, "runs": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            if args.trace:
                again = run_once(workload, seed, seconds, 1)
                differ = [name for name in WORK_COUNTS
                          if result["metrics"][name]["value"] != again["metrics"][name]["value"]]
                result["counts_differ_on_rerun"] = differ
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        record["runs"][workload] = results
        print(f"{workload}: failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            text = f"  {name:40s} median {median:<12.6g}"
            if median and len(values) > 1:
                text += f" spread {spread(values):7.2%}"
            if name in bounds:
                text += f"  bound {bounds[name]:.0%}"
            print(text)
        if args.trace:
            print("  work counts differing between two runs of one seed:",
                  sorted({n for r in results for n in r["counts_differ_on_rerun"]}) or "none")
    Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

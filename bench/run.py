"""The choqint benchmark: seeded derive / identify / verify workloads through the CLI.

    python3 bench/run.py --workload derive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One operation is one ``choqint`` subcommand
called in-process through ``choqint.cli.main(argv)`` with its report captured
in memory, and checked against the closed form of its input (``oracle``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs every operation traced and then untraced, and reports the
per-layer metrics (``spans``) with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 9

#: reference kernel samples timed in each of those interpreters
SETUP_REFERENCE_SAMPLES = 5

#: the reference kernel (see reference_sample) and its wall time at the
#: reference speed, about its median on a shared 2-vCPU x86-64 virtual
#: machine.  There per-core speed swings by up to 1.9x over seconds to
#: minutes, so timed results are scaled by REFERENCE_S over the run's median
#: kernel time.
REFERENCE_POINTS = 2304
REFERENCE_PASSES = 400
REFERENCE_S = 0.012

#: nominal seconds of one round on a 2-core x86-64 host; the traced run
#: sizes its fixed number of rounds with it, so its work counts repeat
NOMINAL_ROUND_S = {"derive": 5.0, "identify": 3.5, "verify": 0.9}


def prepare(workload: str, seed: int):
    """Import the package and build the workload's first round: everything a
    run needs before its first operation."""
    sys.path[:0] = [str(SRC)]
    import choqint.cli

    if Path(choqint.cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"choqint imported from {choqint.cli.__file__}, not from {SRC}")
    rounds = inputs.WORKLOADS[workload](seed)
    return choqint.cli, rounds, next(rounds)


def setup_sample(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    choqint and built the workload's first round, scaled by the reference
    kernel timed in that interpreter right after, on the core it ran on.
    Both ends are read from CLOCK_MONOTONIC, which all processes share."""
    code = (f"import sys, time, statistics; sys.path.insert(0, {str(BENCH)!r}); "
            f"import run; run.prepare({workload!r}, {seed!r}); "
            f"ready = time.clock_gettime(time.CLOCK_MONOTONIC); "
            f"print(ready, statistics.median(run.reference_sample() "
            f"for _ in range(run.SETUP_REFERENCE_SAMPLES)))")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    ready, kernel = map(float, proc.stdout.split())
    return (ready - started) * REFERENCE_S / kernel


class Runner:
    """Runs operations, checks them and keeps the figures of one run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.times: list[float] = []
        self.points = 0
        self.answered = 0
        self.worst_rel = 0.0

    def run(self, op):
        """Run and check one operation; returns its exit code, stdout and
        outcome."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            code = self.cli.main(list(op.argv))
            elapsed = time.perf_counter() - started
        stdout = out.getvalue()
        outcome = oracle.check(op, code, stdout)
        self.attempted += 1
        self.times.append(elapsed)
        self.points += outcome.points
        if outcome.status == "failed":
            self.failed += 1
        elif outcome.status == "wrong":
            self.wrong.append(f"{' '.join(op.argv)}: {outcome.reason}")
        else:
            self.answered += 1
            self.worst_rel = max(self.worst_rel, outcome.worst_rel)
        return code, stdout, outcome


def warm_up(cli, first_round) -> list[str]:
    """Run the first round untimed (first calls are slower), check it, and
    self-check the checker on its reports.  Returns the problems found."""
    runner = Runner(cli)
    accepted = {}
    for op in first_round:
        code, stdout, outcome = runner.run(op)
        if outcome.status == "ok":
            accepted.setdefault(op.expect, (op, code, stdout))
    problems = list(runner.wrong)
    if not accepted:
        problems.append("warm-up round produced no accepted report to self-check")
    for op, code, stdout in accepted.values():
        problems += [f"self-check: {c}" for c in oracle.self_check(op, code, stdout)]
    return problems


def reference_sample() -> float:
    """Wall time of a fixed NumPy kernel, independent of choqint: passes of
    exp, sqrt and power over an array the size of a transform's quadrature
    pass."""
    x = np.linspace(0.0, 4.0, REFERENCE_POINTS)
    started = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_PASSES):
        total += float(np.exp(-(0.1 + 0.05 * (i % 40)) * x) * np.sqrt(x)
                       * np.power(1.0 + x, 1.5) @ x)
    return time.perf_counter() - started


def measure(cli, rounds, seconds: float, workload: str, seed: int):
    """Whole rounds for about ``seconds`` of operation time: a round is not
    started when the mean round so far says it would end past ``seconds``.
    After every operation the reference kernel is timed once; SETUP_REPEATS
    setup samples are spread evenly over the run.  Neither counts towards
    ``seconds``.  Returns the runner, the reference times and the setup
    times."""
    runner = Runner(cli)
    references: list[float] = []
    setups: list[float] = []
    done = 0
    while not done or sum(runner.times) * (done + 1) / done <= seconds:
        for op in next(rounds):
            runner.run(op)
            references.append(reference_sample())
            if len(setups) * seconds <= sum(runner.times) * SETUP_REPEATS:
                setups.append(setup_sample(workload, seed))
        done += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(workload, seed))
    return runner, references, setups


def traced(cli, rounds, workload: str, seconds: float):
    """A fixed number of rounds, sized from ``seconds`` so that the work
    counts repeat for one seed.  Every operation runs traced and then at once
    untraced, so both see the same machine speed.  The traced copy goes
    first so that it meets the program in the state the earlier operations
    left, not warmed by its own untraced copy.  Returns the untraced and the
    traced runner and the tracer."""
    count = max(1, int(seconds / (2.0 * NOMINAL_ROUND_S[workload])))
    plain, traced_runner, tracer = Runner(cli), Runner(cli), Tracer()
    for _ in range(count):
        for op in next(rounds):
            tracer.install()
            try:
                traced_runner.run(op)
            finally:
                tracer.uninstall()
            tracer.collect()
            plain.run(op)
    return plain, traced_runner, tracer


def accuracy_digits(runner) -> float:
    """-log10 of the worst relative error over the answered operations; 0
    when none answered (the run then reports a problem)."""
    if not runner.answered:
        return 0.0
    return -math.log10(max(runner.worst_rel, sys.float_info.epsilon))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("derive", "identify", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "choqint" / "__init__.py").is_file():
        print(f"run.py: no choqint sources under {SRC}", file=sys.stderr)
        return 2

    cli, rounds, first_round = prepare(args.workload, args.seed)
    problems = warm_up(cli, first_round)
    if args.trace == 0:
        runner, references, setups = measure(cli, rounds, args.seconds,
                                             args.workload, args.seed)
        speed = REFERENCE_S / statistics.median(references)
        print(f"run.py: raw op_s.p50 {statistics.median(runner.times):.4f} s; reference "
              f"kernel {statistics.median(references):.5f} s, scale {speed:.4f}",
              file=sys.stderr)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_s.p50": metric(statistics.median(runner.times) * speed, "s"),
            "points_per_s": metric(runner.points / sum(runner.times) / speed, "1/s"),
            "accuracy_digits": metric(accuracy_digits(runner), "digits"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        runners = [runner]
    else:
        plain, runner, tracer = traced(cli, rounds, args.workload, args.seconds)
        untraced_p50 = statistics.median(plain.times)
        traced_p50 = statistics.median(runner.times)
        metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.op_s.p50"] = metric(traced_p50, "s")
        metrics["trace.untraced_op_s.p50"] = metric(untraced_p50, "s")
        metrics["trace.overhead_pct"] = metric(100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
        runners = [plain, runner]

    for runner in runners:
        problems += runner.wrong
        if not runner.answered:
            problems.append("no operation answered")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

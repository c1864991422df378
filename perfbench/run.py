#!/usr/bin/env python3
"""Run one octoslice benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 40 --trace 0

The workload's inputs come from --seed alone.  The run repeats whole rounds
of the same operations, each round on fresh inputs drawn from (seed, round),
until starting another would pass --seconds.  It checks every output against
the computations in `reference.py`, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1
(see README.md).  The program is imported from the `src/` directory of the
checkout this file sits in.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("quotient", "witness", "field-checks")
SETUP_PROBES = 5


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_workload(name: str, seed: int):
    if name == "quotient":
        from quotient_workload import QuotientWorkload

        return QuotientWorkload(seed)
    if name == "witness":
        from witness_workload import WitnessWorkload

        return WitnessWorkload(seed)
    from fieldchecks_workload import FieldChecksWorkload

    return FieldChecksWorkload(seed, OUT / f"out-{os.getpid()}")


def setup_seconds() -> float:
    """Median over fresh processes of interpreter start to first round's inputs ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe"] + sys.argv[1:],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from common import Checks, Recorder

    workload = make_workload(args.workload, args.seed)
    rec = Recorder(tracer)
    checks = Checks()
    round_ops: list[range] = []
    longest = 0.0
    t_start = clock()
    while True:
        t_round = clock()
        inputs = workload.prepare(len(round_ops))
        first = len(rec.ops)
        out = workload.run_round(rec, inputs)
        round_ops.append(range(first, len(rec.ops)))
        if tracer is not None:
            tracer.end_round()
        workload.check(inputs, out, checks)
        now = clock()
        longest = max(longest, now - t_round)
        if now - t_start + longest > args.seconds:
            break

    rec.scale()
    ops = rec.ops
    round_walls = [sum(ops[i].scaled for i in r) for r in round_ops]
    result = {
        "correct": not checks.problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
    }
    for problem in sorted(set(checks.problems)):
        print("check failed:", problem, file=sys.stderr)
    rounds = len(round_walls)
    if tracer is not None:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer)
        metrics["trace.wall_s"] = (statistics.median(round_walls), "s")
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    else:
        solves = rec.latencies("solve")
        queries = rec.latencies("query")
        metrics = {
            "wall_s": (statistics.median(round_walls), "s"),
            "setup_s": (setup_seconds(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "solve_p50_ms": (1e3 * statistics.median(solves), "ms"),
            "query_p50_ms": (1e3 * statistics.median(queries), "ms"),
            "query_p90_ms": (1e3 * percentile(queries, 90), "ms"),
        }
        print(
            f"{args.workload} seed {args.seed}: {rounds} rounds, {len(solves)} solves, {len(queries)} queries",
            file=sys.stderr,
        )
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length (run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "octoslice").is_dir():
        print(f"octoslice sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        make_workload(args.workload, args.seed).prepare(0)
        print(repr(clock()))
        return 0
    try:
        result = run(args)
    finally:
        shutil.rmtree(OUT / f"out-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

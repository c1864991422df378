#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 20 --seeds 1 7 > BENCH_<n>.json

For every seed and workload, each pair runs `perfbench/run.py --trace 0`
once in each checkout, one process at a time; even pairs start with
PARENT, odd pairs with CHANGE, so drift in the machine's speed falls on
both sides alike.  Prints one JSON document: the last line of every run,
then each side's median and quartiles per workload, seed and end-to-end
metric with the pairs CHANGE won (every end-to-end metric is better
lower; ties count for neither side), then the versions of Python, numpy
and scipy, each checkout's code and `nproc`.  A checkout's code is its
`git describe --always --dirty --abbrev=40` (null outside git; "-dirty"
marks uncommitted changes) and the sha256 of its Python sources: each
`*.py` file under src/ and perfbench/, in order of relative path, adds
its path, a NUL, its bytes and a NUL.  Progress goes to stderr.  Exits 1
when a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

WORKLOADS = ("quotient", "witness", "field-checks")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def code_of(checkout: Path) -> dict:
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=checkout, capture_output=True, text=True
    )
    digest = hashlib.sha256()
    files = []
    for d in ("src", "perfbench"):
        for path in (checkout / d).rglob("*.py"):
            files.append((path.relative_to(checkout).as_posix(), path))
    for rel, path in sorted(files):
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"git": done.stdout.strip() if done.returncode == 0 else None, "sources_sha256": digest.hexdigest()}


def summarize(runs: list[dict]) -> dict:
    out: dict = {}
    for run in runs:
        cell = out.setdefault(run["workload"], {}).setdefault(str(run["seed"]), {})
        for name, metric in run["result"]["metrics"].items():
            entry = cell.setdefault(name, {"unit": metric["unit"], "parent": [], "change": []})
            entry[run["side"]].append(metric["value"])
    for cell in (c for w in out.values() for c in w.values()):
        for name, entry in cell.items():
            parent, change = entry["parent"], entry["change"]
            entry["change_wins"] = sum(c < p for p, c in zip(parent, change))
            entry["pairs"] = min(len(parent), len(change))
            entry["parent"], entry["change"] = spread(parent), spread(change)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of each run")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")

    runs = []
    ok = True
    for seed in args.seeds:
        for workload in WORKLOADS:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    try:
                        result = run_once(sides[side], workload, seed, args.seconds)
                    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
                        print(f"{workload} seed {seed} pair {pair} {side}: run failed: {exc}", file=sys.stderr)
                        return 1
                    ok &= result["correct"] is True
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, "result": result})
                    metrics = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
                    print(f"{workload} seed {seed} pair {pair} {side}: {metrics}", file=sys.stderr)

    report = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "runs": runs,
        "summary": summarize(runs),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        "code": {side: code_of(checkout) for side, checkout in sides.items()},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

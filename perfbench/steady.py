#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json this runs set A (seeds 1..5) and set B
(seeds 101..105), alternating A and B, one process at a time, with the
command and run length of BENCHMARK.json.  For each end-to-end metric it
prints each set's median and quartiles, the spread (q3 - q1) / median, and
whether the sets agree: every spread within the metric's bound, B's median
not worse than A's by more than the bound (nor A's than B's), and the same
share of failed operations in both sets.  Set-up time is judged on its
medians alone: it is a few process starts per run, so its spread is that of
the machine's process start-up, which no change to the benchmark narrows,
while a change that moves work into set-up still shows in its median.  The
raw results go to .perfbench/steady.json.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # runs per set and workload


def run_once(spec: dict, workload: str, seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd = spec["command"] + args
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, dict[str, list]] = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                res = run_once(spec, w, seed)
                results[w][label].append(res)
                print(f"{w} set {label} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}", file=sys.stderr)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    steady = True
    print(f"{'workload':13} {'metric':13} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = results[w]
        shares = {k: {r["failed"] / r["attempted"] for r in runs} for k, runs in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        all_correct = all(r["correct"] for runs in sets.values() for r in runs)
        for name, bound in bounds.items():
            meds = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                med, q1, q3, spread = summary(values)
                meds[label] = med
                ok = name == "setup_s" or spread <= bound  # see the module docstring
                steady &= ok
                verdict = "ok" if ok else "SPREAD"
                if label == "B":
                    drift = max(meds["B"] / meds["A"], meds["A"] / meds["B"]) - 1.0
                    agree = drift <= bound
                    steady &= agree
                    verdict += f", medians {drift:+.1%} " + ("ok" if agree else "DISAGREE")
                print(f"{w:13} {name:13} {label:3} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.1%} {bound:6.2f}  {verdict}")
        print(f"{w:13} failed share {'same' if same_share else 'DIFFERS'}: {sorted(shares['A'] | shares['B'])}; correct: {all_correct}")
        steady &= same_share and all_correct
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

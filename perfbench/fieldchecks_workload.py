"""Workload `field-checks`: CLI subcommands run in-process through
`cli.main(... --out <file>)`.

Solves are `slice-check`, `sfr-check` and `maxmod-scan` on built-in fields
whose verdicts are known analytically.  Queries are `eval`, `op` (all five
operators), `stem` (both routes) and `bv-residual` at seeded points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from octoslice import cli

import reference as ref
from common import Checks, rng_for, unit_near

# Smaller than the package defaults so one round stays a few seconds.
SLICE_PLAN = {"sphere_samples": 1000, "residual_unit_samples": 15}
SFR_PLAN = {"sphere_samples": 1000, "residual_unit_samples": 15, "residual_samples": 40}

OPERATORS = ("gamma", "euler", "slice-fueter", "cauchy-fueter", "slice-laplacian")
REFERENCE_OPS = {
    "gamma": ref.gamma,
    "euler": ref.euler,
    "slice-fueter": ref.slice_fueter,
    "cauchy-fueter": ref.cauchy_fueter,
    "slice-laplacian": ref.slice_laplacian,
}
# Finite-difference operators get a looser tolerance than closed-form ones.
OP_TOL = {"cauchy-fueter": 1e-7, "slice-laplacian": 1e-5}
CLOSED_FIELDS = ("identity", "affine-regular", "gaussian")

# Queries per round.  The square-root field's queries cost more (each builds
# its ball chain), so they are under a third of the mix: the p90 falls
# inside them and the p50 among the closed-form fields' queries.
N_EVAL = 16
N_OP = 30
N_STEM = 18
N_BV_CLOSED = 6
N_SQRT = 30


def _vec(v) -> str:
    return json.dumps([float(c) for c in v])


@dataclass
class Round:
    solves: list  # (argv, expected exit code)
    queries: list  # (argv, reference check)


class FieldChecksWorkload:
    name = "field-checks"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def prepare(self, round_no: int) -> Round:
        """Fresh seeded grids, plan seeds and points for one round."""
        rng = rng_for(self.seed, 1, round_no)
        plan_seed = str(int(rng.integers(2**31)))

        def check_cmd(cmd, field, plan):
            return [cmd, "--field", field, "--seed", plan_seed, "--plan", json.dumps(plan)]

        w = float(rng.uniform(0.8, 1.2))
        g_grid = {"center": [0, 0, 0, 0], "half_widths": [w] * 4, "counts": [11] * 4}
        i_grid = {"center": list(rng.uniform(-0.5, 0.5, size=4)), "half_widths": [0.5] * 4, "counts": [9] * 4}
        solves = [
            (check_cmd("slice-check", "coord-probe", SLICE_PLAN), 1),
            (check_cmd("slice-check", "identity", SLICE_PLAN), 0),
            (check_cmd("sfr-check", "identity", SFR_PLAN), 1),
            (check_cmd("sfr-check", "gaussian", SFR_PLAN), 1),
            (check_cmd("sfr-check", "affine-regular", SFR_PLAN), 0),
            (["maxmod-scan", "--field", "gaussian", "--grid", json.dumps(g_grid)], 1),
            (["maxmod-scan", "--field", "identity", "--grid", json.dumps(i_grid)], 0),
        ]

        def point():
            # inside the fields' ball of radius 3, off the real axis
            u = rng.normal(size=7)
            x = np.empty(8)
            x[0] = rng.uniform(-1.5, 1.5)
            x[1:] = rng.uniform(0.4, 1.8) * u / np.linalg.norm(u)
            return x

        queries = []
        for n in range(N_EVAL):
            name = ("identity", "affine-regular", "gaussian", "coord-probe")[n % 4]
            x = point()
            queries.append((["eval", "--field", name, "--point", _vec(x)], ("eval", name, x)))
        for n in range(N_OP):
            op, name = OPERATORS[n % 5], CLOSED_FIELDS[(n // 5) % 3]
            x = point()
            queries.append((["op", "--name", op, "--field", name, "--point", _vec(x)], ("op", name, op, x)))
        e1 = np.eye(7)[0]
        for n in range(N_STEM):
            name = ("identity", "affine-regular", "slab-cone")[n % 3]
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(1.2, 3.0))
            branch = 1 if rng.uniform() < 0.5 else -1
            u1 = branch * unit_near(rng, e1, rng.uniform(0.0, 0.25), dims=7)
            u2 = branch * unit_near(rng, e1, rng.uniform(0.45, 0.6), dims=7)
            argv = ["stem", "--field", name, "--z", _vec([z.real, z.imag])]
            if n % 2 == 0:
                argv += ["--units", json.dumps([list(map(float, u1)), list(map(float, u2))])]
            else:
                argv += ["--unit", _vec(u1)]
            queries.append((argv, ("stem", name, z, branch)))
        for n in range(N_SQRT):
            theta = rng.uniform(-2.5, 2.5)
            z = complex(math.cos(theta), 2.0 + math.sin(theta)) + complex(*rng.uniform(-0.05, 0.05, size=2))
            if n % 2 == 0:
                axis = math.cos(theta / 2.0) * e1 + math.sin(theta / 2.0) * np.eye(7)[1]
                x = ref.slice_point(z, unit_near(rng, axis, rng.uniform(0.0, 0.03)))
                argv = ["op", "--name", "slice-fueter", "--field", "sqrt-example", "--point", _vec(x)]
                queries.append((argv, ("regular", x)))
            else:
                argv = ["bv-residual", "--field", "sqrt-example", "--z", _vec([z.real, z.imag])]
                queries.append((argv, ("bv-regular", z)))
        for n in range(N_BV_CLOSED):
            name = CLOSED_FIELDS[n % 3]
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.8))
            argv = ["bv-residual", "--field", name, "--z", _vec([z.real, z.imag])]
            queries.append((argv, ("bv", name, z)))
        return Round(solves, queries)

    def _out(self, k: int) -> str:
        return os.path.join(self.out_dir, f"op-{k}.json")

    def run_round(self, rec, inp: Round) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        codes = []
        for k, (argv, _) in enumerate(inp.solves):
            full = argv + ["--out", self._out(k)]
            codes.append(rec.run("solve", f"{argv[0]}:{argv[2]}", lambda a=full: cli.main(a))[0])
        solve_out = [self._read(k) for k in range(len(inp.solves))]
        base = len(inp.solves)
        for k, (argv, _) in enumerate(inp.queries):
            full = argv + ["--out", self._out(base + k)]
            label = f"{argv[0]}:{argv[argv.index('--field') + 1]}"
            codes.append(rec.run("query", label, lambda a=full: cli.main(a), failed=lambda rc: rc == 2)[0])
        query_out = [self._read(base + k) for k in range(len(inp.queries))]
        return {"codes": codes, "solves": solve_out, "queries": query_out}

    def _read(self, k: int):
        try:
            return json.loads(Path(self._out(k)).read_text())
        except (OSError, ValueError):
            return None

    # -- checks ------------------------------------------------------------

    def check(self, inp: Round, out: dict, checks: Checks) -> None:
        codes = out["codes"]
        for (argv, want_rc), rc, payload in zip(inp.solves, codes, out["solves"]):
            what = " ".join(argv[:3])
            checks.expect(rc == want_rc, f"{what}: exit {rc}, expected {want_rc}")
            if payload is None:
                checks.expect(False, f"{what}: no JSON output")
                continue
            checks.expect(payload["pass"] == (want_rc == 0), f"{what}: verdict {payload['pass']}")
            if argv[0] == "sfr-check" and argv[2] == "identity":
                # |dbar_F x| = |1 - 1 - 2| = 2 at every off-axis point
                checks.close(payload["max_residual"], 2.0, 1e-9, f"{what}: residual")
            if argv[0] == "maxmod-scan" and argv[2] == "gaussian":
                maxima = payload["strict_maxima"]
                checks.expect(
                    len(maxima) == 1 and np.abs(maxima[0]).max() <= 1e-12,
                    f"{what}: strict maxima {maxima}, expected exactly the origin",
                )
        for (argv, spec), rc, payload in zip(inp.queries, codes[len(inp.solves) :], out["queries"]):
            what = " ".join(argv[:5])
            checks.expect(rc == 0, f"{what}: exit {rc}")
            if payload is None:
                checks.expect(False, f"{what}: no JSON output")
                continue
            self._check_query(spec, payload, what, checks)

    def _check_query(self, spec, payload, what, checks: Checks) -> None:
        kind = spec[0]
        if kind == "eval":
            _, name, x = spec
            checks.close(payload["value"], ref.field_value(name, x), 1e-12, what)
        elif kind == "op":
            _, name, op, x = spec
            want = REFERENCE_OPS[op](name, x)
            checks.close(payload["value"], want, OP_TOL.get(op, 1e-9) * (1.0 + np.abs(want).max()), what)
        elif kind == "stem":
            _, name, z, branch = spec
            u, v = ref.slab_cone_stem(z, branch) if name == "slab-cone" else ref.stem(name, z)
            checks.close(payload["u"], ref.scalar(u), 1e-6, what + " u")
            checks.close(payload["v"], ref.scalar(v), 1e-6, what + " v")
        elif kind == "bv":
            _, name, z = spec
            r1, r2 = ref.bers_vekua(name, z)
            checks.close(payload["r1"], ref.scalar(r1), 1e-9, what + " r1")
            checks.close(payload["r2"], ref.scalar(r2), 1e-9, what + " r2")
        elif kind == "regular":
            checks.expect(payload["norm"] <= 1e-6, f"{what}: |dbar_F f| = {payload['norm']:.3e} on a regular field")
        elif kind == "bv-regular":
            checks.expect(payload["max_norm"] <= 1e-6, f"{what}: Bers-Vekua residual {payload['max_norm']:.3e}")

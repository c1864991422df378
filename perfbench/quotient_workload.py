"""Workload `quotient`: sampled CCL quotients of domains whose component
count is known without running the program, and queries on them.

Solves are `build_quotient` calls.  Queries are `class_at` + `project_p` at
lifted grid vertices, replays of a seeded sample of merge records, and
`quotient_stem` of the square-root field on classes of the chain quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from octoslice.algebra import Octonion, UnitImaginary
from octoslice.domains import Ball, BallChain, BallUnion, SlabCone
from octoslice.golden import get_field
from octoslice.quotient import (
    build_quotient,
    class_at,
    count_components,
    project_p,
    quotient_stem,
    replay_merge_record,
)
from octoslice.sampling import SamplePlan

import reference as ref
from common import Checks, rng_for, unit_in_span

# Coarser than the package default so one round stays a few seconds; the
# chain plan keeps the pool separation the chain's thin unit bands need.
# Each pool cap sits below the pool the seed would give, so every seed
# builds a pool of the same size and does the same amount of work.
BALL_PLAN = {"pool_max": 150, "quotient_step_factor": 0.1}
SLAB_PLAN = {"pool_max": 90, "quotient_step_factor": 0.1}
CHAIN_PLAN = {"pool_max": 140, "quotient_z_step": 0.2, "pool_sep": 0.08}

# Dense re-check of replayed legs: twice the program's 2048 samples per leg,
# on a grid that contains the program's own sample times.
LEG_SAMPLES = 2 * 2047 + 1

# Queries per round, in blocks of increasing cost, sized so that the query
# p50 falls in the middle of the ball replays and the p90 inside the stems.
# Replays are of "arc" records, the kind the builder makes most, so that
# every replay in a block does the same work; stems are taken on classes of
# one size for the same reason.
N_CLASS_AT = 30
N_REPLAY_BALLS = 42
N_REPLAY_CHAIN = 4
N_STEMS = 24
STEM_CLASS_SIZE = 6

# Kept as a failed operation: the unit ball at the origin puts grid column
# z = 0.6 + 0.8i on its boundary, and that column's merge records do not
# replay (fixed inputs, independent of the seed).
BOUNDARY_PLAN_SEED = 0
BOUNDARY_Z = complex(0.6, 0.8)


def bridged_union_balls() -> list[tuple[np.ndarray, float]]:
    """Balls at 2e1 and 2e2 joined by nine balls on the circle of radius 2.6."""
    e1, e2 = ref.basis(1), ref.basis(2)
    balls = [(2.0 * e1, 0.5), (2.0 * e2, 0.5)]
    for phi in np.linspace(0.0, math.pi / 2.0, 9):
        balls.append((2.6 * (math.cos(phi) * e1 + math.sin(phi) * e2), 0.5))
    return balls


@dataclass
class Solve:
    label: str
    domain: object
    plan: SamplePlan
    components: int
    member: Callable  # reference membership, points (n, 8) -> bool


@dataclass
class Round:
    number: int
    solves: list[Solve]
    bridged: BallUnion
    boundary_ball: Ball


class QuotientWorkload:
    name = "quotient"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sqrt = get_field("sqrt-example")
        self.chain_centers = ref.chain_centers(np.eye(7)[0], np.eye(7)[1])
        self.bridged_balls = bridged_union_balls()

    def prepare(self, round_no: int) -> Round:
        """Fresh seeded inputs, and fresh domain objects, for one round."""
        rng = rng_for(self.seed, 1, round_no)

        def plan(extra):
            return SamplePlan(seed=int(rng.integers(2**31)), **extra)

        def ball(label, im_norm, radius):
            center = np.zeros(8)
            center[0] = rng.uniform(-0.3, 0.3)
            center[1:] = im_norm * unit_in_span(rng)
            return Solve(
                label,
                Ball(Octonion(center), radius),
                plan(BALL_PLAN),
                ref.ball_components(center, radius),
                lambda pts, c=center, r=radius: ref.ball_contains(pts, c, r),
            )

        solves = [ball("real-ball", 0.0, 1.0) for _ in range(4)]
        solves.append(ball("crossing-ball", 0.5, 1.0))
        solves += [ball("far-ball", 2.0, 0.4) for _ in range(2)]
        i0 = unit_in_span(rng)
        solves.append(
            Solve(
                "slab-cone",
                SlabCone(UnitImaginary(i0), math.pi / 4.0),
                plan(SLAB_PLAN),
                1,
                lambda pts: ref.slab_cone_contains(pts, i0, math.pi / 4.0),
            )
        )
        solves.append(
            Solve(
                "chain",
                BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2)),
                plan(CHAIN_PLAN),
                2,
                lambda pts: ref.chain_contains(pts, self.chain_centers),
            )
        )
        bridged = BallUnion([Ball(Octonion(c), r) for c, r in self.bridged_balls])
        return Round(round_no, solves, bridged, Ball(Octonion.zero(), 1.0))

    # -- one round ---------------------------------------------------------

    def run_round(self, rec, inp: Round) -> dict:
        quotients = []
        for s in inp.solves:
            q, _ = rec.run("solve", "build_quotient:" + s.label, lambda s=s: build_quotient(s.domain, s.plan))
            quotients.append(q)

        def bridged_replay():
            q = build_quotient(inp.bridged, SamplePlan(seed=1))
            return q, [replay_merge_record(q, r) for r in q.merge_records]

        def boundary_replay():
            q = build_quotient(inp.boundary_ball, SamplePlan(seed=BOUNDARY_PLAN_SEED, **BALL_PLAN))
            records = [r for r in q.merge_records if abs(q.z_of(r[1]) - BOUNDARY_Z) < 1e-9]
            return q, [replay_merge_record(q, r) for r in records]

        replay_failed = lambda r: not all(r[1])
        bridged, _ = rec.run("solve", "build_quotient+replay:bridged-union", bridged_replay, failed=replay_failed)
        boundary, _ = rec.run("solve", "build_quotient+replay:ball-boundary", boundary_replay, failed=replay_failed)

        queries = self._queries(inp, quotients)
        results = []
        for kind, solve_idx, arg in queries:
            q = quotients[solve_idx]
            if kind == "class_at":
                fn = lambda q=q, x=arg: project_p(q, class_at(q, Octonion(x)))
                res, _ = rec.run("query", "class_at", fn)
            elif kind == "replay":
                res, _ = rec.run(
                    "query", "replay_merge_record", lambda q=q, r=arg: replay_merge_record(q, r), failed=lambda ok: not ok
                )
            else:
                res, _ = rec.run("query", "quotient_stem", lambda q=q, c=arg: quotient_stem(self.sqrt.field, q, c))
            results.append(res)
        return {"quotients": quotients, "bridged": bridged, "boundary": boundary, "queries": queries, "results": results}

    def _queries(self, inp: Round, quotients) -> list[tuple]:
        """Query inputs drawn from the quotients just built.

        A solve that failed leaves no quotient; its queries are left out and
        the failed solve already marks the run.
        """
        rng = rng_for(self.seed, 2, inp.number)
        out = []
        real = [k for k, s in enumerate(inp.solves) if s.label == "real-ball"]
        for n in range(N_CLASS_AT):
            k = real[n % len(real)]
            q = quotients[k]
            if q is None:
                continue
            c0 = inp.solves[k].domain.center.coeffs[0]
            r = inp.solves[k].domain.radius
            verts = [(a, b) for a in q.alphas for b in q.betas if b >= 0.0 and abs(complex(a - c0, b)) <= 0.7 * r]
            a, b = verts[int(rng.integers(len(verts)))]
            u = rng.normal(size=7)
            out.append(("class_at", k, ref.slice_point(complex(a, b), u / np.linalg.norm(u))))
        # Seeded replays leave real-centred balls out: their grid has columns on
        # the boundary, whose records do not replay (kept once per round as the
        # fixed-input failed operation above).
        sampled = [k for k, s in enumerate(inp.solves) if s.label in ("crossing-ball", "far-ball")]
        chain = len(inp.solves) - 1
        for count, pool in ((N_REPLAY_BALLS, sampled), (N_REPLAY_CHAIN, [chain])):
            for n in range(count):
                k = pool[n % len(pool)]
                if quotients[k] is None:
                    continue
                arcs = [r for r in quotients[k].merge_records if r[0] == "arc"]
                out.append(("replay", k, arcs[int(rng.integers(len(arcs)))]))
        q = quotients[chain]
        if q is not None:
            eligible = [c.index for c in q.classes if len(c.unit_ids) == STEM_CLASS_SIZE and abs(c.z.imag) > 1e-9]
            for cid in rng.choice(eligible, size=N_STEMS):
                out.append(("stem", chain, int(cid)))
        return out

    # -- checks ------------------------------------------------------------

    def check(self, inp: Round, out: dict, checks: Checks) -> None:
        for s, q in zip(inp.solves, out["quotients"]):
            if q is not None:
                got = count_components(q)
                checks.expect(got == s.components, f"{s.label}: {got} components, expected {s.components}")
        for (kind, k, arg), res in zip(out["queries"], out["results"]):
            if res is None:
                continue
            s, q = inp.solves[k], out["quotients"][k]
            if kind == "class_at":
                x = arg
                z = complex(x[0], float(np.linalg.norm(x[1:])))
                checks.expect(abs(res - z) <= 1e-9, f"{s.label}: project_p(class_at(x)) = {res}, expected {z}")
            elif kind == "replay" and res:
                checks.expect(self._legs_inside(q, arg, s.member), f"{s.label}: replayed record {arg[:4]} leaves the domain")
            elif kind == "stem":
                self._check_stem(q, arg, res, checks)
        if out["bridged"] is not None:
            q, flags = out["bridged"]
            member = lambda pts: ref.union_contains(pts, self.bridged_balls)
            for record, ok in zip(q.merge_records, flags):
                if not ok:
                    # a refused record must really leave the domain
                    checks.expect(
                        not self._legs_inside(q, record, member),
                        f"bridged union: record {record[:4]} refused but stays inside",
                    )
        if out["boundary"] is not None:
            got = count_components(out["boundary"][0])
            checks.expect(got == 1, f"ball-boundary: {got} components, expected 1")

    def _legs_inside(self, q, record, member) -> bool:
        kind, col = record[0], record[1]
        z = q.z_of(col)
        s = np.linspace(0.0, 1.0, LEG_SAMPLES)
        if kind == "real":
            return bool(member(ref.slice_point(z, q.units[record[2]])[None, :]).all())
        if kind == "arc":
            units = ref.interp_units([0.0, 1.0], q.units[[record[2], record[3]]], s)
            pts = np.zeros((len(s), 8))
            pts[:, 0] = z.real
            pts[:, 1:] = z.imag * units
            return bool(member(pts).all())
        source = q.z_of(record[4])
        zs = (1.0 - s) * source + s * z
        for uid in (record[2], record[3]):
            pts = np.zeros((len(s), 8))
            pts[:, 0] = zs.real
            pts[:, 1:] = zs.imag[:, None] * q.units[uid]
            if not member(pts).all():
                return False
        return True

    def _check_stem(self, q, class_id, stem, checks: Checks) -> None:
        cls = q.classes[class_id]
        u, v = stem.u.coeffs, stem.v.coeffs
        for uid in cls.unit_ids:
            unit = q.units[uid]
            x = ref.slice_point(cls.z, unit)
            value = self.sqrt.field.evaluate(Octonion(x)).coeffs
            checks.expect(
                ref.stem_matches(value, unit, u, v, 1e-6),
                f"chain class {class_id}: f(z_I) != u + I v at unit {uid}",
            )

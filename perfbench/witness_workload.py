"""Workload `witness`: coupled-lifting witness searches and liftings.

Solves are fiber-product searches: seam pairs of the ball chain near
z = -1 + 2i, which must end not-equivalent, and a pair of a union of balls
that is equivalent only through a base-point move.  Queries are same-z pairs
that the direct constructions settle (in a ball, in a chain cap, on the
chain) and `lift_approximate` on seeded polygonal paths.  Every found
witness is followed by `stem_transport` of a slice-regular field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from octoslice.algebra import Octonion, UnitImaginary
from octoslice.domains import Ball, BallChain, BallUnion
from octoslice.golden import get_field
from octoslice.liftings import PolyPathO, ccl_search, lift_approximate, stem_transport
from octoslice.sampling import SamplePlan
from octoslice.stems import stem_from_gamma

import reference as ref
from common import Checks, rng_for, unit_near
from quotient_workload import bridged_union_balls

# A coarse z grid: each seam search costs about half a second and its cost
# varies little with the plan seed.
SEAM_PLAN = {"quotient_z_step": 0.25, "pool_sep": 0.08}
# The bridged-union search returns a verified witness at plan seed 0 and
# fails re-verification at seed 2 (kept below as the failed operation).
BRIDGED_FOUND_SEED = 0
BRIDGED_FAILED_SEED = 2
# One fixed seam pair at z = -1 + 2i and seeded ones near it; with one
# base-point move per round the solve p50 falls inside the seam searches.
N_SEAM_SEEDED = 7

# twice the program's 2048 samples, on a grid containing its sample times
WITNESS_SAMPLES = 2 * 2047 + 1
TRANSPORT_TOL = 1e-6

# Queries per round, in blocks of increasing cost (ball pairs, cap pairs,
# liftings, chain pairs) sized so that the query p50 falls in the middle of
# the cap pairs and the p90 in the middle of the chain pairs.
N_BALL = 30
N_CAP = 40
N_LIFT = 10
N_CHAIN = 20
DELTAS = (0.5, 0.1, 0.01)


@dataclass
class Round:
    chain: BallChain
    bridged: BallUnion
    seams: list  # (x, x', plan)
    queries: list  # (kind, domain, reference membership, x, x', field)
    paths: list  # (vertices, delta)


class WitnessWorkload:
    name = "witness"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sqrt = get_field("sqrt-example")
        self.affine = get_field("affine-regular")
        self.centers = ref.chain_centers(np.eye(7)[0], np.eye(7)[1])
        self.chain_member = lambda pts: ref.chain_contains(pts, self.centers)
        self.bridged_balls = bridged_union_balls()
        self.bridged_member = lambda pts: ref.union_contains(pts, self.bridged_balls)
        self.bridged_pair = (ref.slice_point(2j, np.eye(7)[0]), ref.slice_point(2j, np.eye(7)[1]))

    def prepare(self, round_no: int) -> Round:
        """Fresh seeded inputs, and fresh domain objects, for one round."""
        rng = rng_for(self.seed, 1, round_no)
        e1, e2 = np.eye(7)[0], np.eye(7)[1]
        chain = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2))
        bridged = BallUnion([Ball(Octonion(c), r) for c, r in self.bridged_balls])

        # seam pairs (x, x') on the two sheets of the chain over one z
        z_seam = complex(-1.0, 2.0)
        pairs = [(ref.slice_point(z_seam, e2), ref.slice_point(z_seam, -e2))]
        for _ in range(N_SEAM_SEEDED):
            z = z_seam + complex(*rng.uniform(-0.04, 0.04, size=2))
            u1 = unit_near(rng, e2, rng.uniform(0.0, 0.04))
            u2 = unit_near(rng, -e2, rng.uniform(0.0, 0.04))
            pairs.append((ref.slice_point(z, u1), ref.slice_point(z, u2)))
        seams = [(x, xp, SamplePlan(seed=int(rng.integers(2**31)), **SEAM_PLAN)) for x, xp in pairs]

        queries = []
        ball = Ball(Octonion.zero(), 2.5)
        member = lambda pts: ref.ball_contains(pts, np.zeros(8), 2.5)
        for _ in range(N_BALL):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.8))
            u1, u2 = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 7)))
            queries.append(("ball", ball, member, ref.slice_point(z, u1), ref.slice_point(z, u2), self.affine))
        for kind, count in (("cap", N_CAP), ("chain", N_CHAIN)):
            for _ in range(count):
                theta = rng.uniform(-math.pi, math.pi)
                center = self.centers[0].copy()
                center[0] = math.cos(theta)
                axis = math.cos(theta / 2.0) * e1 + math.sin(theta / 2.0) * e2
                center[1:] = (2.0 + math.sin(theta)) * axis
                z = complex(center[0], 2.0 + math.sin(theta)) + complex(*rng.uniform(-0.05, 0.05, size=2))
                u1 = unit_near(rng, axis, rng.uniform(0.0, 0.02))
                u2 = unit_near(rng, axis, rng.uniform(0.02, 0.04))
                if kind == "cap":
                    domain = Ball(Octonion(center), ref.CHAIN_RADIUS)
                    cap_member = lambda pts, c=center: ref.ball_contains(pts, c, ref.CHAIN_RADIUS)
                    queries.append((kind, domain, cap_member, ref.slice_point(z, u1), ref.slice_point(z, u2), self.sqrt))
                else:
                    pts = (ref.slice_point(z, u1), ref.slice_point(z, u2))
                    queries.append((kind, chain, self.chain_member, *pts, self.sqrt))
        paths = []
        for n in range(N_LIFT):
            verts = rng.uniform(-2.0, 2.0, size=(int(rng.integers(3, 11)), 8))
            paths.append((verts, DELTAS[n % len(DELTAS)]))
        return Round(chain, bridged, seams, queries, paths)

    # -- one round ---------------------------------------------------------

    def run_round(self, rec, inp: Round) -> dict:
        seams = []
        for x, xp, plan in inp.seams:

            def seam(x=x, xp=xp, plan=plan):
                res = ccl_search(inp.chain, Octonion(x), Octonion(xp), plan)
                stems = [stem_from_gamma(self.sqrt.field, Octonion(p)) for p in (x, xp)]
                return res, stems

            seams.append(rec.run("solve", "ccl_search:seam", seam, failed=lambda r: r[0].status == "budget-exhausted")[0])

        def base_move(plan):
            x, xp = self.bridged_pair
            res = ccl_search(inp.bridged, Octonion(x), Octonion(xp), plan)
            return res, stem_transport(self.affine.field, res.witness) if res.found else None

        move, _ = rec.run(
            "solve",
            "ccl_search:base-move",
            lambda: base_move(SamplePlan(seed=BRIDGED_FOUND_SEED)),
            failed=lambda r: not r[0].found,
        )
        rec.run(
            "solve",
            "ccl_search:bridged-union",
            lambda: base_move(SamplePlan(seed=BRIDGED_FAILED_SEED)),
            failed=lambda r: not r[0].found,
        )

        pairs = []
        for kind, domain, _, x, xp, gf in inp.queries:

            def pair(domain=domain, x=x, xp=xp, gf=gf):
                res = ccl_search(domain, Octonion(x), Octonion(xp))
                return res, stem_transport(gf.field, res.witness) if res.found else None

            pairs.append(rec.run("query", "ccl_search:" + kind, pair, failed=lambda r: not r[0].found)[0])
        lifts = [
            rec.run("query", "lift_approximate", lambda v=v, d=d: lift_approximate(PolyPathO(v), d))[0]
            for v, d in inp.paths
        ]
        return {"seams": seams, "move": move, "pairs": pairs, "lifts": lifts}

    # -- checks ------------------------------------------------------------

    def check(self, inp: Round, out: dict, checks: Checks) -> None:
        """Check every output of a round.  A search that failed (raised or
        found no witness) is counted in `failed`; it has no witness to check."""
        for n, got in enumerate(out["seams"]):
            if got is None or got[0].status == "budget-exhausted":
                continue
            res, (s1, s2) = got
            checks.expect(res.status == "not-equivalent", f"seam pair {n}: status {res.status}")
            gap = max(abs(s1.u.coeffs[0] - s2.u.coeffs[0]), abs(s1.v.coeffs[0] - s2.v.coeffs[0]))
            checks.expect(gap > 0.5, f"seam pair {n}: stems on the two sheets differ by only {gap:.3e}")
            if n == 0:
                for sv, branch in ((s1, 1), (s2, -1)):
                    u, v = ref.SEAM_STEMS[branch]
                    checks.close(sv.u.coeffs, ref.scalar(u), 1e-6, f"seam stem u on sheet {branch}")
                    checks.close(sv.v.coeffs, ref.scalar(v), 1e-6, f"seam stem v on sheet {branch}")
        if out["move"] is not None and out["move"][0].found:
            self._check_witness(out["move"], self.bridged_member, *self.bridged_pair, "bridged union", checks)
        for (kind, _, member, x, xp, _), got in zip(inp.queries, out["pairs"]):
            if got is not None and got[0].found:
                self._check_witness(got, member, x, xp, kind, checks)
        for (verts, delta), got in zip(inp.paths, out["lifts"]):
            if got is not None:
                self._check_lift(verts, delta, got, checks)

    def _check_witness(self, got, member, x, xp, what: str, checks: Checks) -> None:
        res, transport = got
        w = res.witness
        ts = np.union1d(
            np.union1d(w.base.times, w.units1.times),
            np.union1d(w.units2.times, np.linspace(0.0, 1.0, WITNESS_SAMPLES)),
        )
        p1 = ref.lifting_points(w.base.times, w.base.vertices, w.units1.times, w.units1.vertices, ts)
        p2 = ref.lifting_points(w.base.times, w.base.vertices, w.units2.times, w.units2.vertices, ts)
        checks.close(p1[0], p2[0], 1e-9, f"{what}: witness start gap")
        checks.close(p1[-1], x, 1e-9, f"{what}: witness end 1")
        checks.close(p2[-1], xp, 1e-9, f"{what}: witness end 2")
        checks.expect(bool(member(p1).all() and member(p2).all()), f"{what}: witness leaves the domain")
        checks.expect(transport.deviation <= TRANSPORT_TOL, f"{what}: stem transport deviation {transport.deviation:.3e}")

    def _check_lift(self, verts, delta, got, checks: Checks) -> None:
        lifting, cert = got
        checks.expect(bool(cert["passed"]), f"lift_approximate certificate failed at delta {delta}")
        times = np.linspace(0.0, 1.0, len(verts))
        ts = np.union1d(lifting.base.times, np.linspace(0.0, 1.0, 4 * len(lifting.base.times)))
        lifted = ref.lifting_points(
            lifting.base.times, lifting.base.vertices, lifting.units.times, lifting.units.vertices, ts
        )
        dev = np.sqrt(((lifted - ref.polyline_points(times, verts, ts)) ** 2).sum(axis=1))
        checks.expect(float(dev.max()) < delta, f"lifting deviates {dev.max():.3e} >= delta {delta}")
        checks.expect(max(dev[0], dev[-1]) <= 1e-9, "lifting endpoints are not exact")

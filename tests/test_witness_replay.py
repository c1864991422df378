"""One-pass witness checks must give the verdicts of the two-call checks.

`ccl_verify` samples both liftings of a witness into one array and tests it
with one membership call, on a cached sample grid.  The references below are
the straightforward bodies: each lifting evaluated on its own, on
`union1d(base times, linspace(0, 1, resolution))`, with one membership call
per lifting.
"""

import math

import numpy as np
import pytest

import octoslice.quotient as quotient
from octoslice.algebra import Octonion
from octoslice.domains import Ball, BallUnion
from octoslice.liftings import CoupledLifting, PolyPathC, PolyPathS, ccl_verify
from octoslice.quotient import build_quotient, replay_merge_record
from octoslice.sampling import SamplePlan

E = [Octonion.basis(k) for k in range(8)]


def _reference_ccl_verify(witness, x, xp, domain, resolution=2048, tol=1e-9):
    ts = np.union1d(witness.base.times, np.linspace(0.0, 1.0, resolution))
    pts1 = witness.lifting(1).eval_many(ts)
    pts2 = witness.lifting(2).eval_many(ts)
    detail = {
        "start_gap": float(np.linalg.norm(pts1[0] - pts2[0])),
        "end1_error": float(np.linalg.norm(pts1[-1] - x.coeffs)),
        "end2_error": float(np.linalg.norm(pts2[-1] - xp.coeffs)),
        "in_domain1": bool(np.all(domain.contains_batch(pts1))),
        "in_domain2": bool(np.all(domain.contains_batch(pts2))),
    }
    ok = (
        detail["start_gap"] <= tol
        and detail["end1_error"] <= tol
        and detail["end2_error"] <= tol
        and detail["in_domain1"]
        and detail["in_domain2"]
    )
    return ok, detail


def _reference_lift_in_domain(lifting, domain, resolution=2048):
    ts = np.union1d(lifting.base.times, np.linspace(0.0, 1.0, resolution))
    return bool(np.all(domain.contains_batch(lifting.eval_many(ts))))


def _bridged_union():
    balls = [Ball(2 * E[1], 0.5), Ball(2 * E[2], 0.5)]
    for phi in np.linspace(0.0, math.pi / 2.0, 9):
        balls.append(Ball(2.6 * (math.cos(phi) * E[1] + math.sin(phi) * E[2]), 0.5))
    return BallUnion(balls)


def _boundary_column_records(q):
    return [r for r in q.merge_records if abs(q.z_of(r[1]) - complex(0.6, 0.8)) < 1e-9]


# name: (domain, plan, records to replay, failing records, records)
REPLAYS = {
    "bridged-union": (_bridged_union(), SamplePlan(seed=1), lambda q: q.merge_records, 19, 1164),
    "ball-boundary-column": (
        Ball(Octonion.zero(), 1.0),
        SamplePlan(seed=0, pool_max=150, quotient_step_factor=0.1),
        _boundary_column_records,
        145,
        148,
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_replays_match_two_call_reference(name, monkeypatch):
    domain, plan, select, failing, count = REPLAYS[name]
    q = build_quotient(domain, plan)
    records = select(q)
    got = [replay_merge_record(q, r) for r in records]
    monkeypatch.setattr(quotient, "ccl_verify", _reference_ccl_verify)
    monkeypatch.setattr(quotient, "lift_in_domain", _reference_lift_in_domain)
    want = [replay_merge_record(q, r) for r in records]
    assert got == want
    assert (len(got), got.count(False)) == (count, failing)
    if name == "bridged-union":
        assert {r[0] for r in records} == {"arc", "ride"}
    else:
        assert {r[0] for r in records} == {"arc"}


def _random_unit_path(rng, count, start=None):
    verts = rng.normal(size=(count, 7))
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    if start is not None:
        verts[0] = start
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, count - 2)), [1.0]])
    return PolyPathS(verts, times)


@pytest.mark.parametrize("base_vertices", [2, 3])
def test_ccl_verify_detail_equals_two_call_reference(base_vertices):
    rng = np.random.default_rng(base_vertices)
    # the real-centred ball holds some of these liftings whole
    domains = [_bridged_union(), Ball(0.2 * E[0], 2.3)]
    verdicts, inside, resolutions = set(), set(), (3, 64, 2048)
    for trial in range(60):
        domain = domains[trial % 2]
        zs = complex(0.2, 2.0) + rng.normal(scale=0.4, size=base_vertices) * (1 + 0.5j)
        times = None
        if base_vertices > 2:
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, base_vertices - 2)), [1.0]])
        base = PolyPathC(zs, times)
        units1 = _random_unit_path(rng, rng.integers(2, 5))
        # most witnesses start both liftings at one point
        start = units1.vertices[0] if trial % 5 else None
        witness = CoupledLifting(base, units1, _random_unit_path(rng, rng.integers(2, 5), start))
        ends = [witness.lifting(k).eval(1.0) for k in (1, 2)]
        # exact ends, ends a rounding away, and wrong ends
        shift = [0.0, 1e-12, 1e-3][trial % 3]
        x, xp = (Octonion(e.coeffs + shift * rng.normal(size=8)) for e in ends)
        resolution = resolutions[trial % 3]
        got = ccl_verify(witness, x, xp, domain, resolution=resolution)
        want = _reference_ccl_verify(witness, x, xp, domain, resolution=resolution)
        assert got == want, trial
        verdicts.add(got[0])
        inside.add(got[1]["in_domain1"])
    assert verdicts == inside == {True, False}

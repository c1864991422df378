"""Witness checks and grid masks must give the verdicts of the all-rows checks.

`ccl_verify` and `lift_in_domain` test only the rows of pieces that no ball
certifies, in one membership call; `SlicePairGrid.arc_mask` and `move_mask`
probe only the legs that no ball certifies.  The references below are the
straightforward bodies: each lifting evaluated on its own, on
`union1d(base times, linspace(0, 1, resolution))`, with one membership call
per lifting, and every probe of every candidate leg tested.
"""

import math

import numpy as np
import pytest

import octoslice.quotient as quotient
from octoslice.algebra import Octonion
from octoslice.domains import Ball, BallUnion
from octoslice.liftings import CoupledLifting, PolyPathC, PolyPathS, ccl_verify, lift_in_domain
from octoslice.quotient import build_quotient, replay_merge_record
from octoslice.sampling import _LEG_TIMES, SamplePlan, SlicePairGrid, Subsphere

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


def _reference_members(grid, col):
    z = grid.z_of(col)
    pts = np.zeros((len(grid.units), 8))
    pts[:, 0] = z.real
    pts[:, 1:] = z.imag * grid.units
    return grid.domain.contains_batch(pts)


def _reference_arc_mask(grid, col):
    mem = _reference_members(grid, col)
    mask = mem[grid.edges[:, 0]] & mem[grid.edges[:, 1]]
    cand = np.flatnonzero(mask)
    if len(cand):
        z = grid.z_of(col)
        arcs = grid.edge_arcs[cand]
        pts = np.zeros((arcs.shape[0] * arcs.shape[1], 8))
        pts[:, 0] = z.real
        pts[:, 1:] = z.imag * arcs.reshape(-1, 7)
        mask[cand] = grid.domain.contains_batch(pts).reshape(arcs.shape[:2]).all(axis=1)
    return mask


def _reference_move_mask(grid, a, b):
    a, b = min(a, b), max(a, b)
    mask = _reference_members(grid, a) & _reference_members(grid, b)
    cand = np.flatnonzero(mask)
    if len(cand):
        za, zb = grid.z_of(a), grid.z_of(b)
        zs = (1.0 - _LEG_TIMES) * za + _LEG_TIMES * zb
        pts = np.zeros((len(cand) * len(zs), 8))
        pts[:, 0] = np.repeat(zs.real, len(cand))
        pts[:, 1:] = (zs.imag[:, None, None] * grid.units[cand][None, :, :]).reshape(-1, 7)
        mask[cand] = grid.domain.contains_batch(pts).reshape(len(zs), len(cand)).all(axis=0)
    return mask


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


def _bits(result):
    """A check's result with every float as its bytes, so == compares to the last bit."""
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    if isinstance(result, dict):
        return {k: _bits(v) for k, v in result.items()}
    return np.float64(result).tobytes() if isinstance(result, float) else result


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_replays_match_two_call_reference(name, monkeypatch):
    domain, plan, select, failing, count = REPLAYS[name]
    q = build_quotient(domain, plan)
    records = select(q)
    # every check a replay makes, against the reference on the same arguments
    checks, held = [], []

    def both_ccl(*args, **kwargs):
        got = ccl_verify(*args, **kwargs)
        checks.append((_bits(got), _bits(_reference_ccl_verify(*args, **kwargs))))
        return got

    def both_lift(*args, **kwargs):
        got = lift_in_domain(*args, **kwargs)
        checks.append((got, _reference_lift_in_domain(*args, **kwargs)))
        return got

    def deep_legs(p0, p1, sag):
        out = type(domain).deep_legs(domain, p0, p1, sag)
        held.append(int(out.sum()))
        return out

    monkeypatch.setattr(quotient, "ccl_verify", both_ccl)
    monkeypatch.setattr(quotient, "lift_in_domain", both_lift)
    monkeypatch.setattr(domain, "deep_legs", deep_legs, raising=False)
    got = [replay_merge_record(q, r) for r in records]
    assert len(checks) >= len(records)
    assert all(g == w for g, w in checks)
    monkeypatch.setattr(quotient, "ccl_verify", _reference_ccl_verify)
    monkeypatch.setattr(quotient, "lift_in_domain", _reference_lift_in_domain)
    want = [replay_merge_record(q, r) for r in records]
    assert got == want
    assert (len(got), got.count(False)) == (count, failing)
    if name == "bridged-union":
        assert {r[0] for r in records} == {"arc", "ride"}
        assert sum(held) > 0
    else:
        assert {r[0] for r in records} == {"arc"}
        # the column's rows sit on the sphere: no piece can be certified
        assert sum(held) == 0


def _ball(real, im, radius):
    """A ball whose centre has real part `real` and imaginary part `im` in e1, e2, e3."""
    center = np.zeros(8)
    center[0] = real
    center[1:4] = im
    return Ball(Octonion(center), radius)


# name: (domain, plan); the balls of the benchmark's quotient workload
GRIDS = {
    "real-ball": (_ball(0.2, (0.0, 0.0, 0.0), 1.0), SamplePlan(seed=3, pool_max=150, quotient_step_factor=0.1)),
    "crossing-ball": (_ball(-0.1, (0.3, 0.0, 0.4), 1.0), SamplePlan(seed=4, pool_max=150, quotient_step_factor=0.1)),
    "far-ball": (_ball(0.1, (1.2, 0.0, 1.6), 0.4), SamplePlan(seed=5, pool_max=150, quotient_step_factor=0.1)),
    "bridged-union": (_bridged_union(), SamplePlan(seed=1)),
    # at z = 0.6i the slice sphere misses only a cap of about 12 degrees
    # around e1, so arcs across that cap leave the ball between two members
    "thin-gap-ball": (_ball(0.0, (-0.405, 0.0, 0.0), 1.0), SamplePlan(seed=6, pool_max=300, quotient_z_step=0.1)),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_masks_match_all_probe_reference(name, monkeypatch):
    domain, plan = GRIDS[name]
    held = []

    def deep_legs(p0, p1, sag):
        out = type(domain).deep_legs(domain, p0, p1, sag)
        held.append(int(out.sum()))
        return out

    monkeypatch.setattr(domain, "deep_legs", deep_legs, raising=False)
    grid = SlicePairGrid(domain, plan, Subsphere.default())
    arcs = moves = 0
    for col in grid.columns():
        assert np.array_equal(grid.members(col), _reference_members(grid, col))
        if not grid.members(col).any():
            continue
        got = grid.arc_mask(col)
        assert np.array_equal(got, _reference_arc_mask(grid, col)), col
        arcs += int(got.sum())
        for nb in grid.neighbors(col):
            got = grid.move_mask(col, nb)
            assert np.array_equal(got, _reference_move_mask(grid, col, nb)), (col, nb)
            moves += int(got.sum())
    assert arcs > 0 and moves > 0 and sum(held) > 0


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

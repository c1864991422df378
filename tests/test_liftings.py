import json
import tracemalloc

import numpy as np
import pytest

from octoslice.algebra import Octonion, UnitImaginary, tau
from octoslice.domains import Ball, BallUnion
from octoslice.errors import DomainError, PreconditionError
from octoslice import liftings
from octoslice.golden import get_field
from octoslice.liftings import (
    CoupledLifting,
    _FiberSearch,
    PolyPathC,
    PolyPathO,
    PolyPathS,
    ccl_search,
    ccl_verify,
    lift_approximate,
    lift_decompose,
    lift_in_domain,
    stem_transport,
)
from octoslice.sampling import SamplePlan

E = [Octonion.basis(k) for k in range(8)]


def test_poly_path_validation():
    with pytest.raises(PreconditionError):
        PolyPathC([1 + 1j])
    with pytest.raises(PreconditionError):
        PolyPathC([0, 1], times=np.array([0.0, 0.5]))
    with pytest.raises(PreconditionError):
        PolyPathS(np.vstack([np.eye(7)[0], -np.eye(7)[0]]))
    with pytest.raises(PreconditionError):
        PolyPathS(np.vstack([np.eye(7)[0], 2 * np.eye(7)[1]]))


def test_decompose_roundtrip_and_units():
    rng = np.random.default_rng(31)
    verts = []
    for _ in range(5):
        c = rng.normal(size=8)
        c[1] += 4.0  # stay far off the axis
        verts.append(Octonion(c))
    path = PolyPathO(verts)
    lifting = lift_decompose(path, samples=512)
    ts = lifting.base.times
    assert np.abs(lifting.eval_many(ts) - path.eval_many(ts)).max() < 1e-12
    assert np.all(lifting.base.eval_many(ts).imag >= 0)


def test_decompose_real_endpoint_one_sided_unit():
    path = PolyPathO([Octonion.one(), Octonion.one() + E[3]])
    lifting = lift_decompose(path, samples=64)
    u0 = lifting.units.eval(0.0)
    assert np.abs(u0.vec - np.eye(7)[2]).max() < 1e-12  # e3 direction


def test_decompose_rejects_interior_real_point():
    path = PolyPathO([Octonion.one() + E[1], 2.0 * Octonion.one(), Octonion.one() + E[1]])
    with pytest.raises(DomainError):
        lift_decompose(path)


def random_axis_touching_path(rng):
    verts = [np.concatenate([[rng.normal()], rng.normal(size=7) * 0.8])]
    for _ in range(rng.integers(2, 5)):
        kind = rng.integers(0, 3)
        prev = verts[-1]
        if kind == 0:  # generic off-axis vertex
            verts.append(np.concatenate([[rng.normal()], rng.normal(size=7) * 0.8]))
        elif kind == 1:  # real vertex
            v = np.zeros(8)
            v[0] = rng.normal()
            verts.append(v)
        else:  # force an exact interior crossing
            v = prev.copy()
            v[0] += rng.normal()
            v[1:] = -rng.uniform(0.3, 1.5) * prev[1:]
            if np.linalg.norm(v[1:]) < 1e-9:
                v[1:] = -0.5 * np.eye(7)[0]
            verts.append(v)
    return PolyPathO([Octonion(v) for v in verts])


def test_lift_approximate_certificates():
    rng = np.random.default_rng(32)
    for _ in range(10):
        path = random_axis_touching_path(rng)
        for delta in (0.5, 0.1, 0.01):
            lifting, cert = lift_approximate(path, delta, samples=2000)
            assert cert["passed"], cert
            assert cert["sup_deviation"] < delta
            assert cert["endpoint_start_error"] <= 1e-9
            assert cert["endpoint_end_error"] <= 1e-9
            start = lifting.eval(0.0)
            assert (start - path.eval(0.0)).norm() <= 1e-9


def test_lift_approximate_rejects_bad_delta():
    path = PolyPathO([Octonion.one() + E[1], Octonion.one() - E[1]])
    with pytest.raises(PreconditionError):
        lift_approximate(path, 0.0)


def test_lift_samples_are_positive_and_bounded(monkeypatch):
    path = PolyPathO([Octonion.one() + E[1], Octonion.one() + E[2]])
    for samples in (0, -1, True, 2.5, "64", liftings.MAX_LIFT_SAMPLES + 1):
        with pytest.raises(PreconditionError):
            lift_decompose(path, samples=samples)
        with pytest.raises(PreconditionError):
            lift_approximate(path, 0.1, samples=samples)
    assert lift_approximate(path, 0.1, samples=np.int64(64))[1]["resolution"] == 64
    # the default, 100 samples per vertex past 100 vertices, is bounded too
    monkeypatch.setattr(liftings, "MAX_LIFT_SAMPLES", 20_000)
    verts = [Octonion.one() + E[1] + 0.01 * k * E[2] for k in range(201)]
    with pytest.raises(PreconditionError):
        lift_approximate(PolyPathO(verts), 0.1)
    assert lift_approximate(PolyPathO(verts[:200]), 0.1)[1]["resolution"] >= 20_000


def test_lift_in_domain():
    ball = Ball(Octonion.zero(), 3.0)
    inside = lift_decompose(PolyPathO([E[1], 2.0 * E[1]]), samples=64)
    assert lift_in_domain(inside, ball)
    outside = lift_decompose(PolyPathO([E[1], 4.0 * E[1]]), samples=64)
    assert not lift_in_domain(outside, ball)


BALL = Ball(Octonion.zero(), 3.0)
PLAN = SamplePlan()


def test_ccl_trivial_and_direct():
    x = Octonion.one() + 2 * E[1]
    res = ccl_search(BALL, x, x, PLAN)
    assert res.found and ccl_verify(res.witness, x, x, BALL)[0]
    xp = Octonion.one() + 2 * E[2]
    res = ccl_search(BALL, x, xp, PLAN)
    assert res.found
    assert ccl_verify(res.witness, x, xp, BALL)[0]
    # antipodal units need a waypoint
    xm = Octonion.one() - 2 * E[1]
    res = ccl_search(BALL, x, xm, PLAN)
    assert res.found and ccl_verify(res.witness, x, xm, BALL)[0]


def test_ccl_rejects_mismatched_projection():
    x = Octonion.one() + 2 * E[1]
    res = ccl_search(BALL, x, Octonion.one() + 2.5 * E[2], PLAN)
    assert res.status == "not-equivalent" and res.witness is None
    with pytest.raises(DomainError):
        ccl_search(BALL, x, 7.0 * E[1], PLAN)


def test_ccl_same_cap_on_chain():
    sq = get_field("sqrt-example")
    u2 = np.zeros(7)
    u2[0], u2[1] = np.cos(0.08), np.sin(0.08)
    x = tau(UnitImaginary.basis(1), 1 + 2j)
    xp = tau(UnitImaginary(u2), 1 + 2j)
    res = ccl_search(sq.domain, x, xp, PLAN)
    assert res.found
    tr = stem_transport(sq.field, res.witness)
    assert tr.deviation < 1e-6


def test_ccl_chain_ends_not_equivalent():
    sq = get_field("sqrt-example")
    plan = SamplePlan(quotient_z_step=0.1)
    x = -Octonion.one() + 2 * E[2]
    xp = -Octonion.one() - 2 * E[2]
    res = ccl_search(sq.domain, x, xp, plan)
    assert res.status in ("not-equivalent", "budget-exhausted")
    assert res.witness is None


HUB = BallUnion(
    [
        Ball(2 * E[2], 0.5),
        Ball(2 * E[3], 0.5),
        Ball(1.25 * E[2], 0.5),
        Ball(1.25 * E[3], 0.5),
        Ball(Octonion.zero(), 1.2),
    ]
)

_M = (E[2] + E[3]) * (1 / np.sqrt(2))
CHAMBER = BallUnion(
    [
        Ball(2 * E[2], 0.5),
        Ball(2 * E[3], 0.5),
        Ball(1.5 * E[2], 0.45),
        Ball(1.5 * E[3], 0.45),
        Ball(_M, 0.85),
    ]
)


def test_ccl_real_anchor_recoupling():
    x, xp = 2 * E[2], 2 * E[3]
    res = ccl_search(HUB, x, xp, PLAN)
    assert res.found and res.detail == "real anchor recoupling"
    assert ccl_verify(res.witness, x, xp, HUB)[0]
    tr = stem_transport(get_field("constant").field, res.witness)
    assert tr.deviation < 1e-9


def test_ccl_fiber_search_through_chamber():
    # no real anchor: every ball stays off the axis
    reals = np.zeros((41, 8))
    reals[:, 0] = np.linspace(-3, 3, 41)
    assert not CHAMBER.contains_batch(reals).any()
    x, xp = 2 * E[2], 2 * E[3]
    res = ccl_search(CHAMBER, x, xp, PLAN)
    assert res.found and res.detail == "fiber-product search"
    ok, info = ccl_verify(res.witness, x, xp, CHAMBER)
    assert ok, info
    tr = stem_transport(get_field("affine-regular").field, res.witness)
    assert tr.deviation < 1e-6


def test_ccl_budget_exhaustion():
    x, xp = 2 * E[2], 2 * E[3]
    res = ccl_search(CHAMBER, x, xp, SamplePlan(search_budget=3))
    assert res.status == "budget-exhausted" and res.witness is None


def test_witness_json_roundtrip():
    x = Octonion.one() + 2 * E[1]
    xp = Octonion.one() + 2 * E[2]
    res = ccl_search(BALL, x, xp, PLAN)
    clone = CoupledLifting.from_json(res.witness.to_json())
    assert ccl_verify(clone, x, xp, BALL)[0]


_WITNESS_JSON = {
    "base": {"times": [0.0, 1.0], "vertices": [[1.0, 2.0], [1.0, 2.0]]},
    "units1": {"times": [0.0, 1.0], "vertices": [[1, 0, 0, 0, 0, 0, 0]] * 2},
    "units2": {"times": [0.0, 1.0], "vertices": [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]},
}


def _edited(path, value):
    data = json.loads(json.dumps(_WITNESS_JSON))
    *keys, last = path
    node = data
    for key in keys:
        node = node[key]
    node[last] = value
    return data


@pytest.mark.parametrize(
    "path, value",
    [
        (("base", "vertices", 0, 0), True),
        (("base", "vertices", 1, 1), float("nan")),
        (("base", "vertices", 0, 1), float("inf")),
        (("base", "vertices", 0), [1.0, 2.0, 0.0]),
        (("base", "times", 0), "0"),
        (("units1", "times", 1), None),
        (("units2", "vertices", 1, 3), "0"),
        (("units2", "vertices", 1), [0, 1, 0, 0, 0, 0]),
    ],
)
def test_witness_json_refuses_non_numbers_and_bad_shapes(path, value):
    assert CoupledLifting.from_json(_WITNESS_JSON).to_json() == _WITNESS_JSON
    with pytest.raises(PreconditionError):
        CoupledLifting.from_json(_edited(path, value))


@pytest.mark.parametrize(
    "cls, data",
    [
        (PolyPathC, {"times": [False, 1.0], "vertices": [[0.0, 1.0], [1.0, 1.0]]}),
        (PolyPathS, {"times": [0.0, 1.0], "vertices": [[1, 0, 0, 0, 0, 0, "nan"], [0, 1, 0, 0, 0, 0, 0]]}),
        (PolyPathO, {"times": [0.0, 1.0], "vertices": [[0.0] * 8, [1.0] * 8 + [0.0]]}),
        (PolyPathO, {"times": [0.0, 1.0], "vertices": [[0.0] * 8, [1e400] + [0.0] * 7]}),
        (PolyPathO, {"times": [0.0, 1.0], "vertices": [[0.0] * 8, [True] + [0.0] * 7]}),
    ],
)
def test_path_json_refuses_non_numbers_and_bad_shapes(cls, data):
    with pytest.raises(PreconditionError):
        cls.from_json(data)


def test_ccl_verify_rejects_bad_witness():
    x = Octonion.one() + 2 * E[1]
    xp = Octonion.one() + 2 * E[2]
    res = ccl_search(BALL, x, xp, PLAN)
    ok, info = ccl_verify(res.witness, x, Octonion.one() + 2 * E[3], BALL)
    assert not ok and info["end2_error"] > 1e-3


def test_witness_checks_refuse_a_resolution_without_interior_samples():
    # the arc e2 -> e3 at z = 2i leaves the two small balls between its ends
    two_balls = BallUnion([Ball(2 * E[2], 0.3), Ball(2 * E[3], 0.3)])
    x, xp = tau(UnitImaginary.basis(2), 2j), tau(UnitImaginary.basis(3), 2j)
    e2, e3 = np.eye(7)[1], np.eye(7)[2]
    witness = CoupledLifting(PolyPathC([2j, 2j]), PolyPathS(np.vstack([e2, e2])), PolyPathS(np.vstack([e2, e3])))
    for resolution in (2, 1, 0, -5):
        with pytest.raises(PreconditionError, match="at least 3"):
            ccl_verify(witness, x, xp, two_balls, resolution=resolution)
        with pytest.raises(PreconditionError, match="at least 3"):
            lift_in_domain(witness.lifting(2), two_balls, resolution=resolution)
    for resolution in (3, 2048):
        ok, info = ccl_verify(witness, x, xp, two_balls, resolution=resolution)
        assert not ok and info["in_domain1"] and not info["in_domain2"]
        assert lift_in_domain(witness.lifting(1), two_balls, resolution=resolution)
        assert not lift_in_domain(witness.lifting(2), two_balls, resolution=resolution)


def test_witness_checks_past_the_sample_limit_raise_before_allocating(monkeypatch):
    two_balls = BallUnion([Ball(2 * E[2], 0.3), Ball(2 * E[3], 0.3)])
    x, xp = tau(UnitImaginary.basis(2), 2j), tau(UnitImaginary.basis(3), 2j)
    e2, e3 = np.eye(7)[1], np.eye(7)[2]
    witness = CoupledLifting(PolyPathC([2j, 2j]), PolyPathS(np.vstack([e2, e2])), PolyPathS(np.vstack([e2, e3])))
    for resolution in (liftings.MAX_LIFT_SAMPLES + 1, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="over the limit"):
                ccl_verify(witness, x, xp, two_balls, resolution=resolution)
            with pytest.raises(PreconditionError, match="over the limit"):
                lift_in_domain(witness.lifting(1), two_balls, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sample times alone would take 8 MB
        assert peak < 2**20
    # the limit itself is allowed
    monkeypatch.setattr(liftings, "MAX_LIFT_SAMPLES", 4096)
    assert lift_in_domain(witness.lifting(1), two_balls, resolution=4096)
    with pytest.raises(PreconditionError, match="over the limit"):
        lift_in_domain(witness.lifting(1), two_balls, resolution=4097)


def test_count_caches_stay_bounded():
    size = liftings._COUNT_CACHE
    for count in range(3, 3 + 2 * size):
        liftings._piece_rows(count)
    for cached in (liftings._even_times, liftings._piece_bounds, liftings._piece_rows):
        info = cached.cache_info()
        assert info.maxsize == size and info.currsize <= size
    # a count dropped from the cache is built again, to the same bits
    assert liftings._even_times(3).tobytes() == np.linspace(0.0, 1.0, 3).tobytes()


def test_path_failing_reverification_is_unverified():
    # the sampled fiber search links the two caps, but the 2048-point
    # re-check of its witness leaves the union
    two_balls = BallUnion([Ball(2 * E[1], 1.6), Ball(2 * E[2], 1.6)])
    x = tau(UnitImaginary.basis(1), 3j)
    xp = tau(UnitImaginary.basis(2), 3j)
    res = ccl_search(two_balls, x, xp, SamplePlan(seed=0))
    assert res.status == "unverified" and not res.found
    assert res.witness is None and res.nodes > 0
    assert res.detail == "witness failed re-verification"


def test_fiber_search_refuses_runaway_z_grid():
    with pytest.raises(PreconditionError, match="grid columns"):
        plan = SamplePlan(quotient_z_step=1e-7)
        _FiberSearch(BALL, plan, 1 + 2j, np.eye(7)[0], np.eye(7)[1])

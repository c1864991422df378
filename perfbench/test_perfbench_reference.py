"""The benchmark's output checks accept correct outputs and reject corrupted ones.

Run with `python -m pytest perfbench`.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from common import Checks  # noqa: E402

E = np.eye(8)


# -- reference computations ------------------------------------------------


def test_product_follows_the_oriented_triples():
    for a, b, c in ref.TRIPLES:
        np.testing.assert_array_equal(ref.omul(E[a], E[b]), E[c])
        np.testing.assert_array_equal(ref.omul(E[b], E[a]), -E[c])
    for k in range(1, 8):
        np.testing.assert_array_equal(ref.omul(E[k], E[k]), -E[0])
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(2, 8))
    assert np.linalg.norm(ref.omul(x, y)) == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12)
    # alternative but not associative
    np.testing.assert_allclose(ref.omul(x, ref.omul(x, y)), ref.omul(ref.omul(x, x), y), atol=1e-12)
    assert not np.allclose(ref.omul(E[1], ref.omul(E[2], E[4])), ref.omul(ref.omul(E[1], E[2]), E[4]))


def test_membership_by_distance():
    assert ref.ball_contains(np.array([[0.0] * 7 + [0.99]]), np.zeros(8), 1.0).all()
    assert not ref.ball_contains(np.array([[0.0] * 7 + [1.0]]), np.zeros(8), 1.0).any()
    centers = ref.chain_centers(np.eye(7)[0], np.eye(7)[1])
    on_chain = centers[::97] + 0.2 * E[5]
    assert ref.chain_contains(on_chain, centers).all()
    assert not ref.chain_contains(centers[::97] + 0.3 * E[5], centers).any()
    # the seam: the balls at theta = +-pi sit at -1 + 2 e2 and -1 - 2 e2
    np.testing.assert_allclose(centers[-1], -E[0] + 2 * E[2], atol=1e-12)
    np.testing.assert_allclose(centers[0], -E[0] - 2 * E[2], atol=1e-12)
    i0 = np.eye(7)[0]
    pts = np.array([0.5 * E[3], 2.0 * E[1], 2.0 * E[3]])
    np.testing.assert_array_equal(ref.slab_cone_contains(pts, i0, math.pi / 4), [True, True, False])


def test_component_rule_for_balls():
    assert ref.ball_components(0.3 * E[0], 1.0) == 1
    assert ref.ball_components(0.5 * E[2], 1.0) == 1
    assert ref.ball_components(2.0 * E[2], 0.4) == 2


def test_closed_form_stems_satisfy_the_slice_identity():
    z, unit = complex(0.4, 1.3), np.eye(7)[2]
    x = ref.slice_point(z, unit)
    for name in ("identity", "affine-regular", "gaussian"):
        u, v = ref.stem(name, z)
        assert ref.stem_matches(ref.field_value(name, x), unit, ref.scalar(u), ref.scalar(v), 1e-12)
        # a moved stem is rejected
        assert not ref.stem_matches(ref.field_value(name, x), unit, ref.scalar(u + 1e-3), ref.scalar(v), 1e-6)


def test_reference_operators_on_the_identity():
    x = np.array([0.3, 0.5, -0.2, 0.1, 0.4, 0.0, 0.2, -0.1])
    np.testing.assert_allclose(ref.gamma("identity", x), 6 * ref.imag(x), atol=1e-12)
    np.testing.assert_allclose(ref.slice_fueter("identity", x), ref.scalar(-2.0), atol=1e-12)
    np.testing.assert_allclose(ref.slice_fueter("affine-regular", x), np.zeros(8), atol=1e-12)


# -- the workloads' checks reject corrupted outputs ---------------------------


def _problems(check, *args) -> list[str]:
    checks = Checks()
    check(*args, checks)
    return checks.problems


@pytest.fixture(scope="module")
def quotient_wl():
    from quotient_workload import QuotientWorkload

    return QuotientWorkload(seed=1)


@pytest.fixture(scope="module")
def quotient_round(quotient_wl):
    return quotient_wl.prepare(0)


def _fake_quotient(units, z, n_components):
    return SimpleNamespace(
        units=np.asarray(units, dtype=float),
        z_of=lambda col: z,
        component_of=np.arange(n_components),
    )


def test_wrong_component_count_is_rejected(quotient_wl, quotient_round):
    wl, inp = quotient_wl, quotient_round
    right = [_fake_quotient([], 0j, s.components) for s in inp.solves]
    out = {"quotients": right, "queries": [], "results": [], "bridged": None, "boundary": None}
    assert _problems(wl.check, inp, out) == []
    wrong = list(right)
    wrong[-1] = _fake_quotient([], 0j, 1)  # the chain has two components
    assert any("chain" in p for p in _problems(wl.check, inp, dict(out, quotients=wrong)))
    boundary = (_fake_quotient([], 0j, 2), [False])  # the unit ball has one
    assert any("ball-boundary" in p for p in _problems(wl.check, inp, dict(out, boundary=boundary)))


def test_leg_point_outside_is_rejected(quotient_wl):
    e = np.eye(7)
    q = _fake_quotient([e[0], e[1]], complex(0.0, 0.9), 1)
    record = ("arc", (0, 0), 0, 1, 0)
    assert quotient_wl._legs_inside(q, record, lambda pts: ref.ball_contains(pts, np.zeros(8), 1.0))
    # two small balls around the arc's ends: the ends are inside, its middle is not
    ends = [(0.9 * E[1], 0.1), (0.9 * E[2], 0.1)]
    assert not quotient_wl._legs_inside(q, record, lambda pts: ref.union_contains(pts, ends))


def test_moved_projection_is_rejected(quotient_wl, quotient_round):
    wl, inp = quotient_wl, quotient_round
    qs = [_fake_quotient([], 0j, s.components) for s in inp.solves]
    x = ref.slice_point(complex(0.2, 0.4), np.eye(7)[3])
    queries = [("class_at", 0, x)]
    out = {"quotients": qs, "queries": queries, "results": [complex(0.2, 0.4)], "bridged": None, "boundary": None}
    assert _problems(wl.check, inp, out) == []
    out["results"] = [complex(0.2, 0.6)]
    assert any("project_p" in p for p in _problems(wl.check, inp, out))


def test_moved_quotient_stem_is_rejected(quotient_wl):
    from octoslice.algebra import Octonion
    from octoslice.stems import stem_from_gamma

    wl = quotient_wl
    theta = 1.0
    unit = math.cos(theta / 2) * np.eye(7)[0] + math.sin(theta / 2) * np.eye(7)[1]
    z = complex(math.cos(theta), 2.0 + math.sin(theta))
    stem = stem_from_gamma(wl.sqrt.field, Octonion(ref.slice_point(z, unit)))
    q = SimpleNamespace(classes=[SimpleNamespace(z=z, unit_ids=(0,))], units=np.array([unit]))
    assert _problems(wl._check_stem, q, 0, stem) == []
    moved = SimpleNamespace(u=stem.u + Octonion(1e-3 * E[0]), v=stem.v)
    assert _problems(wl._check_stem, q, 0, moved)


@pytest.fixture(scope="module")
def witness_wl():
    from witness_workload import WitnessWorkload

    return WitnessWorkload(seed=1)


@pytest.fixture(scope="module")
def witness_round(witness_wl):
    return witness_wl.prepare(0)


def test_witness_leaving_the_domain_is_rejected(witness_wl, witness_round):
    from octoslice.algebra import Octonion
    from octoslice.liftings import ccl_search, stem_transport

    kind, domain, member, x, xp, gf = witness_round.queries[0]
    res = ccl_search(domain, Octonion(x), Octonion(xp))
    got = (res, stem_transport(gf.field, res.witness))
    assert _problems(witness_wl._check_witness, got, member, x, xp, kind) == []
    smaller = lambda pts: ref.ball_contains(pts, np.zeros(8), 0.9 * np.linalg.norm(x))
    assert any("leaves" in p for p in _problems(witness_wl._check_witness, got, smaller, x, xp, kind))
    moved_end = xp + 1e-6
    assert any("end 2" in p for p in _problems(witness_wl._check_witness, got, member, x, moved_end, kind))


def test_equivalent_seam_verdict_is_rejected(witness_wl, witness_round):
    seam = SimpleNamespace(status="not-equivalent")
    plus = SimpleNamespace(u=SimpleNamespace(coeffs=ref.scalar(0.5)), v=SimpleNamespace(coeffs=ref.scalar(-0.5)))
    minus = SimpleNamespace(u=SimpleNamespace(coeffs=ref.scalar(-0.5)), v=SimpleNamespace(coeffs=ref.scalar(0.5)))
    base = {"move": None, "pairs": [], "lifts": []}
    check = lambda out: _problems(witness_wl.check, witness_round, out)
    assert check(dict(base, seams=[(seam, [plus, minus])])) == []
    found = SimpleNamespace(status="found")
    assert check(dict(base, seams=[(found, [plus, minus])]))
    # equal stems on the two sheets would mean the seam was glued
    assert check(dict(base, seams=[(seam, [plus, plus])]))


def test_search_without_witness_is_left_to_the_failed_count(witness_wl, witness_round):
    # a search that ends not-found has no witness to check, and the check goes on
    lost = SimpleNamespace(found=False, status="budget-exhausted", witness=None)
    out = {"seams": [], "move": (lost, None), "pairs": [(lost, None)], "lifts": []}
    assert _problems(witness_wl.check, witness_round, out) == []


def test_lifting_off_its_path_is_rejected(witness_wl, witness_round):
    from octoslice.liftings import PolyPathO, lift_approximate

    verts, delta = witness_round.paths[0]
    lifting, cert = lift_approximate(PolyPathO(verts), delta)
    assert _problems(witness_wl._check_lift, verts, delta, (lifting, cert)) == []
    shifted = verts + np.r_[0.0, [2 * delta] * 7] / math.sqrt(7)
    assert _problems(witness_wl._check_lift, shifted, delta, (lifting, cert))


def test_wrong_cli_outputs_are_rejected(tmp_path):
    from fieldchecks_workload import FieldChecksWorkload

    wl = FieldChecksWorkload(seed=1, out_dir=tmp_path)
    inp = wl.prepare(0)
    z = complex(0.5, 2.0)
    spec = ("stem", "slab-cone", z, -1)
    u, v = ref.slab_cone_stem(z, -1)
    good = {"u": ref.scalar(u).tolist(), "v": ref.scalar(v).tolist()}
    assert _problems(wl._check_query, spec, good, "stem") == []
    assert _problems(wl._check_query, spec, dict(good, u=ref.scalar(u + 1e-3).tolist()), "stem")
    assert _problems(wl._check_query, ("stem", "slab-cone", z, 1), good, "stem")
    x = np.array([0.3, 0.5, -0.2, 0.1, 0.4, 0.0, 0.2, -0.1])
    value = ref.slice_fueter("identity", x)
    spec = ("op", "identity", "slice-fueter", x)
    assert _problems(wl._check_query, spec, {"value": value.tolist()}, "op") == []
    assert _problems(wl._check_query, spec, {"value": np.zeros(8).tolist()}, "op")
    # a solve whose verdict flipped
    codes = [want for _, want in inp.solves] + [0] * len(inp.queries)
    payloads = [{"pass": want == 0, "max_residual": 2.0, "strict_maxima": [[0.0] * 4]} for _, want in inp.solves]
    out = {"codes": codes, "solves": payloads, "queries": [None] * len(inp.queries)}
    problems = _problems(wl.check, inp, out)
    assert problems and all("no JSON output" in p for p in problems)
    payloads[0] = dict(payloads[0], **{"pass": True})
    assert any("verdict" in p for p in _problems(wl.check, inp, dict(out, solves=payloads)))

"""Numbered verification battery behind the `verify-suite` subcommand.

Each criterion reruns one headline check end to end: exact multiplication
tables, golden stems, operator residuals at fixed tolerances, witness search
and transport, quotient component counts, and projection consistency.  A
criterion returns its verdict together with the measured numbers so failures
are diagnosable from the emitted record alone.  Tolerances and sample sizes
are frozen here; the seed only moves the sampled points.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Callable, Optional

import numpy as np

from .algebra import (
    ORIENTED_TRIPLES,
    Octonion,
    OrthoPair,
    UnitImaginary,
    basis_product,
    mul,
    mul_batch,
    row_dot,
    tau,
    tau_rows,
)
from .diffops import (
    cauchy_fueter_op,
    quaternion_laplacian,
    slice_fueter_batch,
    sliceness_check,
)
from .domains import Ball, BallChain
from .errors import PreconditionError
from .golden import get_field, slab_cone_stem, sqrt_stem_main
from .liftings import (
    CircularLifting,
    PolyPathC,
    PolyPathO,
    PolyPathS,
    ccl_search,
    ccl_verify,
    lift_approximate,
    stem_transport,
)
from .quotient import build_quotient, class_at, count_components, project_p
from .sampling import SamplePlan
from .stems import (
    GridSpec,
    bers_vekua_residual,
    gamma_stem_rows,
    local_stem,
    modulus_local_max_scan,
    reconstruct_third,
    stem_from_two_units,
    stem_partials,
)

_CRITERIA: list[tuple[int, str, Callable]] = []


def _criterion(num: int, name: str):
    def register(fn):
        _CRITERIA.append((num, name, fn))
        return fn

    return register


def _base_seed(seed: Optional[int]) -> int:
    return SamplePlan().seed if seed is None else int(seed)


def _rng(seed: Optional[int], num: int) -> np.random.Generator:
    # distinct stream per criterion so reordering one never moves another
    return np.random.default_rng(_base_seed(seed) + num)


def _unit_near(rng: np.random.Generator, axis: np.ndarray, angle: float) -> UnitImaginary:
    w = rng.normal(size=7)
    w -= (w @ axis) * axis
    w /= np.linalg.norm(w)
    return UnitImaginary.from_vector(np.cos(angle) * axis + np.sin(angle) * w)


def _random_unit(rng: np.random.Generator) -> UnitImaginary:
    v = rng.normal(size=7)
    return UnitImaginary.from_vector(v / np.linalg.norm(v))


def _scalar(c: float) -> Octonion:
    return Octonion.from_real_imag(float(c), np.zeros(7))


def _norms(rows: np.ndarray) -> np.ndarray:
    """Per-row norms, each equal to the bit to `Octonion.norm` of the row."""
    return np.sqrt(row_dot(rows, rows))


def _worst(values: np.ndarray) -> float:
    """The largest value, and 0.0 when there is none."""
    return max([0.0] + values.tolist())


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def _epsilon_table() -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the structure constants from the oriented triples alone."""
    sign = np.zeros((8, 8), dtype=int)
    index = np.zeros((8, 8), dtype=int)
    for l in range(8):
        sign[0, l] = sign[l, 0] = 1
        index[0, l] = index[l, 0] = l
    for m in range(1, 8):
        sign[m, m] = -1
        index[m, m] = 0
    for tri in ORIENTED_TRIPLES:
        for perm in permutations(range(3)):
            a, b, c = (tri[p] for p in perm)
            sign[a, b] = _perm_sign(perm)
            index[a, b] = c
    return sign, index


@_criterion(1, "algebra-exactness")
def _algebra_exactness(seed: Optional[int]):
    sign, index = _epsilon_table()
    table_ok = True
    for l in range(8):
        for m in range(8):
            s, n = basis_product(l, m)
            if (s, n) != (int(sign[l, m]), int(index[l, m])):
                table_ok = False
            want = np.zeros(8)
            want[index[l, m]] = sign[l, m]
            if not np.array_equal(mul(Octonion.basis(l), Octonion.basis(m)).coeffs, want):
                table_ok = False

    rng = _rng(seed, 1)
    a = rng.normal(size=(10_000, 8))
    b = rng.normal(size=(10_000, 8))
    na = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    rel = np.abs(np.linalg.norm(mul_batch(a, b), axis=1) - na) / na
    norm_worst = float(rel.max())

    identities_ok = True
    for m in range(1, 8):
        for n in range(1, 8):
            if m == n:
                continue
            em, en = Octonion.basis(m), Octonion.basis(n)
            for k in range(8):
                x = Octonion.basis(k)
                if not np.array_equal(
                    mul(em, mul(en, mul(em, x))).coeffs, mul(en, x).coeffs
                ):
                    identities_ok = False
                if not np.array_equal(
                    mul(em, mul(en, mul(en, x))).coeffs, (-mul(em, x)).coeffs
                ):
                    identities_ok = False

    ok = table_ok and norm_worst <= 1e-12 and identities_ok
    return ok, {
        "basis_products": 64,
        "table_exact": table_ok,
        "norm_pairs": 10_000,
        "norm_rel_worst": norm_worst,
        "identities_exact": identities_ok,
    }


@_criterion(2, "slab-cone-stem-grid")
def _slab_cone_stem_grid(seed: Optional[int]):
    slab = get_field("slab-cone")
    rng = _rng(seed, 2)
    e1 = np.zeros(7)
    e1[0] = 1.0
    zs = np.array([complex(a, b) for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (1.5, 2.0, 3.0)])
    units = []
    for _ in zs:
        # both units inside the cone, chordally separated for conditioning
        i1 = _unit_near(rng, e1, rng.uniform(0.0, 0.25))
        i2 = _unit_near(rng, e1, rng.uniform(0.45, 0.6))
        units.append((i1.vec, i2.vec))
    i1s, i2s = (np.array(col) for col in zip(*units))
    want_u, want_v = slab_cone_stem(zs, 1)

    def worst_gap(u, v):
        return _worst(np.maximum(_norms(u - want_u), _norms(v - want_v)))

    worst_formula = worst_gap(*stem_from_two_units(slab.field, zs, i1s, i2s))
    pts = tau_rows(zs.real, zs.imag, i1s)
    worst_gamma = worst_gap(*gamma_stem_rows(slab.field, pts, use_closed=False))
    ok = worst_formula <= 1e-10 and worst_gamma <= 1e-6
    return ok, {
        "grid_points": 15,
        "formula_worst": worst_formula,
        "gamma_fd_worst": worst_gamma,
    }


@_criterion(3, "sqrt-branch-stems")
def _sqrt_branch_stems(seed: Optional[int]):
    sq = get_field("sqrt-example")
    chain = sq.domain
    z = -1 + 2j
    plus = local_stem(sq.field, Ball(chain.center_at(np.pi), chain.RADIUS), z)
    minus = local_stem(sq.field, Ball(chain.center_at(-np.pi), chain.RADIUS), z)
    dev_plus = max((plus.u - _scalar(0.5)).norm(), (plus.v - _scalar(-0.5)).norm())
    dev_minus = max((minus.u - _scalar(-0.5)).norm(), (minus.v - _scalar(0.5)).norm())
    ok = dev_plus <= 1e-10 and dev_minus <= 1e-10
    return ok, {
        "z": [z.real, z.imag],
        "plus_branch": [plus.u.coeffs[0], plus.v.coeffs[0]],
        "minus_branch": [minus.u.coeffs[0], minus.v.coeffs[0]],
        "worst": max(dev_plus, dev_minus),
    }


@_criterion(4, "sqrt-regularity")
def _sqrt_regularity(seed: Optional[int]):
    sq = get_field("sqrt-example")
    chain = sq.domain
    rng = _rng(seed, 4)
    thetas = np.linspace(-np.pi, np.pi, 11)[:-1]

    pts = np.vstack([
        Ball(chain.center_at(float(th)), chain.RADIUS).sample_interior(25, rng, margin=0.02, min_im=0.5)
        for th in thetas
    ])
    fueter = _norms(slice_fueter_batch(sq.field, pts, use_closed=False))

    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    offsets = np.array(list(product((-0.08, 0.0, 0.08), repeat=4)))
    cf_qs, lap_qs = [], []
    for th in (-2.2, -1.1, 0.0, 1.1, 2.2):
        qc = np.array(
            [
                np.cos(th),
                (2.0 + np.sin(th)) * np.cos(th / 2.0),
                (2.0 + np.sin(th)) * np.sin(th / 2.0),
                0.0,
            ]
        )
        cf_qs.append(qc + offsets)
        lap_qs.extend(qc + rng.uniform(-0.07, 0.07, size=4) for _ in range(20))
    cf = _norms(cauchy_fueter_op(sq.field, pair, np.vstack(cf_qs)))
    lap = _norms(quaternion_laplacian(sq.field, pair, np.array(lap_qs)))

    fueter_worst, cf_worst, lap_worst = (_worst(r) for r in (fueter, cf, lap))
    ok = (
        len(fueter) >= 200
        and fueter_worst <= 1e-5
        and cf_worst <= 1e-5
        and lap_worst <= 1e-4
    )
    return ok, {
        "balls": len(thetas),
        "fueter_points": len(fueter),
        "fueter_worst": fueter_worst,
        "cauchy_fueter_points": len(cf),
        "cauchy_fueter_worst": cf_worst,
        "laplacian_points": len(lap),
        "laplacian_worst": lap_worst,
    }


@_criterion(5, "bers-vekua-residuals")
def _bers_vekua_residuals(seed: Optional[int]):
    stem = sqrt_stem_main()
    rng = _rng(seed, 5)
    accepted = np.empty(0, dtype=complex)
    while len(accepted) < 500:
        # rows (theta, dalpha, dbeta) in the draw order of one candidate at a time;
        # candidates without closed partials, and draws past the 500th kept one, go unused
        draws = rng.uniform((-np.pi, -0.12, -0.12), (np.pi, 0.12, 0.12), size=(256, 3))
        zs = np.array([
            complex(np.cos(th), 2.0 + np.sin(th)) + complex(da, db) for th, da, db in draws.tolist()
        ])
        closed = ~np.isnan(stem.partials_many(zs)).any(axis=(1, 2))
        accepted = np.concatenate([accepted, zs[closed]])
    accepted = accepted[:500]

    residual_worst = _worst(bers_vekua_residual(stem, accepted).max_norms())

    # cross-check the closed partials against plain central differences,
    # with step h = 1e-5 (1 + |z|)
    closed = stem.partials_many(accepted[:100]).reshape(-1, 8)
    fd = stem_partials(stem, accepted[:100], use_closed=False).reshape(-1, 8)
    fd_worst = _worst(_norms(closed - fd) / (1.0 + _norms(closed)))

    ok = residual_worst <= 1e-6 and fd_worst <= 1e-6
    return ok, {
        "residual_points": len(accepted),
        "residual_worst": residual_worst,
        "fd_cross_points": 100,
        "fd_rel_worst": fd_worst,
    }


def _reconstruction_gap(field, draws: list) -> float:
    """Largest |f(z_I3) - reconstruct_third(z, I1, I2, I3)| over rows of (z, I1, I2, I3)."""
    zs = np.array([z for z, _, _, _ in draws])
    i1, i2, i3 = (np.array([d[k].vec for d in draws]) for k in (1, 2, 3))
    got = reconstruct_third(field, zs, i1, i2, i3)
    return _worst(_norms(got - field.evaluate_many(tau_rows(zs.real, zs.imag, i3))))


@_criterion(6, "two-point-reconstruction")
def _two_point_reconstruction(seed: Optional[int]):
    rng = _rng(seed, 6)
    slab = get_field("slab-cone")
    ident = get_field("identity")
    e1 = np.zeros(7)
    e1[0] = 1.0

    draws = []
    for _ in range(100):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(1.2, 3.0))
        i1 = _unit_near(rng, e1, rng.uniform(0.0, 0.25))
        i2 = _unit_near(rng, e1, rng.uniform(0.45, 0.7))
        draws.append((z, i1, i2, _unit_near(rng, e1, rng.uniform(0.0, 0.7))))
    slab_worst = _reconstruction_gap(slab.field, draws)

    draws = []
    for _ in range(100):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.8, 2.2))
        i1 = _random_unit(rng)
        i2 = _random_unit(rng)
        while np.linalg.norm(i1.vec - i2.vec) < 0.3:
            i2 = _random_unit(rng)
        draws.append((z, i1, i2, _random_unit(rng)))
    ident_worst = _reconstruction_gap(ident.field, draws)

    ok = slab_worst <= 1e-9 and ident_worst <= 1e-9
    return ok, {
        "triples_per_field": 100,
        "slab_cone_worst": slab_worst,
        "identity_worst": ident_worst,
    }


@_criterion(7, "lifting-approximation")
def _lifting_approximation(seed: Optional[int]):
    rng = _rng(seed, 7)
    all_passed = True
    sup_worst_ratio = 0.0
    endpoint_worst = 0.0
    for _ in range(30):
        nv = int(rng.integers(3, 11))
        verts = rng.uniform(-2.0, 2.0, size=(nv, 8))
        path = PolyPathO(verts)
        for delta in (0.5, 0.1, 0.01):
            _, cert = lift_approximate(path, delta)
            all_passed = all_passed and bool(cert["passed"])
            sup_worst_ratio = max(sup_worst_ratio, cert["sup_deviation"] / delta)
            endpoint_worst = max(
                endpoint_worst,
                cert["endpoint_start_error"],
                cert["endpoint_end_error"],
            )
    ok = all_passed and endpoint_worst <= 1e-12
    return ok, {
        "paths": 30,
        "deltas": [0.5, 0.1, 0.01],
        "all_certificates_passed": all_passed,
        "sup_over_delta_worst": sup_worst_ratio,
        "endpoint_worst": endpoint_worst,
    }


@_criterion(8, "ccl-witness-transport")
def _ccl_witness_transport(seed: Optional[int]):
    rng = _rng(seed, 8)
    base = _base_seed(seed)
    plan = SamplePlan(seed=base + 8)

    found = 0
    verified = 0
    transport_worst = 0.0

    ball = Ball(Octonion.zero(), 2.5)
    fields = [get_field("constant").field, get_field("affine-regular").field]
    for k in range(30):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(0.3, 1.8)
        x = tau(_random_unit(rng), complex(a, b))
        xp = tau(_random_unit(rng), complex(a, b))
        res = ccl_search(ball, x, xp, plan)
        if not res.found:
            continue
        found += 1
        ok, _ = ccl_verify(res.witness, x, xp, ball)
        if ok:
            verified += 1
        dev = stem_transport(fields[k % 2], res.witness).deviation
        transport_worst = max(transport_worst, dev)

    sq = get_field("sqrt-example")
    chain = sq.domain
    for _ in range(20):
        th = rng.uniform(-np.pi, np.pi)
        cap_ball = Ball(chain.center_at(float(th)), chain.RADIUS)
        z = complex(np.cos(th), 2.0 + np.sin(th)) + complex(*rng.uniform(-0.05, 0.05, 2))
        axis = cap_ball.center.im / np.linalg.norm(cap_ball.center.im)
        u1 = _unit_near(rng, axis, rng.uniform(0.0, 0.02))
        u2 = _unit_near(rng, axis, rng.uniform(0.02, 0.04))
        x, xp = tau(u1, z), tau(u2, z)
        res = ccl_search(cap_ball, x, xp, plan)
        if not res.found:
            continue
        found += 1
        ok, _ = ccl_verify(res.witness, x, xp, cap_ball)
        if ok:
            verified += 1
        dev = stem_transport(sq.field, res.witness).deviation
        transport_worst = max(transport_worst, dev)

    # opposite seam points of the chain must stay inequivalent
    seam_plan = SamplePlan(seed=base + 8, quotient_z_step=0.1, pool_sep=0.05)
    seam = ccl_search(
        chain,
        tau(UnitImaginary.basis(2), complex(-1.0, 2.0)),
        tau(-UnitImaginary.basis(2), complex(-1.0, 2.0)),
        seam_plan,
    )

    ok = (
        found == 50
        and verified == 50
        and transport_worst <= 1e-6
        and not seam.found
    )
    return ok, {
        "witnesses_found": found,
        "witnesses_verified": verified,
        "transport_worst": transport_worst,
        "seam_status": seam.status,
    }


@_criterion(9, "component-counts")
def _component_counts(seed: Optional[int]):
    base = _base_seed(seed)
    e = [Octonion.basis(k) for k in range(8)]
    far = build_quotient(
        Ball(2.0 * e[1] + 2.0 * e[2], 0.3), SamplePlan(seed=base + 9)
    )
    real = build_quotient(Ball(Octonion.zero(), 1.0), SamplePlan(seed=base + 9))
    chain = build_quotient(
        BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2)),
        SamplePlan(seed=base + 9, quotient_z_step=0.1, pool_sep=0.05),
    )
    counts = {
        "far_ball": count_components(far),
        "real_ball": count_components(real),
        "chain": count_components(chain),
    }
    ok = (
        counts["far_ball"] == 2
        and counts["real_ball"] == 1
        and counts["chain"] == 2
        and all(c <= 2 for c in counts.values())
    )
    return ok, counts


@_criterion(10, "modulus-maximum-scan")
def _modulus_maximum_scan(seed: Optional[int]):
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    sq = get_field("sqrt-example")
    ident = get_field("identity")
    gauss = get_field("gaussian")

    sq_grid = GridSpec((1.0, 2.0, 0.0, 0.0), (0.12,) * 4, (11,) * 4)
    sq_rep = modulus_local_max_scan(sq.field, pair, sq_grid, domain=sq.domain)

    id_grid = GridSpec((0.2, 1.2, 0.4, 0.3), (0.5,) * 4, (11,) * 4)
    id_rep = modulus_local_max_scan(ident.field, pair, id_grid, domain=ident.domain)

    g_grid = GridSpec((0.0,) * 4, (1.0,) * 4, (11,) * 4)
    g_rep = modulus_local_max_scan(gauss.field, pair, g_grid, domain=gauss.domain)
    gauss_at_origin = len(g_rep.strict_maxima) == 1 and np.allclose(
        g_rep.strict_maxima[0], [0.0, 0.0, 0.0, 0.0], atol=1e-12
    )

    ok = sq_rep.passed and id_rep.passed and gauss_at_origin
    return ok, {
        "nodes_per_grid": 11**4,
        "sqrt_strict_maxima": len(sq_rep.strict_maxima),
        "identity_strict_maxima": len(id_rep.strict_maxima),
        "gaussian_strict_maxima": g_rep.strict_maxima,
    }


@_criterion(11, "sliceness-verdicts")
def _sliceness_verdicts(seed: Optional[int]):
    base = _base_seed(seed)
    plan = SamplePlan(seed=base + 11)
    # the on-curve rows are the only resolvable cells of the chain
    sqrt_plan = SamplePlan(
        seed=base + 11, a_values=(-1.0, 0.0, 1.0), b_values=(1.5, 2.0, 2.5)
    )
    cases = [
        ("slab-cone", plan, True),
        ("sqrt-example", sqrt_plan, True),
        ("constant", plan, True),
        ("identity", plan, True),
        ("coord-probe", plan, False),
    ]
    verdicts = {}
    worst_slice_spread = 0.0
    ok = True
    for name, p, expect in cases:
        gf = get_field(name)
        rep = sliceness_check(gf.field, gf.domain, p)
        verdicts[name] = {"pass": rep.passed, "max_residual": rep.max_residual}
        if rep.passed != expect:
            ok = False
        if expect:
            worst_slice_spread = max(worst_slice_spread, rep.max_residual)
    ok = ok and worst_slice_spread <= 1e-6
    return ok, {"verdicts": verdicts, "worst_slice_spread": worst_slice_spread}


@_criterion(12, "projection-consistency")
def _projection_consistency(seed: Optional[int]):
    base = _base_seed(seed)
    rng = _rng(seed, 12)
    q = build_quotient(Ball(Octonion.zero(), 3.0), SamplePlan(seed=base + 12))

    # grid vertices on the canonical sheet, kept away from the boundary
    pairs = [
        complex(a, b)
        for a in q.alphas
        for b in q.betas
        if b >= 0.0 and abs(complex(a, b)) <= 2.4
    ]

    worst = 0.0
    vertices_checked = 0
    for _ in range(20):
        nv = int(rng.integers(3, 7))
        zs = [pairs[int(rng.integers(len(pairs)))] for _ in range(nv)]
        units = [_random_unit(rng)]
        for _ in range(nv - 1):
            units.append(_unit_near(rng, units[-1].vec, rng.uniform(0.3, 0.8)))
        times = np.linspace(0.0, 1.0, nv)
        lifting = CircularLifting(
            PolyPathC(np.array(zs), times),
            PolyPathS(np.array([u.vec for u in units]), times),
        )
        for k in range(nv):
            cls = class_at(q, lifting.eval(float(times[k])))
            worst = max(worst, abs(project_p(q, cls) - zs[k]))
            vertices_checked += 1

    ok = worst <= 1e-9
    return ok, {
        "liftings": 20,
        "vertices_checked": vertices_checked,
        "projection_worst": worst,
    }


def run_criterion(num: int, seed: Optional[int] = None) -> dict:
    """Run one numbered criterion; the record carries verdict and numbers."""
    for n, name, fn in _CRITERIA:
        if n == num:
            ok, details = fn(seed)
            return {"id": n, "name": name, "pass": bool(ok), "details": details}
    raise PreconditionError(f"no criterion numbered {num}")


def run_all(seed: Optional[int] = None, fail_fast: bool = True) -> list[dict]:
    """Run the battery in order, stopping at the first failure by default."""
    out = []
    for num, _, _ in sorted(_CRITERIA):
        record = run_criterion(num, seed=seed)
        out.append(record)
        if fail_fast and not record["pass"]:
            break
    return out

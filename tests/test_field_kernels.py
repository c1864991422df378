"""Every field and stem is one batched kernel; each kernel against its one-point reference.

The references in `scalar_reference` are the scalar field and stem bodies,
central differences, operator loops and per-member stem loops the kernels
replaced.  The cases sit where the branches of the kernels meet: both seams
of the square-root field at theta = +-5 pi / 6, its continued branch on the
line Im z = 2, the slab-cone's seam |Im x| = 1 whose rows have no closed
form, the classes of a chain quotient, and for the stems the cut margin of
the square-root stem, the real axis and the lower half plane.
"""

import dataclasses
import math

import numpy as np
import pytest
from scalar_reference import (
    ref_bers_vekua,
    ref_cauchy_fueter,
    ref_member_stems,
    ref_partial,
    ref_quaternion_laplacian,
    ref_reconstruct_third,
    ref_slab_cone_stem,
    ref_stem_from_gamma,
    ref_stem_from_two_units,
    ref_stem_partials,
    same_bits,
    scalar_field,
    scalar_stem,
)

from octoslice.algebra import Octonion, OrthoPair, UnitImaginary, tau, tau_rows
from octoslice.diffops import OctField, cauchy_fueter_op, partials_batch, quaternion_laplacian
from octoslice.domains import BallChain
from octoslice.golden import _CUT_MARGIN, field_names, get_field, slab_cone_stem
from octoslice.quotient import build_quotient, quotient_stem
from octoslice.sampling import SamplePlan
from octoslice.stems import (
    StemField,
    bers_vekua_residual,
    gamma_stem_rows,
    reconstruct_third,
    stem_from_gamma,
    stem_from_two_units,
    stem_partials,
)

I1, I2, I3 = (UnitImaginary.basis(k) for k in (1, 2, 3))
CUTOFF = 5.0 * math.pi / 6.0
# the chain plan of the benchmark's quotient workload
CHAIN_PLAN = {"pool_max": 140, "quotient_z_step": 0.2, "pool_sep": 0.08}


def test_a_field_is_name_and_two_kernels():
    assert [f.name for f in dataclasses.fields(OctField)] == ["name", "evaluate_many", "partials_many"]


def test_a_stem_is_two_kernels():
    assert [f.name for f in dataclasses.fields(StemField)] == ["values_many", "partials_many"]


def _assert_matches_the_scalar_field(name, pts, **kwargs):
    f, sf = get_field(name, **kwargs).field, scalar_field(name, **kwargs)
    values = f.evaluate_many(pts)
    parts = partials_batch(f, pts, range(8))
    fd = partials_batch(f, pts, range(8), use_closed=False)
    for p, v, dp, dfd in zip(pts, values, parts, fd):
        x = Octonion(p)
        assert same_bits(v, sf.evaluate(x).coeffs)
        for k in range(8):
            assert same_bits(dp[k], ref_partial(sf, x, k).coeffs)
            assert same_bits(dfd[k], ref_partial(sf, x, k, use_closed=False).coeffs)


def _chain_points(thetas, rng, spread=0.2):
    chain = BallChain(I1, I2)
    offsets = rng.normal(size=(len(thetas), 8))
    radii = spread * rng.uniform(0.0, 1.0, size=len(thetas))
    offsets *= (radii / np.linalg.norm(offsets, axis=1))[:, None]
    return np.array([chain.center_at(t).coeffs for t in thetas]) + offsets


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_sqrt_kernels_across_the_branch_seam(side):
    rng = np.random.default_rng(41)
    thetas = side * (CUTOFF + rng.uniform(-0.05, 0.05, size=160))
    pts = _chain_points(thetas, rng)
    chain = get_field("sqrt-example").domain
    near, _ = chain.nearest_thetas(pts)
    # both branches of the seam are present
    assert (np.abs(near) <= CUTOFF).any() and (np.abs(near) > CUTOFF).any()
    _assert_matches_the_scalar_field("sqrt-example", pts)


def test_sqrt_kernels_on_the_continued_line():
    rng = np.random.default_rng(42)
    rows = []
    for sign in (1.0, -1.0):  # the ends of the chain at theta = pi and -pi
        for a in rng.uniform(-1.2, -0.8, size=12):
            for d in (0.0, 0.0, 1e-13, -1e-13, 1e-9, -1e-9):
                x = np.zeros(8)
                x[0] = a
                x[2] = sign * (2.0 + d)
                rows.append(x)
    pts = np.array(rows)
    b = np.linalg.norm(pts[:, 1:], axis=1)
    assert (b == 2.0).sum() == 48 and (b > 2.0).any() and (b < 2.0).any()
    _assert_matches_the_scalar_field("sqrt-example", pts)


def test_slab_seam_rows_take_the_central_difference():
    rng = np.random.default_rng(43)
    axis = UnitImaginary.from_vector(rng.normal(size=7))
    rows = []
    for k in range(60):
        w = rng.normal(size=7)
        w = w - (w @ axis.vec) * axis.vec
        unit = np.cos(0.3) * axis.vec + np.sin(0.3) * w / np.linalg.norm(w)
        b = (1.0 + 1e-13, 1.0 + 8e-13, 1.0 - 1e-13, 0.7, 1.6)[k % 5]  # the seam, and either side
        rows.append(tau_rows(rng.uniform(-2.0, 2.0), (1 if k % 2 else -1) * b, unit[None])[0])
    pts = np.array(rows)
    slab = get_field("slab-cone", i0=axis).field
    assert np.isnan(slab.partials_many(pts)).any(axis=(1, 2)).sum() >= 24
    _assert_matches_the_scalar_field("slab-cone", pts, i0=axis)


def _chain_quotient(seed):
    return build_quotient(BallChain(I1, I2), SamplePlan(seed=seed, **CHAIN_PLAN))


@pytest.mark.parametrize("seed", [1, SamplePlan().seed])
def test_quotient_stems_match_the_member_loop(seed):
    q = _chain_quotient(seed)
    f, sf = get_field("sqrt-example").field, scalar_field("sqrt-example")
    six = [c for c in q.classes if len(c.unit_ids) == 6 and abs(c.z.imag) > 1e-9]
    assert len(six) >= 5
    for cls in six:
        refs = ref_member_stems(sf, q, cls.index)
        got = quotient_stem(f, q, cls.index)
        assert same_bits(got.u.coeffs, refs[0].u.coeffs) and same_bits(got.v.coeffs, refs[0].v.coeffs)
        pts = tau_rows(cls.z.real, cls.z.imag, q.units[list(cls.unit_ids)])
        us, vs = gamma_stem_rows(f, pts)
        sign = -1.0 if cls.z.imag < 0 else 1.0
        for u, v, ref in zip(us, vs, refs):
            assert same_bits(u, ref.u.coeffs) and same_bits(sign * v, ref.v.coeffs)


def _quaternion_cases():
    rng = np.random.default_rng(44)
    w = rng.normal(size=7)
    i = UnitImaginary.from_vector(rng.normal(size=7))
    tilted = OrthoPair(i, UnitImaginary.from_vector(w - (w @ i.vec) * i.vec))
    straight = OrthoPair(I1, I2)
    for name in field_names():
        if name == "slab-cone":
            yield name, straight, np.array([0.4, 1.7, 0.1, 0.1]) + rng.uniform(-0.05, 0.05, (5, 4))
        elif name == "sqrt-example":
            yield name, straight, np.array([1.0, 2.0, 0.02, 0.01]) + rng.uniform(-0.05, 0.05, (5, 4))
        else:
            yield name, straight, rng.normal(size=(5, 4)) * 0.6
            yield name, tilted, rng.normal(size=(5, 4)) * 0.6


@pytest.mark.parametrize("name, pair, q", list(_quaternion_cases()))
def test_quaternion_operators_match_the_stencil_loops(name, pair, q):
    # q is a batch of five rows of quaternion coordinates
    f, sf = get_field(name).field, scalar_field(name)
    cf, lap = cauchy_fueter_op(f, pair, q), quaternion_laplacian(f, pair, q)
    assert cf.shape == lap.shape == (len(q), 8)
    for row, got_cf, got_lap in zip(q, cf, lap):
        assert same_bits(got_cf, ref_cauchy_fueter(sf, pair, row).coeffs)
        assert same_bits(got_lap, ref_quaternion_laplacian(sf, pair, row).coeffs)


def _two_unit_rows(n, rng, spread):
    """Rows of units I1, I2, I3 within `spread` rad of e1; I1 and I2 lie on opposite
    sides of e1, more than 0.8 spread apart."""
    w = rng.normal(size=(n, 7))
    w -= (w @ I1.vec)[:, None] * I1.vec
    w /= np.linalg.norm(w, axis=1)[:, None]

    def tilt(angle, w):
        units = np.cos(angle)[:, None] * I1.vec + np.sin(angle)[:, None] * w
        return units / np.linalg.norm(units, axis=1)[:, None]

    i1 = tilt(rng.uniform(0.3 * spread, 0.5 * spread, n), -w)
    i2 = tilt(rng.uniform(0.5 * spread, 0.7 * spread, n), w)
    return i1, i2, tilt(rng.uniform(0.0, 0.7 * spread, n), np.roll(w, 1, axis=0))


@pytest.mark.parametrize(
    "name, zs, spread",
    [
        ("slab-cone", [0.6 + 1.8j, -1.2 + 2.5j, 0.6 - 1.8j, 2.0 - 1.1j], 0.6),
        ("sqrt-example", [1.0 + 2.05j, 1.02 + 1.98j, 0.97 + 2.01j], 0.16),
        ("identity", [-0.3 + 1.1j, 0.4 - 0.7j, 1e-3 + 2.0j], 1.5),
        ("gaussian", [-0.3 + 1.1j, 0.4 - 0.7j], 1.5),
    ],
)
def test_two_unit_stems_match_the_one_point_loops(name, zs, spread):
    rng = np.random.default_rng(45)
    f, sf = get_field(name).field, scalar_field(name)
    zs = np.repeat(np.array(zs), 3)
    units = [[UnitImaginary.from_vector(r) for r in rows] for rows in _two_unit_rows(len(zs), rng, spread)]
    i1s, i2s, i3s = (np.array([u.vec for u in col]) for col in units)
    us, vs = stem_from_two_units(f, zs, i1s, i2s)
    thirds = reconstruct_third(f, zs, i1s, i2s, i3s)
    for z, i1, i2, i3, u, v, third in zip(zs.tolist(), *units, us, vs, thirds):
        want = ref_stem_from_two_units(sf, z, i1, i2)
        assert same_bits(u, want.u.coeffs) and same_bits(v, want.v.coeffs)
        assert same_bits(third, ref_reconstruct_third(sf, z, i1, i2, i3).coeffs)


def test_slab_cone_stems_match_the_one_point_formula():
    rng = np.random.default_rng(46)
    zs = rng.uniform(-3.0, 3.0, 60) + 1j * rng.uniform(-3.0, 3.0, 60)
    zs[:4] = [0.5 + 1.0j, 0.5 - 1.0j, -0.5 + 0.99j, -0.5 - 0.99j]
    for branch in (1, -1):
        us, vs = slab_cone_stem(zs, branch)
        for z, u, v in zip(zs.tolist(), us, vs):
            want = ref_slab_cone_stem(z, branch)
            assert same_bits(u, want.u.coeffs) and same_bits(v, want.v.coeffs)


def _stem_rows(name):
    """Closed rows, the lower half plane and the real axis; for the square-root stem,
    which the real axis leaves undefined, rows inside its cut margin instead."""
    rng = np.random.default_rng(47)
    if name == "sqrt-example":
        theta = rng.uniform(-2.0, 2.0, 12)
        zs = np.cos(theta) + 1j * (2.0 + np.sin(theta)) + 0.1 * (rng.normal(size=12) + 1j * rng.normal(size=12))
        cut = -rng.uniform(0.05, 1.0, 6) + 1j * (2.0 + rng.uniform(-0.9, 0.9, 6) * _CUT_MARGIN)
        lower = np.array([0.7 - 2.2j, -0.4 - 1.5j, 0.3 - 0.04j])
        return np.concatenate([zs, cut, lower, np.conj(zs[:3])])
    zs = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
    return np.concatenate([zs, rng.uniform(-1.5, 1.5, 4) + 0j, [0.3 - 0.0j, -0.0 + 0.0j]])


@pytest.mark.parametrize("name", ["sqrt-example", "constant", "identity", "gaussian", "affine-regular"])
@pytest.mark.parametrize("use_closed", [True, False])
def test_stem_partials_and_bv_residuals_match_the_one_point_loops(name, use_closed):
    stem, sstem = get_field(name).stem, scalar_stem(name)
    zs = _stem_rows(name)
    if name == "sqrt-example":
        # the cut rows have no closed form and take the central difference
        assert np.isnan(stem.partials_many(zs)).any(axis=(1, 2)).sum() >= 7
    else:
        assert (zs.imag == 0).sum() == 6 and (zs.imag < 0).any()
    parts = stem_partials(stem, zs, use_closed=use_closed)
    res = bers_vekua_residual(stem, zs, use_closed=use_closed)
    norms = res.max_norms()
    assert parts.shape == (len(zs), 4, 8) and res.r1.shape == res.r2.shape == (len(zs), 8)
    for k, z in enumerate(zs.tolist()):
        for got, want in zip(parts[k], ref_stem_partials(sstem, z, use_closed)):
            assert same_bits(got, want.coeffs)
        r1, r2 = ref_bers_vekua(sstem, z, use_closed)
        assert same_bits(res.r2[k], r2.coeffs)
        if r1 is None:
            assert np.isnan(res.r1[k]).all() and res.to_json(k)["r1"] is None
            assert norms[k] == r2.norm()
        else:
            assert same_bits(res.r1[k], r1.coeffs)
            assert norms[k] == max(r1.norm(), r2.norm())
        assert res.to_json(k)["r2"] == r2.to_list()


def test_stem_partials_without_a_closed_hook_take_the_stencil():
    stem = get_field("gaussian").stem
    bare = StemField(stem.values_many)
    zs = np.array([0.3 + 1.1j, -0.2 - 0.4j, 0.5 + 0j])
    assert same_bits(stem_partials(bare, zs), stem_partials(stem, zs, use_closed=False))
    assert not np.isnan(stem_partials(stem, np.empty(0, dtype=complex))).any()


@pytest.mark.parametrize(
    "name, z", [("slab-cone", 0.6 + 1.8j), ("sqrt-example", 1.0 + 2.05j), ("identity", -0.3 + 1.1j)]
)
def test_stem_routes_match_the_one_point_loops(name, z):
    f, sf = get_field(name).field, scalar_field(name)
    i1 = I1
    i2 = UnitImaginary.from_vector(np.cos(0.11) * I1.vec + np.sin(0.11) * I2.vec)
    i3 = UnitImaginary.from_vector(np.cos(0.05) * I1.vec + np.sin(0.05) * I3.vec)
    (u,), (v,) = stem_from_two_units(f, np.array([z]), i1.vec[None], i2.vec[None])
    want = ref_stem_from_two_units(sf, z, i1, i2)
    assert same_bits(u, want.u.coeffs) and same_bits(v, want.v.coeffs)
    (got3,) = reconstruct_third(f, np.array([z]), i1.vec[None], i2.vec[None], i3.vec[None])
    assert same_bits(got3, ref_reconstruct_third(sf, z, i1, i2, i3).coeffs)
    for use_closed in (True, False):
        got = stem_from_gamma(f, tau(i2, z), use_closed=use_closed)
        want = ref_stem_from_gamma(sf, tau(i2, z), use_closed)
        assert same_bits(got.u.coeffs, want.u.coeffs) and same_bits(got.v.coeffs, want.v.coeffs)

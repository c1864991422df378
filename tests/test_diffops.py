import numpy as np
import pytest

from octoslice.algebra import Octonion, OrthoPair, UnitImaginary, tau
from octoslice.diffops import (
    DERIVATION_PAIRS,
    OctField,
    cauchy_fueter_op,
    euler_e,
    quaternion_laplacian,
    slice_fueter_op,
    sliceness_check,
    spherical_gamma,
    stencil_safe,
    tangential_l,
)
from octoslice.domains import Ball
from octoslice.errors import DomainError
from octoslice.golden import get_field
from octoslice.sampling import SamplePlan

_E0 = np.eye(8)[0]
_RE_PARTIALS = np.zeros((8, 8))
_RE_PARTIALS[0, 0] = 1.0
_IM_PARTIALS = np.diag([0.0] + [1.0] * 7)


def _constant_partials(block):
    return lambda pts: np.tile(block, (len(pts), 1, 1))


def _real_rows(values):
    return _E0 * values[:, None]


def _imag_rows(pts):
    im = pts.copy()
    im[:, 0] = 0.0
    return im


IDENT = OctField("id", lambda pts: pts.copy(), _constant_partials(np.eye(8)))
RE_FIELD = OctField("re", lambda pts: _real_rows(pts[:, 0]), _constant_partials(_RE_PARTIALS))
IM_FIELD = OctField("im", _imag_rows, _constant_partials(_IM_PARTIALS))


def rand_offaxis(rng, n, lo=0.5):
    out = []
    while len(out) < n:
        x = Octonion(rng.normal(size=8))
        if x.im_norm >= lo:
            out.append(x)
    return out


def test_derivation_pairs_enumerate_upper_triangle():
    assert len(DERIVATION_PAIRS) == 21
    assert list(DERIVATION_PAIRS) == [(m, n) for m in range(1, 8) for n in range(m + 1, 8)]


def test_gamma_of_identity_is_six_imag():
    rng = np.random.default_rng(11)
    for x in rand_offaxis(rng, 10):
        g = spherical_gamma(IDENT, x)
        assert (g - 6.0 * x.imag_part()).norm() < 1e-12
    g_fd = spherical_gamma(IDENT, Octonion.basis(1), use_closed=False)
    assert (g_fd - 6.0 * Octonion.basis(1)).norm() < 1e-8


def test_slice_fueter_frozen_values():
    rng = np.random.default_rng(12)
    minus_two = -2.0 * Octonion.one()
    for x in rand_offaxis(rng, 6):
        assert (slice_fueter_op(IDENT, x) - minus_two).norm() < 1e-10
        assert (slice_fueter_op(RE_FIELD, x) - Octonion.one()).norm() < 1e-10
        assert (slice_fueter_op(IM_FIELD, x) + 3.0 * Octonion.one()).norm() < 1e-10


def test_slice_fueter_rejects_real_axis():
    with pytest.raises(DomainError):
        slice_fueter_op(IDENT, Octonion.one())


def test_cauchy_fueter_of_identity():
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    rng = np.random.default_rng(13)
    minus_two = -2.0 * Octonion.one()
    for _ in range(5):
        q = rng.normal(size=4)
        assert (cauchy_fueter_op(IDENT, pair, q) - minus_two).norm() < 1e-8


def test_quaternion_laplacian_values():
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    sq = OctField("sq", lambda pts: _real_rows(np.einsum("ij,ij->i", pts, pts)))

    def harm(pts):
        q = pts @ pair.basis.T
        return _real_rows(q[:, 0] ** 2 - q[:, 1] ** 2)

    harmonic = OctField("harm", harm)
    q = np.array([0.3, -0.2, 0.5, 0.1])
    assert (quaternion_laplacian(sq, pair, q) - 8.0 * Octonion.one()).norm() < 1e-5
    assert quaternion_laplacian(harmonic, pair, q).norm() < 1e-5


def test_tangential_derivation():
    probe = OctField("x1", lambda pts: _real_rows(pts[:, 1]))
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = Octonion(rng.normal(size=8))
        got = tangential_l(probe, x, 1, 2)
        assert (got + float(x.coeffs[2]) * Octonion.one()).norm() < 1e-8
    with pytest.raises(DomainError):
        tangential_l(probe, Octonion.one(), 0, 1)
    with pytest.raises(DomainError):
        tangential_l(probe, Octonion.one(), 3, 2)


def test_euler_operator():
    rng = np.random.default_rng(15)
    for x in rand_offaxis(rng, 5):
        assert (euler_e(IM_FIELD, x) - x.imag_part()).norm() < 1e-10
        assert euler_e(RE_FIELD, x).norm() < 1e-10


def test_gamma_stem_lemma_on_golden_fields():
    # 6 Im(x) v_x = |Im x| Gamma f(x) on fields with known stems
    slab = get_field("slab-cone")
    aff = get_field("affine-regular")
    rng = np.random.default_rng(16)
    for a in (-1.5, 0.0, 2.0):
        for b in (1.5, 2.5):
            u = rng.normal(size=7)
            u[0] = abs(u[0]) + 4.0  # force into the cone around e1
            unit = UnitImaginary.from_vector(u)
            x = tau(unit, complex(a, b))
            if not slab.domain.contains(x):
                continue
            v = b * (b - 1.0)
            lhs = 6.0 * v * x.imag_part()
            rhs = b * spherical_gamma(slab.field, x)
            assert (lhs - rhs).norm() < 1e-6
    for x in rand_offaxis(rng, 5):
        lhs = 6.0 * x.im_norm * x.imag_part()  # stem of affine field: v = beta
        rhs = x.im_norm * spherical_gamma(aff.field, x)
        assert (lhs - rhs).norm() < 1e-6


def slice_field_from_stem(u_fn, v_fn):
    def evaluate_many(pts):
        b = np.linalg.norm(pts[:, 1:], axis=1)
        zs = [complex(a, beta) for a, beta in zip(pts[:, 0], b)]
        u = np.array([u_fn(z) for z in zs])
        v = np.array([v_fn(z) for z in zs])
        return _real_rows(u) + _imag_rows(pts) / b[:, None] * v[:, None]

    return OctField("stem-induced", evaluate_many)


def test_fueter_splits_into_bers_vekua_residuals():
    # dbar_F f (tau_I(z)) = r1(z) + I r2(z) for stem-induced slice functions
    cases = [
        (lambda z: z.real * z.imag, lambda z: 0.0, lambda z: z.imag, lambda z: z.real),
        (lambda z: z.real ** 2, lambda z: 0.0, lambda z: 2.0 * z.real, lambda z: 0.0),
        (lambda z: z.real, lambda z: z.imag, lambda z: -2.0, lambda z: 0.0),
    ]
    rng = np.random.default_rng(17)
    for u_fn, v_fn, r1_fn, r2_fn in cases:
        f = slice_field_from_stem(u_fn, v_fn)
        for _ in range(6):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
            unit = UnitImaginary.from_vector(rng.normal(size=7))
            got = slice_fueter_op(f, tau(unit, z), use_closed=False)
            want = r1_fn(z) * Octonion.one() + r2_fn(z) * unit.as_octonion()
            assert (got - want).norm() < 1e-6


def test_stencil_safety():
    ball = Ball(Octonion.zero(), 1.0)
    assert stencil_safe(ball, Octonion.zero(), 1e-3)
    edge = Octonion(np.array([0.9999, 0, 0, 0, 0, 0, 0, 0.0]))
    assert not stencil_safe(ball, edge, 1e-3)


def test_sliceness_verdicts():
    plan = SamplePlan(sphere_samples=2000, residual_unit_samples=30)
    slab = get_field("slab-cone")
    rep = sliceness_check(slab.field, slab.domain, plan)
    assert rep.passed
    # the reports of the DisjointSet labelling, to the last bit
    assert rep.to_json() == {
        "op": "sliceness",
        "samples": 795,
        "max_residual": 5.618320409991008e-15,
        "mean_residual": 2.186358106646397e-15,
        "tolerance": 1e-06,
        "pass": True,
        "worst_point": [
            -2.0, -2.390684745089354, -0.04756305944948361, -0.729632924814153, 0.0, 0.0, 0.0, 0.0
        ],
    }
    probe = get_field("coord-probe")
    rep = sliceness_check(probe.field, probe.domain, plan)
    assert not rep.passed
    assert rep.max_residual > 1e-2
    assert rep.to_json() == {
        "op": "sliceness",
        "samples": 403,
        "max_residual": 4.6188755298818425,
        "mean_residual": 1.7415346660621285,
        "tolerance": 1e-06,
        "pass": False,
        "worst_point": [
            -1.0, 2.4700898384017584, -0.3199656550879381, -0.2151236151344697, 0.0, 0.0, 0.0, 0.0
        ],
    }

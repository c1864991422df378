import numpy as np
import pytest

from octoslice.algebra import Octonion, OrthoPair, UnitImaginary, tau
from octoslice.diffops import OctField
from octoslice.domains import Ball
from octoslice.errors import ConditioningError, DomainError, PreconditionError
from octoslice.golden import get_field, slab_cone_stem, sqrt_stem_main
from octoslice.stems import (
    GridSpec,
    bers_vekua_residual,
    local_stem,
    modulus_local_max_scan,
    reconstruct_third,
    sfr_check,
    stem_from_gamma,
    stem_from_two_units,
    stem_partials,
)

IDENT = OctField("id", lambda pts: pts.copy(), lambda pts: np.tile(np.eye(8), (len(pts), 1, 1)))


def two_units(f, z, i1, i2):
    """The stem from two units at one z, as (u, v) octonions."""
    u, v = stem_from_two_units(f, np.array([z]), i1.vec[None], i2.vec[None])
    return Octonion(u[0]), Octonion(v[0])


def third(f, z, i1, i2, i3):
    return Octonion(reconstruct_third(f, np.array([z]), i1.vec[None], i2.vec[None], i3.vec[None])[0])


def unit_near(axis_vec, angle, other_vec):
    axis_vec = axis_vec / np.linalg.norm(axis_vec)
    w = other_vec - (other_vec @ axis_vec) * axis_vec
    w /= np.linalg.norm(w)
    return UnitImaginary.from_vector(np.cos(angle) * axis_vec + np.sin(angle) * w)


E1 = np.eye(7)[0]
E2 = np.eye(7)[1]
E3 = np.eye(7)[2]


def test_three_stem_routes_agree_on_slab_cone():
    slab = get_field("slab-cone")
    i1 = UnitImaginary.basis(1)
    i2 = unit_near(E1, 0.3, E2)
    for a in (-2.0, 0.5, 2.0):
        for b in (1.5, 2.0, 3.0):
            z = complex(a, b)
            want_u, want_v = (Octonion(w[0]) for w in slab_cone_stem(np.array([z]), 1))
            got_u, got_v = two_units(slab.field, z, i1, i2)
            assert (got_u - want_u).norm() < 1e-12
            assert (got_v - want_v).norm() < 1e-12
            got_g = stem_from_gamma(slab.field, tau(i1, z))
            assert (got_g.u - want_u).norm() < 1e-8
            assert (got_g.v - want_v).norm() < 1e-8
            # opposite cone carries the sign-flipped stem
            wantm_u, wantm_v = (Octonion(w[0]) for w in slab_cone_stem(np.array([z]), -1))
            gotm_u, gotm_v = two_units(slab.field, z, -i1, unit_near(-E1, 0.3, E2))
            assert (gotm_u - wantm_u).norm() < 1e-12
            assert (gotm_v - wantm_v).norm() < 1e-12


def test_stem_guards():
    slab = get_field("slab-cone")
    i1 = UnitImaginary.basis(1)
    with pytest.raises(ConditioningError, match="interpolation"):
        two_units(slab.field, 1 + 2j, i1, unit_near(E1, 0.01, E2))
    with pytest.raises(DomainError):
        two_units(slab.field, 1.5 + 0j, i1, UnitImaginary.basis(2))
    with pytest.raises(ConditioningError, match="reconstruction"):
        third(slab.field, 1 + 2j, i1, unit_near(E1, 0.01, E2), i1)
    with pytest.raises(DomainError, match="coincide"):
        third(slab.field, 1.5 + 0j, i1, UnitImaginary.basis(2), i1)
    # one bad row refuses the whole batch
    rows = np.array([i1.vec, i1.vec])
    with pytest.raises(ConditioningError):
        stem_from_two_units(slab.field, np.array([1 + 2j, 1 + 2j]), rows, np.array([E2, E1]))
    with pytest.raises(DomainError):
        stem_from_gamma(IDENT, Octonion.one())


def test_unit_pair_independence():
    # the recovered stem must not depend on which well-separated pair is used
    slab = get_field("slab-cone")
    rng = np.random.default_rng(21)
    z = complex(-1.2, 2.2)
    base = None
    for _ in range(10):
        a1 = rng.uniform(0.0, 0.35)
        a2 = rng.uniform(a1 + 0.15, 0.7)
        w = rng.normal(size=7)
        i1 = unit_near(E1, a1, w)
        i2 = unit_near(E1, a2, rng.normal(size=7))
        got = two_units(slab.field, z, i1, i2)
        if base is None:
            base = got
        assert (got[0] - base[0]).norm() < 1e-8
        assert (got[1] - base[1]).norm() < 1e-8


def test_reconstruct_third_slice_value():
    slab = get_field("slab-cone")
    sq = get_field("sqrt-example")
    rng = np.random.default_rng(22)
    # slab-cone: all three units inside the cone around e1
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(1.2, 3.0))
        i1 = unit_near(E1, rng.uniform(0, 0.3), rng.normal(size=7))
        i2 = unit_near(E1, rng.uniform(0.45, 0.7), rng.normal(size=7))
        i3 = unit_near(E1, rng.uniform(0, 0.7), rng.normal(size=7))
        got = third(slab.field, z, i1, i2, i3)
        want = slab.field.evaluate(tau(i3, z))
        assert (got - want).norm() < 1e-12
    # sqrt field: units within one chain ball's cap
    z = complex(1.0, 2.0)
    i1 = UnitImaginary.basis(1)
    i2 = unit_near(E1, 0.11, E2)
    i3 = unit_near(E1, 0.05, E3)
    got = third(sq.field, z, i1, i2, i3)
    want = sq.field.evaluate(tau(i3, z))
    assert (got - want).norm() < 1e-12
    # identity is entire: any units work
    got = third(IDENT, 0.3 + 1.1j, UnitImaginary.basis(3), UnitImaginary.basis(5), i3)
    assert (got - tau(i3, 0.3 + 1.1j)).norm() < 1e-12


def test_local_stem_on_real_centered_ball():
    ball = Ball(Octonion.zero(), 3.0)
    sv = local_stem(IDENT, ball, 1.0 + 0.8j)
    assert abs(sv.u.coeffs[0] - 1.0) < 1e-12 and sv.u.imag_part().norm() < 1e-12
    assert abs(sv.v.coeffs[0] - 0.8) < 1e-12
    # even-odd convention below the axis
    sv = local_stem(IDENT, ball, 1.0 - 0.8j)
    assert abs(sv.v.coeffs[0] + 0.8) < 1e-12
    # real point: (f, 0)
    sv = local_stem(IDENT, ball, 0.5 + 0j)
    assert abs(sv.u.coeffs[0] - 0.5) < 1e-12 and sv.v.norm() == 0.0
    with pytest.raises(DomainError):
        local_stem(IDENT, ball, 5.0 + 0j)
    with pytest.raises(DomainError):
        local_stem(IDENT, ball, 2.0 + 2.5j)


def test_local_stem_grazing_ball():
    graze = Ball(2.0 * Octonion.basis(1), 0.25)
    with pytest.raises(ConditioningError):
        local_stem(IDENT, graze, 0.0 + 2.24j)


def test_sqrt_golden_stems():
    sq = get_field("sqrt-example")
    chain = sq.domain
    end_plus = Ball(chain.center_at(np.pi), chain.RADIUS)
    end_minus = Ball(chain.center_at(-np.pi), chain.RADIUS)
    start = Ball(chain.center_at(0.0), chain.RADIUS)
    sv = local_stem(sq.field, end_plus, -1 + 2j)
    assert abs(sv.u.coeffs[0] - 0.5) < 1e-10 and abs(sv.v.coeffs[0] + 0.5) < 1e-10
    sv = local_stem(sq.field, end_minus, -1 + 2j)
    assert abs(sv.u.coeffs[0] + 0.5) < 1e-10 and abs(sv.v.coeffs[0] - 0.5) < 1e-10
    sv = local_stem(sq.field, start, 1 + 2j)
    assert abs(sv.u.coeffs[0]) < 1e-10 and abs(sv.v.coeffs[0] - 0.5) < 1e-10


def test_bers_vekua_residuals():
    stem = sqrt_stem_main()
    rng = np.random.default_rng(23)
    theta = rng.uniform(-2.0, 2.0, 20)
    zs = np.cos(theta) + 1j * (2.0 + np.sin(theta)) + rng.uniform(-0.1, 0.1, 20) + 1j * rng.uniform(-0.1, 0.1, 20)
    assert bers_vekua_residual(stem, zs).max_norms().max() < 1e-12
    assert bers_vekua_residual(stem, zs, use_closed=False).max_norms().max() < 1e-7
    ident = get_field("identity")
    r = bers_vekua_residual(ident.stem, np.array([0.4 + 1.3j, 0.4 + 0j]))
    assert abs(r.r1[0, 0] + 2.0) < 1e-12 and np.abs(r.r2).max() < 1e-12
    assert r.to_json(1)["r1"] is None and r.max_norms()[1] == 0.0


def test_closed_vs_fd_partials():
    stem = sqrt_stem_main()
    zs = np.array([0.7 + 2.2j, -1 + 2j])
    closed = stem_partials(stem, zs)
    fd = stem_partials(stem, zs, use_closed=False)
    norms = np.linalg.norm(closed[0] - fd[0], axis=1)
    assert (norms < 1e-6 * (1 + np.linalg.norm(closed[0], axis=1))).all()
    # on the branch cut there is no closed form, and the stencil fills the row
    assert np.isnan(stem.partials_many(zs[1:])).all()
    assert np.array_equal(closed[1], fd[1])


def test_sfr_check_verdicts():
    from octoslice.sampling import SamplePlan

    plan = SamplePlan(sphere_samples=2000, residual_samples=60, residual_unit_samples=20)
    sq = get_field("sqrt-example")
    rep = sfr_check(sq.field, sq.domain, plan)
    assert rep.passed and rep.op == "slice-fueter-regularity"
    gau = get_field("gaussian")
    rep = sfr_check(gau.field, gau.domain, plan)
    assert not rep.passed


def test_modulus_scan_gaussian_max_at_origin():
    gau = get_field("gaussian")
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    grid = GridSpec((0, 0, 0, 0), (1, 1, 1, 1), (5, 5, 5, 5))
    rep = modulus_local_max_scan(gau.field, pair, grid, gau.domain)
    assert rep.strict_maxima == [[0.0, 0.0, 0.0, 0.0]]
    assert not rep.passed


def test_modulus_scan_empty_for_identity_and_sqrt():
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    grid = GridSpec((0, 0, 0, 0), (1, 1, 1, 1), (5, 5, 5, 5))
    rep = modulus_local_max_scan(IDENT, pair, grid, get_field("identity").domain)
    assert rep.strict_maxima == [] and rep.passed
    sq = get_field("sqrt-example")
    grid = GridSpec((1, 2, 0, 0), (0.1, 0.1, 0.05, 0.05), (6, 6, 5, 5))
    rep = modulus_local_max_scan(sq.field, pair, grid, domain=sq.domain)
    assert rep.strict_maxima == []


def test_modulus_scan_domain_boundary_not_interior():
    gau = get_field("gaussian")
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    shifted = Ball(2.0 * Octonion.basis(1), 1.0)
    grid = GridSpec((0, 2, 0, 0), (1.5, 1.5, 0.2, 0.2), (7, 7, 3, 3))
    rep = modulus_local_max_scan(gau.field, pair, grid, domain=shifted)
    assert rep.strict_maxima == []


@pytest.mark.parametrize("counts", [(1, 1, 1, 1), (2, 5, 5, 5), (5, 5, 5, 0)])
def test_grid_without_interior_nodes_is_refused(counts):
    with pytest.raises(PreconditionError, match="at least 3"):
        GridSpec((0, 0, 0, 0), (1, 1, 1, 1), counts)


def test_grid_needs_four_axes():
    with pytest.raises(PreconditionError, match="four"):
        GridSpec.from_json({"center": [0, 0, 0], "half_widths": [1, 1, 1], "counts": [5, 5, 5]})

"""The batched numeric core against the one-point loops it replaced.

The reference functions below and in `scalar_reference` are the scalar
implementations of the golden fields, of Gamma, the Euler and slice Fueter
operators, `sliceness_check`, `sfr_check` and `modulus_local_max_scan`: one
point at a time, one `mul` per product.  The batched code must reproduce
them to the bit (equal bits, equal report JSON), for every golden field,
with closed-form partials and without.
"""

import math

import numpy as np
import pytest
from scalar_reference import (
    ScalarField,
    ref_euler,
    ref_gamma,
    ref_partial,
    ref_slice_fueter,
    same_bits,
    scalar_field,
)

from octoslice import cli
from octoslice.algebra import Octonion, OrthoPair, UnitImaginary, mul, row_dot, tau
from octoslice.diffops import (
    FD_STEP,
    OctField,
    euler_e,
    gamma_batch,
    partial_fd,
    partials_batch,
    slice_fueter_batch,
    slice_fueter_op,
    sliceness_check,
    spherical_gamma,
    stencil_safe,
)
from octoslice.domains import Ball
from octoslice.errors import DomainError, EmptySampleError, PreconditionError
from octoslice.golden import _sqrt_partials_raw, _sqrt_uv_tilde, field_names, get_field
from octoslice.report import Report, ScanReport
from octoslice.sampling import SamplePlan, components, sample_units, unit_graph_edges
from octoslice.stems import MAX_GRID_NODES, GridSpec, modulus_local_max_scan, sfr_check

PAIR = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))


# ---------------------------------------------------------------------------
# Scalar references


def ref_member_units(domain, a, b, units):
    pts = np.empty((len(units), 8))
    pts[:, 0] = a
    pts[:, 1:] = b * units
    return domain.contains_batch(pts)


def ref_sliceness_check(sf, domain, plan, tolerance=1e-6, use_closed=True):
    a_values = plan.a_values if plan.a_values is not None else (-2.0, -1.0, 0.0, 1.0, 2.0)
    b_values = plan.b_values if plan.b_values is not None else (0.5, 1.5, 2.5)
    units = sample_units(plan.sphere_samples, plan.rng())
    worst, worst_point, spreads, n_samples = 0.0, None, [], 0
    for a in a_values:
        for b in b_values:
            if b < plan.min_im:
                continue
            members = units[ref_member_units(domain, a, b, units)]
            if len(members) < max(2, plan.component_detect_min):
                continue
            count, labels = components(len(members), unit_graph_edges(members, plan.link_angle))
            order = np.argsort(labels, kind="stable")
            for idx in np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]):
                if len(idx) < 2:
                    continue
                take = idx[:: max(1, len(idx) // plan.residual_unit_samples)]
                vals1, vals2, pts = [], [], []
                for k in take:
                    x = tau(UnitImaginary.from_vector(members[k]), complex(a, b))
                    if not stencil_safe(domain, x.coeffs[None, :], FD_STEP * (1.0 + x.norm()))[0]:
                        continue
                    gamma = ref_gamma(sf, x, use_closed)
                    inv_im = x.imag_part().inv()
                    vals1.append((sf.evaluate(x) - gamma / 6.0).coeffs)
                    vals2.append(mul(inv_im, gamma).coeffs)
                    pts.append(x)
                if len(vals1) < 2:
                    continue
                n_samples += len(vals1)
                for vals in (np.array(vals1), np.array(vals2)):
                    diffs = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)
                    spread = float(diffs.max())
                    spreads.append(spread)
                    if spread > worst:
                        worst = spread
                        far = np.unravel_index(int(diffs.argmax()), diffs.shape)
                        worst_point = pts[far[0]]
    if n_samples == 0:
        raise EmptySampleError("no resolvable slice spheres in the sampling grid")
    return Report(
        op="sliceness",
        samples=n_samples,
        max_residual=worst,
        mean_residual=float(np.mean(spreads)),
        tolerance=tolerance,
        passed=worst <= tolerance,
        worst_point=worst_point.to_list() if worst_point is not None else None,
    )


def ref_sfr_check(sf, domain, plan, tolerance=1e-5, use_closed=True):
    slice_rep = ref_sliceness_check(sf, domain, plan, 1e-6, use_closed)
    pts = domain.sample_interior(4 * plan.residual_samples, plan.rng(), min_im=plan.min_im)
    residuals, worst, worst_point = [], 0.0, None
    for p in pts:
        if len(residuals) >= plan.residual_samples:
            break
        x = Octonion(p)
        if not stencil_safe(domain, x.coeffs[None, :], FD_STEP * (1.0 + x.norm()))[0]:
            continue
        r = ref_slice_fueter(sf, x, use_closed).norm()
        residuals.append(r)
        if r > worst:
            worst, worst_point = r, x
    return Report(
        op="slice-fueter-regularity",
        samples=len(residuals),
        max_residual=worst,
        mean_residual=float(np.mean(residuals)),
        tolerance=tolerance,
        passed=bool(worst <= tolerance and slice_rep.passed),
        worst_point=worst_point.to_list() if worst_point is not None else None,
    )


def ref_modulus_scan(sf, pair, grid, domain):
    axes = grid.axes()
    counts = tuple(grid.counts)
    vals = np.full(counts, np.nan)
    for idx in np.ndindex(*counts):
        x = pair.embed(np.array([axes[d][idx[d]] for d in range(4)]))
        if domain.contains(x):
            vals[idx] = sf.evaluate(x).norm()
    core = vals[1:-1, 1:-1, 1:-1, 1:-1]
    strict = np.isfinite(core)
    for axis in range(4):
        for shift in (1, -1):
            neighbor = np.roll(vals, shift, axis=axis)[1:-1, 1:-1, 1:-1, 1:-1]
            strict &= np.isfinite(neighbor) & (core > neighbor)
    maxima = [[float(axes[d][i + 1]) for d, i in enumerate(idx)] for idx in np.argwhere(strict)]
    return ScanReport(grid=list(counts), strict_maxima=maxima)


# ---------------------------------------------------------------------------
# Sample points


def _sample_points(gf, n, seed):
    """Off-axis interior points of a golden field's domain."""
    rng = np.random.default_rng(seed)
    if gf.name == "slab-cone":
        pts = []
        for k in range(n):
            u = rng.normal(size=7)
            u[0] = (1 if k % 2 else -1) * (abs(u[0]) + 4.0)  # inside either cone
            b = (0.6, 1.0, 1.7, 2.4)[k % 4]  # b = 1 is the seam of the closed form
            pts.append(tau(UnitImaginary.from_vector(u), complex(rng.uniform(-2, 2), b)).coeffs)
        return np.array(pts)
    # the margin keeps finite-difference stencils inside the domain
    return gf.domain.sample_interior(n, rng, margin=0.02, min_im=0.3)


@pytest.mark.parametrize("use_closed", [True, False])
@pytest.mark.parametrize("name", field_names())
def test_operators_match_the_scalar_loops(name, use_closed):
    gf, sf = get_field(name), scalar_field(name)
    pts = _sample_points(gf, 12, seed=len(name))
    gammas = gamma_batch(gf.field, pts, use_closed=use_closed)
    dbars = slice_fueter_batch(gf.field, pts, use_closed=use_closed)
    for p, g, d in zip(pts, gammas, dbars):
        x = Octonion(p)
        want_g = ref_gamma(sf, x, use_closed).coeffs
        want_d = ref_slice_fueter(sf, x, use_closed).coeffs
        assert same_bits(g, want_g)
        assert same_bits(spherical_gamma(gf.field, x, use_closed=use_closed).coeffs, want_g)
        assert same_bits(d, want_d)
        assert same_bits(slice_fueter_op(gf.field, x, use_closed=use_closed).coeffs, want_d)
        want_e = ref_euler(sf, x, use_closed).coeffs
        assert same_bits(euler_e(gf.field, x, use_closed=use_closed).coeffs, want_e)


@pytest.mark.parametrize("name", field_names())
def test_hooks_match_the_one_point_field(name):
    gf, sf = get_field(name), scalar_field(name)
    f = gf.field
    pts = _sample_points(gf, 20, seed=3)
    values = f.evaluate_many(pts)
    parts = partials_batch(f, pts, range(0, 8))
    fd_parts = partials_batch(f, pts, range(0, 8), use_closed=False)
    for p, v, dp, fd in zip(pts, values, parts, fd_parts):
        x = Octonion(p)
        assert same_bits(v, sf.evaluate(x).coeffs)
        assert same_bits(f.evaluate(x).coeffs, v)
        for k in range(8):
            assert same_bits(dp[k], ref_partial(sf, x, k).coeffs)
            assert same_bits(partial_fd(f, x, k).coeffs, dp[k])
            assert same_bits(fd[k], ref_partial(sf, x, k, use_closed=False).coeffs)
            closed = sf.closed_partial(x, k)
            got = f.closed_partial(x, k)
            assert (got is None) == (closed is None)
            assert closed is None or same_bits(got.coeffs, closed.coeffs)
    assert f.evaluate_many(pts[:0]).shape == (0, 8)
    assert partials_batch(f, pts[:0], range(0, 8)).shape == (0, 8, 8)


def test_slab_cone_hooks_at_the_cone_boundary():
    # angles within 1e-15 of the cone's half angle: the per-row dot decides
    rng = np.random.default_rng(9)
    axis = UnitImaginary.from_vector(rng.normal(size=7))
    slab = get_field("slab-cone", i0=axis)
    sf = scalar_field("slab-cone", i0=axis)
    i0 = axis.vec
    w = rng.normal(size=(4000, 7))
    w -= (w @ i0)[:, None] * i0
    w /= np.linalg.norm(w, axis=1)[:, None]
    ang = math.pi / 4 + rng.uniform(-1e-15, 1e-15, size=4000)
    pts = np.zeros((4000, 8))
    pts[:, 0] = rng.uniform(-1.0, 1.0, size=4000)
    pts[:, 1:] = 1.5 * (np.cos(ang)[:, None] * i0 + np.sin(ang)[:, None] * w)
    inside = []
    for p in pts:
        try:
            sf.evaluate(Octonion(p))
            inside.append(p)
        except DomainError:
            pass
    inside = np.array(inside)
    assert 0 < len(inside) < len(pts)
    with pytest.raises(DomainError, match="outside the slab-cone"):
        slab.field.evaluate_many(pts)
    values = slab.field.evaluate_many(inside)
    parts = slab.field.partials_many(inside)
    for p, v, dp in zip(inside, values, parts):
        x = Octonion(p)
        assert same_bits(v, sf.evaluate(x).coeffs)
        assert same_bits(dp[3], sf.closed_partial(x, 3).coeffs)


def test_slab_cone_seam_uses_the_fallback():
    slab, sf = get_field("slab-cone"), scalar_field("slab-cone")
    x = tau(UnitImaginary.basis(1), complex(0.3, 1.0))
    assert slab.field.closed_partial(x, 2) is None
    parts = slab.field.partials_many(x.coeffs[None, :])
    assert np.isnan(parts).all()
    fd = partials_batch(slab.field, x.coeffs[None, :], range(1, 8))[0]
    for k in range(1, 8):
        assert same_bits(fd[k], ref_partial(sf, x, k).coeffs)
        assert same_bits(partial_fd(slab.field, x, k).coeffs, fd[k])


def test_generic_fallback_serves_fields_without_hooks():
    # f(x) = x_3 x: no closed form, so every partial is a central difference
    f = OctField("probe", lambda pts: pts * pts[:, 3:4])
    sf = ScalarField(lambda x: float(x.coeffs[3]) * x)
    pts = np.random.default_rng(5).normal(size=(6, 8))
    assert f.closed_partial(Octonion(pts[0]), 3) is None
    for p, g in zip(pts, gamma_batch(f, pts)):
        assert same_bits(g, ref_gamma(sf, Octonion(p)).coeffs)


def test_row_dot_matches_the_one_dimensional_product():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5000, 8)) * rng.uniform(0.1, 10.0, size=(5000, 1))
    axis = rng.normal(size=7)
    assert np.array_equal(row_dot(a, a), np.array([r @ r for r in a]))
    assert np.array_equal(np.sqrt(row_dot(a[:, 1:], a[:, 1:])), [Octonion(r).im_norm for r in a])
    assert np.array_equal(row_dot(a[:, 1:], axis), np.array([r[1:] @ axis for r in a]))


PLAN = SamplePlan(
    sphere_samples=1500,
    residual_unit_samples=6,
    residual_samples=12,
    a_values=(-1.0, 1.5),
    b_values=(0.6, 1.5, 2.5),
)


@pytest.mark.parametrize("use_closed", [True, False])
@pytest.mark.parametrize("name", field_names())
def test_sliceness_and_sfr_reports_match(name, use_closed):
    gf = get_field(name)
    plan = PLAN
    if name == "sqrt-example":
        # the slice through the chain's ball at theta = 0
        plan = SamplePlan(
            sphere_samples=3000,
            residual_unit_samples=4,
            residual_samples=6,
            a_values=(1.0,),
            b_values=(2.0,),
        )
    sf = scalar_field(name)
    for seed in (3, 4):
        plan = plan.with_seed(seed)
        got = sliceness_check(gf.field, gf.domain, plan, use_closed=use_closed)
        want = ref_sliceness_check(sf, gf.domain, plan, use_closed=use_closed)
        assert got.to_json() == want.to_json()
        got = sfr_check(gf.field, gf.domain, plan, use_closed=use_closed)
        assert got.to_json() == ref_sfr_check(sf, gf.domain, plan, use_closed=use_closed).to_json()


def test_modulus_scans_match():
    rng = np.random.default_rng(8)
    i = UnitImaginary.from_vector(rng.normal(size=7))
    w = rng.normal(size=7)
    tilted = OrthoPair(i, UnitImaginary.from_vector(w - (w @ i.vec) * i.vec))
    gau, ident, slab = get_field("gaussian"), get_field("identity"), get_field("slab-cone")
    chain = get_field("sqrt-example").domain
    cases = [
        ("gaussian", PAIR, GridSpec((0.0,) * 4, (1.0,) * 4, (7,) * 4), gau.domain),
        ("gaussian", tilted, GridSpec((0.1, 0.2, -0.1, 0.3), (0.9,) * 4, (6, 7, 5, 6)), gau.domain),
        ("identity", tilted, GridSpec((0.2, 1.2, 0.4, 0.3), (0.5,) * 4, (5,) * 4), ident.domain),
        # nodes at |x| = 1 lie on the boundary of the unit ball
        ("gaussian", PAIR, GridSpec((0.0,) * 4, (1.0,) * 4, (5,) * 4), Ball(Octonion.zero(), 1.0)),
        ("slab-cone", PAIR, GridSpec((0.0, 1.5, 0.0, 0.0), (1.0, 1.0, 0.6, 0.6), (5,) * 4), slab.domain),
        ("sqrt-example", PAIR, GridSpec((1, 2, 0, 0), (0.1, 0.1, 0.05, 0.05), (4, 5, 3, 3)), chain),
    ]
    for name, pair, grid, domain in cases:
        got = modulus_local_max_scan(get_field(name).field, pair, grid, domain)
        assert got.to_json() == ref_modulus_scan(scalar_field(name), pair, grid, domain).to_json()


# ---------------------------------------------------------------------------
# Square-root field on the line Im z = 2


@pytest.mark.parametrize("a", [-1.0, -0.97, -1.04])
def test_sqrt_partials_on_the_continued_line(a):
    z = complex(a, 2.0)
    h = 1e-6
    du_da, du_db, dv_da, dv_db = _sqrt_partials_raw(z)

    def diff(dz, k):
        return (_sqrt_uv_tilde(z + dz)[k] - _sqrt_uv_tilde(z - dz)[k]) / (2.0 * h)

    pairs = ((du_da, diff(h, 0)), (du_db, diff(h * 1j, 0)), (dv_da, diff(h, 1)), (dv_db, diff(h * 1j, 1)))
    for closed, fd in pairs:
        assert abs(closed - fd) <= 1e-9 * max(1.0, abs(closed))


@pytest.mark.parametrize("theta", [math.pi - 0.1, -math.pi + 0.1])
def test_sqrt_closed_partial_on_the_continued_line(theta):
    sq = get_field("sqrt-example")
    phi = math.cos(theta / 2.0) * np.eye(7)[0] + math.sin(theta / 2.0) * np.eye(7)[1]
    x = tau(UnitImaginary.from_vector(phi), complex(-1.0, 2.0))
    assert abs(x.im_norm - 2.0) <= 1e-12 and sq.domain.contains(x)
    for k in range(8):
        closed = sq.field.closed_partial(x, k)
        assert closed is not None
        fd = partial_fd(sq.field, x, k, use_closed=False)
        assert (closed - fd).norm() <= 1e-7 * (1.0 + closed.norm())


# ---------------------------------------------------------------------------
# Grid bound


def test_oversized_grid_is_refused_before_any_work():
    side = math.ceil(MAX_GRID_NODES ** 0.25) + 1
    with pytest.raises(PreconditionError, match="over the limit"):
        GridSpec((0.0,) * 4, (1.0,) * 4, (side,) * 4)
    grid = '{"center":[0,0,0,0],"half_widths":[1,1,1,1],"counts":[300,300,300,300]}'
    assert cli.main(["maxmod-scan", "--field", "gaussian", "--grid", grid]) == 2

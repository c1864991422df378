"""Differential operators for octonion fields.

Derivatives default to central second-order finite differences with step
h = step_scale * (1 + |x|); when a field carries closed-form partials those
are used instead and finite differences remain available as a cross-check.
The spherical operator is assembled as

    Gamma f = - sum over pairs (m, n) of  e_m (e_n (L_mn f)),
    L_mn f  =  x_m df/dx_n - x_n df/dx_m,

with the 21 index pairs 1 <= m < n <= 7 (DERIVATION_PAIRS) and exactly this
parenthesization; reassociating the products changes the operator.  The slice
Fueter operator combines it with the Euler operator E = sum x_l df/dx_l as

    dbar_F f = df/dx_0 - Im(x)^{-1} (E f) - (1/3) Im(x)^{-1} (Gamma f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import Octonion, OrthoPair, UnitImaginary, mul, tau
from .domains import Domain, _member_units
from .errors import DomainError, EmptySampleError
from .report import Report
from .sampling import SamplePlan, Subsphere, components, unit_graph_edges

DERIVATION_PAIRS = tuple((m, n) for m in range(1, 8) for n in range(m + 1, 8))

_BASIS = [Octonion.basis(k) for k in range(8)]


@dataclass
class FDScheme:
    """Finite-difference steps, scaled by 1 + |x| at the evaluation point."""

    step_scale: float = 1e-5
    step2_scale: float = 1e-4

    def step(self, size: float) -> float:
        return self.step_scale * (1.0 + size)

    def step2(self, size: float) -> float:
        return self.step2_scale * (1.0 + size)


DEFAULT_SCHEME = FDScheme()


@dataclass
class OctField:
    """An octonion-valued field with an optional closed-form derivative.

    `closed_partial(x, axis)` may return None where no closed form applies;
    callers then fall back to finite differences.
    """

    name: str
    evaluate: Callable[[Octonion], Octonion]
    closed_partial: Optional[Callable[[Octonion, int], Optional[Octonion]]] = None
    smoothness: str = "smooth"

    def __call__(self, x: Octonion) -> Octonion:
        return self.evaluate(x)


def _central_diff(f: OctField, x: Octonion, axis: int, h: float) -> Octonion:
    c = x.coeffs
    hi = c.copy()
    hi[axis] += h
    lo = c.copy()
    lo[axis] -= h
    return (f.evaluate(Octonion(hi)) - f.evaluate(Octonion(lo))) / (2.0 * h)


def partial_fd(
    f: OctField,
    x: Octonion,
    axis: int,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """df/dx_axis at x; closed form when the field provides one there."""
    if not 0 <= axis <= 7:
        raise DomainError(f"axis must lie in 0..7, got {axis}")
    if use_closed and f.closed_partial is not None:
        val = f.closed_partial(x, axis)
        if val is not None:
            return val
    return _central_diff(f, x, axis, scheme.step(x.norm()))


def _partials(
    f: OctField,
    x: Octonion,
    axes: range,
    scheme: FDScheme,
    use_closed: bool,
) -> dict[int, Octonion]:
    return {k: partial_fd(f, x, k, scheme, use_closed) for k in axes}


def euler_e(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Euler operator sum_{l=1..7} x_l df/dx_l at x."""
    parts = _partials(f, x, range(1, 8), scheme, use_closed)
    out = Octonion.zero()
    for l in range(1, 8):
        out = out + float(x.coeffs[l]) * parts[l]
    return out


def tangential_l(
    f: OctField,
    x: Octonion,
    m: int,
    n: int,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Tangential derivation L_mn f = x_m df/dx_n - x_n df/dx_m, 1<=m<n<=7."""
    if not (1 <= m < n <= 7):
        raise DomainError(f"need 1 <= m < n <= 7, got ({m}, {n})")
    pm = partial_fd(f, x, m, scheme, use_closed)
    pn = partial_fd(f, x, n, scheme, use_closed)
    return float(x.coeffs[m]) * pn - float(x.coeffs[n]) * pm


def _gamma_from_partials(x: Octonion, parts: dict[int, Octonion]) -> Octonion:
    c = x.coeffs
    out = Octonion.zero()
    for m, n in DERIVATION_PAIRS:
        lmn = float(c[m]) * parts[n] - float(c[n]) * parts[m]
        out = out + mul(_BASIS[m], mul(_BASIS[n], lmn))
    return -out


def spherical_gamma(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Spherical operator Gamma f at x (see module docstring)."""
    parts = _partials(f, x, range(1, 8), scheme, use_closed)
    return _gamma_from_partials(x, parts)


def slice_fueter_op(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Slice Fueter operator dbar_F f at an off-axis point x."""
    if x.im_norm <= 1e-9:
        raise DomainError("slice Fueter operator needs an off-axis point")
    parts = _partials(f, x, range(0, 8), scheme, use_closed)
    e_term = Octonion.zero()
    for l in range(1, 8):
        e_term = e_term + float(x.coeffs[l]) * parts[l]
    gamma = _gamma_from_partials(x, parts)
    inv_im = x.imag_part().inv()
    return parts[0] - mul(inv_im, e_term) - mul(inv_im, gamma) / 3.0


def cauchy_fueter_op(
    f: OctField,
    pair: OrthoPair,
    q,
    scheme: FDScheme = DEFAULT_SCHEME,
) -> Octonion:
    """Cauchy-Fueter operator of the slice restriction at quaternion coords q.

    D f = dg/dq0 + I (dg/dq1) + J (dg/dq2) + IJ (dg/dq3) for g = f on the
    slice of `pair`, each product a left multiplication.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise DomainError(f"quaternion coordinates need shape (4,), got {q.shape}")
    h = scheme.step(float(np.linalg.norm(q)))
    derivs = []
    for k in range(4):
        hi = q.copy()
        hi[k] += h
        lo = q.copy()
        lo[k] -= h
        derivs.append((f.evaluate(pair.embed(hi)) - f.evaluate(pair.embed(lo))) / (2.0 * h))
    units = [
        Octonion.one(),
        pair.i.as_octonion(),
        pair.j.as_octonion(),
        pair.k.as_octonion(),
    ]
    out = derivs[0]
    for k in range(1, 4):
        out = out + mul(units[k], derivs[k])
    return out


def quaternion_laplacian(
    f: OctField,
    pair: OrthoPair,
    q,
    scheme: FDScheme = DEFAULT_SCHEME,
) -> Octonion:
    """4-coordinate Laplacian of the slice restriction at quaternion coords q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise DomainError(f"quaternion coordinates need shape (4,), got {q.shape}")
    h = scheme.step2(float(np.linalg.norm(q)))
    center = f.evaluate(pair.embed(q))
    out = Octonion.zero()
    for k in range(4):
        hi = q.copy()
        hi[k] += h
        lo = q.copy()
        lo[k] -= h
        out = out + (
            f.evaluate(pair.embed(hi)) - 2.0 * center + f.evaluate(pair.embed(lo))
        ) / (h * h)
    return out


def stencil_safe(domain: Domain, x: Octonion, h: float) -> bool:
    """True when a +-2h coordinate stencil around x stays inside the domain."""
    m = domain.margin(x)
    if m > 0.0:
        return m >= 2.0 * h
    if m < 0.0:
        return False
    pts = np.tile(x.coeffs, (16, 1))
    for k in range(8):
        pts[2 * k, k] += 2.0 * h
        pts[2 * k + 1, k] -= 2.0 * h
    return bool(domain.contains_batch(pts).all())


def sliceness_check(
    f: OctField,
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    subsphere: Optional[Subsphere] = None,
    tolerance: float = 1e-6,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Report:
    """Sampled test that f is a slice function on the domain.

    On each nonempty sampled slice sphere, both f - Gamma f / 6 and
    Im(x)^{-1} Gamma f must be constant per connected component; the report's
    residual is the worst per-component spread of either quantity.
    """
    plan = plan or SamplePlan()
    subsphere = subsphere or Subsphere.default()
    a_values = plan.a_values if plan.a_values is not None else (-2.0, -1.0, 0.0, 1.0, 2.0)
    b_values = plan.b_values if plan.b_values is not None else (0.5, 1.5, 2.5)
    units = subsphere.sample(plan.sphere_samples, plan.rng())
    worst = 0.0
    worst_point = None
    spreads = []
    n_samples = 0
    for a in a_values:
        for b in b_values:
            if b < plan.min_im:
                continue
            member_mask = _member_units(domain, a, b, units)
            members = units[member_mask]
            if len(members) < max(2, plan.component_detect_min):
                continue
            count, labels = components(len(members), unit_graph_edges(members, plan.link_angle))
            # member indices of each component, smallest-member component first
            order = np.argsort(labels, kind="stable")
            for idx in np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]):
                if len(idx) < 2:
                    continue
                take = idx[:: max(1, len(idx) // plan.residual_unit_samples)]
                vals1, vals2, pts = [], [], []
                for k in take:
                    x = tau(UnitImaginary.from_vector(members[k]), complex(a, b))
                    if not stencil_safe(domain, x, scheme.step(x.norm())):
                        continue
                    gamma = spherical_gamma(f, x, scheme, use_closed)
                    inv_im = x.imag_part().inv()
                    vals1.append((f.evaluate(x) - gamma / 6.0).coeffs)
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

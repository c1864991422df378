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

Numeric core.  Gamma, the Euler and the slice Fueter operators run on
(n, 8) coefficient batches; the one-point functions (`spherical_gamma`,
`euler_e`, `slice_fueter_op`) are batches of one.  A field may carry two batched hooks, `evaluate_many`
((n, 8) -> (n, 8)) and `partials_many` ((n, 8) -> (n, 8, 8), [i, k] the
partial along axis k at row i, NaN rows where no closed form applies).  A
field without them, a NaN row, and `use_closed=False` all go through one
per-point fallback (`evaluate` and `partial_fd`).  Batched results equal the
one-point results to the bit, so sampled reports stay byte-identical for a
seed: the Gamma kernel applies y -> e_m (e_n y) as a signed permutation
and sums the pairs in DERIVATION_PAIRS order, `mul_batch` sums in the order
of `mul` (both through `sum_in_order`), and per-row dot products use
`row_dot`, which runs the same dot kernel as `x @ x` (`einsum` and
`sum(axis=1)` round some rows differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    MUL_INDEX,
    MUL_SIGN,
    Octonion,
    OrthoPair,
    UnitImaginary,
    mul,
    mul_batch,
    row_dot,
    sum_in_order,
    tau,
    tau_rows,
)
from .domains import Domain
from .errors import DomainError, EmptySampleError
from .report import Report
from .sampling import SamplePlan, Subsphere, components, unit_graph_edges

DERIVATION_PAIRS = tuple((m, n) for m in range(1, 8) for n in range(m + 1, 8))


def _pair_maps() -> tuple[np.ndarray, np.ndarray]:
    """y -> e_m (e_n y) for each pair, as out[:, k] = sign[p, k] * y[:, src[p, k]]."""
    src = np.empty((len(DERIVATION_PAIRS), 8), dtype=int)
    sign = np.empty((len(DERIVATION_PAIRS), 8))
    for p, (m, n) in enumerate(DERIVATION_PAIRS):
        dest = MUL_INDEX[m][MUL_INDEX[n]]
        src[p] = np.argsort(dest)
        sign[p] = (MUL_SIGN[m][MUL_INDEX[n]] * MUL_SIGN[n])[src[p]]
    return src, sign


_PAIR_M = np.array([m for m, _ in DERIVATION_PAIRS])
_PAIR_N = np.array([n for _, n in DERIVATION_PAIRS])
_PAIR_SRC, _PAIR_SIGN = _pair_maps()


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
    callers then fall back to finite differences.  `evaluate_many` and
    `partials_many` are the optional batched hooks of the module docstring;
    they must agree with `evaluate` and `closed_partial` to the bit.
    """

    name: str
    evaluate: Callable[[Octonion], Octonion]
    closed_partial: Optional[Callable[[Octonion, int], Optional[Octonion]]] = None
    smoothness: str = "smooth"
    evaluate_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    partials_many: Optional[Callable[[np.ndarray], np.ndarray]] = None

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


def evaluate_batch(f: OctField, pts: np.ndarray) -> np.ndarray:
    """Values of f at the rows of an (n, 8) array, as (n, 8)."""
    if f.evaluate_many is not None:
        return f.evaluate_many(pts)
    out = np.empty((len(pts), 8))
    for i, p in enumerate(pts):
        out[i] = f.evaluate(Octonion(p)).coeffs
    return out


def partials_batch(
    f: OctField,
    pts: np.ndarray,
    axes: range,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> np.ndarray:
    """(n, 8, 8) array whose [i, k] is df/dx_k at pts[i], for k in `axes`."""
    if use_closed and f.partials_many is not None:
        parts = f.partials_many(pts)
        todo = np.flatnonzero(np.isnan(parts).any(axis=(1, 2)))
    else:
        parts = np.zeros((len(pts), 8, 8))
        todo = range(len(pts))
    for i in todo:
        x = Octonion(pts[i])
        for k in axes:
            parts[i, k] = partial_fd(f, x, k, scheme, use_closed).coeffs
    return parts


def _euler(pts: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return sum_in_order(pts[:, 1:, None] * parts[:, 1:])


def _gamma(pts: np.ndarray, parts: np.ndarray) -> np.ndarray:
    # L_mn f for all 21 pairs, then e_m (e_n .) applied to each, summed in pair order
    lmn = pts[:, _PAIR_M, None] * parts[:, _PAIR_N] - pts[:, _PAIR_N, None] * parts[:, _PAIR_M]
    return -sum_in_order(np.take_along_axis(lmn, _PAIR_SRC[None], axis=2) * _PAIR_SIGN)


def _imag_inverse(pts: np.ndarray) -> np.ndarray:
    """Row-wise Im(x)^{-1}, computed as `Octonion.inv` computes it."""
    im = pts.copy()
    im[:, 0] = 0.0
    n2 = row_dot(im, im)
    if not n2.all():
        raise ZeroDivisionError("zero octonion has no inverse")
    inv = -(im / n2[:, None])
    inv[:, 0] = -inv[:, 0]
    return inv


def gamma_batch(
    f: OctField,
    pts: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> np.ndarray:
    """Spherical operator Gamma f at the rows of an (n, 8) array."""
    return _gamma(pts, partials_batch(f, pts, range(1, 8), scheme, use_closed))


def slice_fueter_batch(
    f: OctField,
    pts: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> np.ndarray:
    """Slice Fueter operator dbar_F f at the off-axis rows of an (n, 8) array."""
    ims = pts[:, 1:]
    if (np.sqrt(row_dot(ims, ims)) <= 1e-9).any():
        raise DomainError("slice Fueter operator needs an off-axis point")
    parts = partials_batch(f, pts, range(0, 8), scheme, use_closed)
    e_term = _euler(pts, parts)
    gamma = _gamma(pts, parts)
    inv_im = _imag_inverse(pts)
    return parts[:, 0] - mul_batch(inv_im, e_term) - mul_batch(inv_im, gamma) / 3.0


def euler_e(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Euler operator sum_{l=1..7} x_l df/dx_l at x."""
    pts = x.coeffs[None, :]
    return Octonion(_euler(pts, partials_batch(f, pts, range(1, 8), scheme, use_closed))[0])


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


def spherical_gamma(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Spherical operator Gamma f at x (see module docstring)."""
    return Octonion(gamma_batch(f, x.coeffs[None, :], scheme, use_closed)[0])


def slice_fueter_op(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Octonion:
    """Slice Fueter operator dbar_F f at an off-axis point x."""
    return Octonion(slice_fueter_batch(f, x.coeffs[None, :], scheme, use_closed)[0])


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
    a_values, b_values = plan.scan_grid()
    units = subsphere.sample(plan.sphere_samples, plan.rng())
    worst = 0.0
    worst_point = None
    spreads = []
    n_samples = 0
    for a in a_values:
        for b in b_values:
            if b < plan.min_im:
                continue
            members = units[domain.contains_batch(tau_rows(a, b, units))]
            if len(members) < max(2, plan.component_detect_min):
                continue
            count, labels = components(len(members), unit_graph_edges(members, plan.link_angle))
            # member indices of each component, smallest-member component first
            order = np.argsort(labels, kind="stable")
            for idx in np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]):
                if len(idx) < 2:
                    continue
                take = idx[:: max(1, len(idx) // plan.residual_unit_samples)]
                pts = []
                for k in take:
                    x = tau(UnitImaginary.from_vector(members[k]), complex(a, b))
                    if stencil_safe(domain, x, scheme.step(x.norm())):
                        pts.append(x)
                if len(pts) < 2:
                    continue
                n_samples += len(pts)
                xs = np.array([x.coeffs for x in pts])
                gamma = gamma_batch(f, xs, scheme, use_closed)
                vals1 = evaluate_batch(f, xs) - gamma / 6.0
                vals2 = mul_batch(_imag_inverse(xs), gamma)
                for vals in (vals1, vals2):
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

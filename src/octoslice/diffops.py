"""Differential operators for octonion fields.

Derivatives default to central second-order finite differences with the
fixed step h = FD_STEP (1 + |x|) (FD_STEP2 for the second differences of the
quaternion Laplacian); when a field carries closed-form partials those are
used instead and finite differences remain available as a cross-check.
The spherical operator is assembled as

    Gamma f = - sum over pairs (m, n) of  e_m (e_n (L_mn f)),
    L_mn f  =  x_m df/dx_n - x_n df/dx_m,

with the 21 index pairs 1 <= m < n <= 7 (DERIVATION_PAIRS) and exactly this
parenthesization; reassociating the products changes the operator.  The slice
Fueter operator combines it with the Euler operator E = sum x_l df/dx_l as

    dbar_F f = df/dx_0 - Im(x)^{-1} (E f) - (1/3) Im(x)^{-1} (Gamma f).

Numeric core.  A field is one batched kernel: `evaluate_many` maps an
(n, 8) array of points to their (n, 8) values, and the optional
`partials_many` maps it to (n, 8, 8) closed-form partials, [i, k] the
partial along axis k at row i, with NaN rows where no closed form applies.
`partials_batch` is the one derivative path: rows with a closed form come
from `partials_many`; NaN rows, fields without it and `use_closed=False` all
go through one central-difference stencil, evaluated in a single
`evaluate_many` call.  Gamma, the Euler and the slice Fueter operators run
on these batches; the one-point functions (`partial_fd`, `spherical_gamma`,
`euler_e`, `slice_fueter_op`) are batches of one.  The quaternion-slice
operators (`cauchy_fueter_op`, `quaternion_laplacian`) take (n, 4) slice
coordinates and evaluate every stencil row in one batch.

Each kernel treats its rows independently and rounds as the one-point
`Octonion` arithmetic does, so sampled reports stay byte-identical for a
seed.  The Gamma kernel applies y -> e_m (e_n y) as a signed permutation
and sums the pairs in DERIVATION_PAIRS order; `mul_batch` sums in the order
of `mul` (both through `sum_in_order`); per-row dot products use `row_dot`,
which runs the same dot kernel as `x @ x` (`einsum` and `sum(axis=1)`
round some rows differently).  Libm functions (exp, atan2, sin, cos, sqrt)
and `**` are computed per row on Python floats: numpy's vectorised versions
differ from libm's in the last bit on some rows.
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
    mul_batch,
    row_dot,
    sum_in_order,
    tau_rows,
)
from .domains import Domain
from .errors import DomainError, EmptySampleError
from .report import Report
from .sampling import SamplePlan, cell_components, sample_units

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


# Finite-difference step scales: a stencil at x steps by FD_STEP (1 + |x|),
# and the quaternion Laplacian's second differences by FD_STEP2 (1 + |q|).
FD_STEP = 1e-5
FD_STEP2 = 1e-4


@dataclass
class OctField:
    """An octonion-valued field, written once as a batched kernel.

    `evaluate_many` maps (n, 8) points to (n, 8) values; `partials_many`,
    when given, maps them to (n, 8, 8) closed-form partials with NaN rows
    where no closed form applies (see the module docstring).  `evaluate`
    and `closed_partial` are batches of one; `closed_partial` is None where
    the field has no closed form.
    """

    name: str
    evaluate_many: Callable[[np.ndarray], np.ndarray]
    partials_many: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def evaluate(self, x: Octonion) -> Octonion:
        return Octonion(self.evaluate_many(x.coeffs[None, :])[0])

    def closed_partial(self, x: Octonion, axis: int) -> Optional[Octonion]:
        if self.partials_many is None:
            return None
        row = self.partials_many(x.coeffs[None, :])[0]
        return None if np.isnan(row).any() else Octonion(row[axis])


def partial_fd(f: OctField, x: Octonion, axis: int, use_closed: bool = True) -> Octonion:
    """df/dx_axis at x; closed form when the field provides one there."""
    if not 0 <= axis <= 7:
        raise DomainError(f"axis must lie in 0..7, got {axis}")
    return Octonion(partials_batch(f, x.coeffs[None, :], (axis,), use_closed)[0, axis])


def partials_batch(f: OctField, pts: np.ndarray, axes, use_closed: bool = True) -> np.ndarray:
    """(n, 8, 8) array whose [i, k] is df/dx_k at pts[i], for k in `axes`.

    Rows without a closed form take central differences with step
    h = FD_STEP * (1 + |x|), all their stencil points in one batch.
    """
    if use_closed and f.partials_many is not None:
        parts = f.partials_many(pts)
        todo = np.flatnonzero(np.isnan(parts).any(axis=(1, 2)))
    else:
        parts = np.zeros((len(pts), 8, 8))
        todo = np.arange(len(pts))
    if len(todo) == 0:
        return parts
    axes = list(axes)
    x = pts[todo]
    h = FD_STEP * (1.0 + np.sqrt(row_dot(x, x)))
    # stencil[0, i, j] = x_i + h_i e_axes[j] and stencil[1, i, j] = x_i - h_i e_axes[j]
    stencil = np.repeat(np.stack([x, x])[:, :, None, :], len(axes), axis=2)
    for j, k in enumerate(axes):
        stencil[0, :, j, k] += h
        stencil[1, :, j, k] -= h
    vals = f.evaluate_many(stencil.reshape(-1, 8)).reshape(stencil.shape)
    parts[todo[:, None], axes] = (vals[0] - vals[1]) / (2.0 * h)[:, None, None]
    return parts


def _euler(pts: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return sum_in_order(pts[:, 1:, None] * parts[:, 1:])


def _gamma(pts: np.ndarray, parts: np.ndarray) -> np.ndarray:
    # L_mn f for all 21 pairs, then e_m (e_n .) applied to each, summed in pair order
    lmn = pts[:, _PAIR_M, None] * parts[:, _PAIR_N] - pts[:, _PAIR_N, None] * parts[:, _PAIR_M]
    return -sum_in_order(np.take_along_axis(lmn, _PAIR_SRC[None], axis=2) * _PAIR_SIGN)


def imag_inverse(pts: np.ndarray) -> np.ndarray:
    """Row-wise Im(x)^{-1}, computed as `Octonion.inv` computes it."""
    im = pts.copy()
    im[:, 0] = 0.0
    n2 = row_dot(im, im)
    if not n2.all():
        raise ZeroDivisionError("zero octonion has no inverse")
    inv = -(im / n2[:, None])
    inv[:, 0] = -inv[:, 0]
    return inv


def gamma_batch(f: OctField, pts: np.ndarray, use_closed: bool = True) -> np.ndarray:
    """Spherical operator Gamma f at the rows of an (n, 8) array."""
    return _gamma(pts, partials_batch(f, pts, range(1, 8), use_closed))


def slice_fueter_batch(f: OctField, pts: np.ndarray, use_closed: bool = True) -> np.ndarray:
    """Slice Fueter operator dbar_F f at the off-axis rows of an (n, 8) array."""
    ims = pts[:, 1:]
    if (np.sqrt(row_dot(ims, ims)) <= 1e-9).any():
        raise DomainError("slice Fueter operator needs an off-axis point")
    parts = partials_batch(f, pts, range(0, 8), use_closed)
    e_term = _euler(pts, parts)
    gamma = _gamma(pts, parts)
    inv_im = imag_inverse(pts)
    return parts[:, 0] - mul_batch(inv_im, e_term) - mul_batch(inv_im, gamma) / 3.0


def euler_e(f: OctField, x: Octonion, use_closed: bool = True) -> Octonion:
    """Euler operator sum_{l=1..7} x_l df/dx_l at x."""
    pts = x.coeffs[None, :]
    return Octonion(_euler(pts, partials_batch(f, pts, range(1, 8), use_closed))[0])


def spherical_gamma(f: OctField, x: Octonion, use_closed: bool = True) -> Octonion:
    """Spherical operator Gamma f at x (see module docstring)."""
    return Octonion(gamma_batch(f, x.coeffs[None, :], use_closed)[0])


def slice_fueter_op(f: OctField, x: Octonion, use_closed: bool = True) -> Octonion:
    """Slice Fueter operator dbar_F f at an off-axis point x."""
    return Octonion(slice_fueter_batch(f, x.coeffs[None, :], use_closed)[0])


def _slice_stencil(
    f: OctField, pair: OrthoPair, qs, scale: float, center: bool
) -> tuple[np.ndarray, np.ndarray]:
    """f at q +/- h e_k (columns 2k and 2k + 1), then at q itself if `center`, as (n, 8 or 9, 8).

    `qs` holds (n, 4) quaternion coordinates and h = scale * (1 + |q|) per row.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 4:
        raise DomainError(f"quaternion coordinates need shape (n, 4), got {qs.shape}")
    # `np.sqrt(row_dot(q, q))` is the 1-D `np.linalg.norm` of a 4-vector
    h = scale * (1.0 + np.sqrt(row_dot(qs, qs)))
    rows = np.repeat(qs[:, None, :], 9 if center else 8, axis=1)
    for k in range(4):
        rows[:, 2 * k, k] += h
        rows[:, 2 * k + 1, k] -= h
    # a stack of (1, 4) @ (4, 8) products rounds as `pair.embed` does
    vals = f.evaluate_many((rows.reshape(-1, 1, 4) @ pair.basis)[:, 0, :])
    return vals.reshape(len(qs), -1, 8), h


def cauchy_fueter_op(f: OctField, pair: OrthoPair, qs) -> np.ndarray:
    """Cauchy-Fueter operator of the slice restriction at (n, 4) quaternion coords, as (n, 8).

    D f = dg/dq0 + I (dg/dq1) + J (dg/dq2) + IJ (dg/dq3) for g = f on the
    slice of `pair`, each product a left multiplication.
    """
    vals, h = _slice_stencil(f, pair, qs, FD_STEP, center=False)
    derivs = (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h)[:, None, None]
    out = derivs[:, 0]
    for k, unit in enumerate((pair.i, pair.j, pair.k), start=1):
        out = out + mul_batch(np.tile(unit.as_octonion().coeffs, (len(out), 1)), derivs[:, k])
    return out


def quaternion_laplacian(f: OctField, pair: OrthoPair, qs) -> np.ndarray:
    """4-coordinate Laplacian of the slice restriction at (n, 4) quaternion coords, as (n, 8)."""
    vals, h = _slice_stencil(f, pair, qs, FD_STEP2, center=True)
    twice_center = 2.0 * vals[:, 8:]
    terms = (vals[:, 0:8:2] - twice_center + vals[:, 1:8:2]) / (h * h)[:, None, None]
    return sum_in_order(terms)


def stencil_safe(domain: Domain, pts: np.ndarray, h) -> np.ndarray:
    """Whether the +-2h coordinate stencil of each row of pts stays inside, as bool[n].

    Row i is the point leg (x, x, 2 h[i]) of `Domain.legs_inside`: the
    domain's `deep_legs` may certify it, and the 16 rows x +- 2h e_k of the
    others are tested in one `contains_batch`.  `h` is one step per row or
    one for all.
    """
    pts = np.asarray(pts, dtype=float)
    h2 = 2.0 * np.broadcast_to(np.asarray(h, dtype=float), (len(pts),))

    def rows(ids):
        # stencil[i, 2k] = x_i + 2h_i e_k and stencil[i, 2k + 1] = x_i - 2h_i e_k
        stencil = np.repeat(pts[ids], 16, axis=0).reshape(len(ids), 16, 8)
        for k in range(8):
            stencil[:, 2 * k, k] += h2[ids]
            stencil[:, 2 * k + 1, k] -= h2[ids]
        return stencil.reshape(-1, 8), 16

    return domain.legs_inside(pts, pts, h2, rows)


def sliceness_check(
    f: OctField,
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    tolerance: float = 1e-6,
    use_closed: bool = True,
) -> Report:
    """Sampled test that f is a slice function on the domain.

    On each nonempty sampled slice sphere, both f - Gamma f / 6 and
    Im(x)^{-1} Gamma f must be constant per connected component; the report's
    residual is the worst per-component spread of either quantity.

    The cells take their components from `sampling.cell_components`: one
    proximity graph over the sampled units for the whole scan, its
    subgraph induced by each cell's members labelled in blocks of cells.
    A cell's edges equal those of a graph over its members alone, save a
    pair within rounding of the link chord.  Each cell then evaluates the
    units it takes from all its components in one batch (one
    `stencil_safe`, one Gamma); every kernel decides row by row, so the
    report is that of one batch per component.
    """
    plan = plan or SamplePlan()
    a_values, b_values = plan.scan_grid()
    units = sample_units(plan.sphere_samples, plan.rng())
    cells = [(a, b) for a in a_values for b in b_values if b >= plan.min_im]
    min_members = max(2, plan.component_detect_min)
    worst = 0.0
    worst_point = None
    spreads = []
    n_samples = 0
    for a, b, members, labels in cell_components(domain, units, cells, plan.link_angle, min_members):
        # member indices of each component, smallest-member component first
        order = np.argsort(labels, kind="stable")
        parts = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        take = [idx[:: max(1, len(idx) // plan.residual_unit_samples)] for idx in parts if len(idx) >= 2]
        if not take:
            continue
        picked = units[members[np.concatenate(take)]]
        # slice points of the renormalised units; `np.sqrt(row_dot(x, x))` is the
        # 1-D `np.linalg.norm` of `UnitImaginary.from_vector` and `Octonion.norm`
        xs = tau_rows(a, b, picked / np.sqrt(row_dot(picked, picked))[:, None])
        safe = stencil_safe(domain, xs, FD_STEP * (1.0 + np.sqrt(row_dot(xs, xs))))
        # components with fewer than 2 safe rows resolve nothing
        comp = np.repeat(np.arange(len(take)), [len(idx) for idx in take])
        safe_counts = np.bincount(comp[safe], minlength=len(take))
        resolved = safe_counts >= 2
        keep = safe & resolved[comp]
        if not keep.any():
            continue
        xs = xs[keep]
        n_samples += len(xs)
        gamma = gamma_batch(f, xs, use_closed)
        vals1 = f.evaluate_many(xs) - gamma / 6.0
        vals2 = mul_batch(imag_inverse(xs), gamma)
        bounds = np.cumsum(safe_counts[resolved])[:-1]
        for pts, v1, v2 in zip(np.split(xs, bounds), np.split(vals1, bounds), np.split(vals2, bounds)):
            for vals in (v1, v2):
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
        worst_point=[float(v) for v in worst_point] if worst_point is not None else None,
    )

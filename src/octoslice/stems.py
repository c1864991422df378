"""Stems of slice functions and slice-regularity checks.

A slice function takes the form f(a + b I) = u + I v with (u, v) shared by the
whole connected component of the slice sphere through I.  Two independent
routes recover the stem vector at a point:

  * interpolation through two well-separated units I1, I2 at the same complex
    point z, solving f(z_Ik) = u + Ik v;
  * the spherical-operator identity 6 Im(x) v_x = |Im(x)| Gamma f(x), which
    needs only one point.

Local stems on a ball follow the even-odd convention: values at beta < 0 are
(u, -v) of the values at the mirrored point, and real points use (f, 0).
The Bers-Vekua system

    du/dalpha - dv/dbeta = 2 v / beta,      du/dbeta + dv/dalpha = 0

characterizes the stems of slice Fueter-regular functions away from the real
axis; its residual is what `sfr_check` drives to zero on samples.

A stem is one batched kernel, like a field: `StemField.values_many` maps an
(n,) complex array to (u, v), two (n, 8) arrays, and the optional
`partials_many` maps it to (n, 4, 8) closed partials (du/dalpha, du/dbeta,
dv/dalpha, dv/dbeta) with NaN rows where no closed form applies.
`stem_partials` is the one stem derivative path: closed rows come from
`partials_many`; NaN rows, stems without it and `use_closed=False` all go
through one central-difference stencil with step h = FD_STEP (1 + |z|),
evaluated in a single `values_many` call.  The Bers-Vekua residual, the
two-unit stems and `reconstruct_third` take rows of z (and of units) too,
and round every row as the one-point `Octonion` arithmetic does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    REAL_AXIS_TOL,
    Octonion,
    OrthoPair,
    UnitImaginary,
    mul_batch,
    orthogonal_unit,
    row_dot,
    tau,
    tau_rows,
)
from .diffops import (
    FD_STEP,
    OctField,
    gamma_batch,
    imag_inverse,
    slice_fueter_batch,
    sliceness_check,
    stencil_safe,
)
from .domains import Ball, Domain
from .errors import (
    ConditioningError,
    DomainError,
    EmptySampleError,
    IntegrityError,
    PreconditionError,
)
from .report import Report, ScanReport
from .sampling import SamplePlan, json_count, json_reals

# Minimum chordal separation between interpolation units.
SEP_MIN = 0.1
# Upper limit on the nodes of a modulus-scan grid; a larger grid is refused
# before any node is embedded or evaluated.
MAX_GRID_NODES = 1_000_000
# Grid nodes embedded, tested and evaluated in one batch by the modulus scan.
_SCAN_BLOCK = 4096


@dataclass
class StemVector:
    """The pair (u, v) with f(a + b I) = u + I v on a slice-sphere component."""

    u: Octonion
    v: Octonion

    def to_json(self) -> dict:
        return {"u": self.u.to_list(), "v": self.v.to_list()}


@dataclass
class StemField:
    """Stem of a slice function, as batched kernels of the complex variable.

    `values_many` maps an (n,) complex array to (u, v), two (n, 8) arrays;
    `partials_many`, when given, maps it to (n, 4, 8) closed partials
    (du/dalpha, du/dbeta, dv/dalpha, dv/dbeta), NaN rows where no closed
    form applies.
    """

    values_many: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    partials_many: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class BVResidual:
    """Residuals of the two Bers-Vekua equations at n points, as (n, 8) rows.

    On the real axis 2 v / beta is undefined, and r1's row is NaN.
    """

    r1: np.ndarray
    r2: np.ndarray

    def max_norms(self) -> np.ndarray:
        """max(|r1|, |r2|) per row, |r2| alone on the real axis."""
        return np.fmax(np.sqrt(row_dot(self.r1, self.r1)), np.sqrt(row_dot(self.r2, self.r2)))

    def to_json(self, row: int = 0) -> dict:
        r1 = self.r1[row]
        return {
            "r1": None if np.isnan(r1).any() else [float(v) for v in r1],
            "r2": [float(v) for v in self.r2[row]],
        }


def _two_unit_rows(f: OctField, zs, i1: np.ndarray, i2: np.ndarray, task: str, on_axis: str):
    """Unit rows I1, I2 as octonions, (I1 - I2)^{-1}, f(z_I1) and f(z_I2), for rows of z.

    Refuses rows on the real axis and unit pairs closer than SEP_MIN.
    """
    zs = np.asarray(zs, dtype=complex)
    if (np.abs(zs.imag) <= REAL_AXIS_TOL).any():
        raise DomainError(f"z on the real axis: {on_axis}")
    sep = np.sqrt(row_dot(i1 - i2, i1 - i2))
    close = sep < SEP_MIN
    if close.any():
        raise ConditioningError(f"units too close for stable {task}: |I1-I2| = {sep[close][0]}")
    units = np.stack([i1, i2], axis=1)
    # tau_rows(0, 1, I) is the unit I as an octonion row
    o1, o2 = tau_rows(0.0, 1.0, units).transpose(1, 0, 2)
    vals = f.evaluate_many(tau_rows(zs.real[:, None], zs.imag[:, None], units).reshape(-1, 8))
    return o1, o2, imag_inverse(o1 - o2), vals[0::2], vals[1::2]


def stem_from_two_units(
    f: OctField,
    zs,
    i1: np.ndarray,
    i2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve f(z_I1) = u + I1 v, f(z_I2) = u + I2 v for the stems at rows of z.

    `zs` is (n,) complex and i1, i2 are (n, 7) unit rows; (u, v) come back
    as two (n, 8) arrays.  For beta > 0 a row is the stem vector at z_I; for
    beta < 0 it is the stem-function value (u, -v) of the mirrored stem
    vector, consistent with the even-odd convention.
    """
    o1, _, inv, f1, f2 = _two_unit_rows(
        f, zs, i1, i2, "interpolation", "use the convention (f(z), 0) directly"
    )
    v = mul_batch(inv, f1 - f2)
    return f1 - mul_batch(o1, v), v


def gamma_stem_rows(
    f: OctField,
    pts: np.ndarray,
    use_closed: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Stem vectors (u, v) at the off-axis rows of an (n, 8) array, as two (n, 8) arrays.

    u = f(x) - Gamma f(x) / 6 and v = (|Im x| / 6) Im(x)^{-1} (Gamma f(x)).
    """
    ims = pts[:, 1:]
    b = np.sqrt(row_dot(ims, ims))
    if (b <= 1e-9).any():
        raise DomainError("gamma stem extraction needs an off-axis point")
    g = gamma_batch(f, pts, use_closed)
    u = f.evaluate_many(pts) - g / 6.0
    v = mul_batch(imag_inverse(pts), g) * (b / 6.0)[:, None]
    return u, v


def stem_from_gamma(f: OctField, x: Octonion, use_closed: bool = True) -> StemVector:
    """Stem vector at one off-axis point from the Gamma identity."""
    u, v = gamma_stem_rows(f, x.coeffs[None, :], use_closed)
    return StemVector(Octonion(u[0]), Octonion(v[0]))


def reconstruct_third(
    f: OctField,
    zs,
    i1: np.ndarray,
    i2: np.ndarray,
    i3: np.ndarray,
) -> np.ndarray:
    """Values of a slice function at z_I3 from its values at z_I1 and z_I2, as (n, 8).

    f(z_I3) = (I3 - I2)((I1 - I2)^{-1} f(z_I1)) - (I3 - I1)((I1 - I2)^{-1} f(z_I2)),
    for (n,) complex z and (n, 7) unit rows.
    """
    o1, o2, q, f1, f2 = _two_unit_rows(
        f, zs, i1, i2, "reconstruction", "all slice values coincide there"
    )
    o3 = tau_rows(0.0, 1.0, i3)
    return mul_batch(o3 - o2, mul_batch(q, f1)) - mul_batch(o3 - o1, mul_batch(q, f2))


def local_stem(f: OctField, ball: Ball, z: complex) -> StemVector:
    """Local stem of f on a ball at the complex point z.

    Picks two well-separated units whose slice points lie in the ball, solves
    for the stem at the beta >= 0 representative, and applies the (u, -v)
    flip for beta < 0.  Real z uses the convention (f(z), 0).
    """
    z = complex(z)
    if abs(z.imag) <= REAL_AXIS_TOL:
        x = Octonion.from_real_imag(z.real, np.zeros(7))
        if not ball.contains(x):
            raise DomainError("real point lies outside the ball")
        return StemVector(f.evaluate(x), Octonion.zero())
    a, b = z.real, abs(z.imag)
    cap_center, cos_thr = ball.slice_cap(a, b)
    if cap_center is None:
        if cos_thr > 0:
            raise DomainError("no slice of the ball passes through z")
        # real-centred ball with a full slice sphere: any unit works
        i1 = UnitImaginary.basis(1)
        i2 = orthogonal_unit(i1.vec)
    else:
        if cos_thr >= 1.0:
            raise DomainError("no slice of the ball passes through z")
        theta_max = float(np.arccos(max(cos_thr, -1.0)))
        delta = min(0.9 * theta_max, 0.25)
        if 2.0 * np.sin(delta / 2.0) < SEP_MIN:
            raise ConditioningError("ball grazes a single slice at z: units cannot separate")
        i1 = UnitImaginary.from_vector(cap_center)
        w = orthogonal_unit(cap_center).vec
        i2 = UnitImaginary.from_vector(np.cos(delta) * cap_center + np.sin(delta) * w)
    for unit in (i1, i2):
        if not ball.contains(tau(unit, complex(a, b))):
            raise IntegrityError("selected slice point escaped the ball")
    u, v = stem_from_two_units(f, np.array([complex(a, b)]), i1.vec[None], i2.vec[None])
    return StemVector(Octonion(u[0]), Octonion(-v[0] if z.imag < 0 else v[0]))


def stem_partials(stem: StemField, zs, use_closed: bool = True) -> np.ndarray:
    """(n, 4, 8) partials du/dalpha, du/dbeta, dv/dalpha, dv/dbeta at rows of z.

    Rows without a closed form take central differences with step
    h = FD_STEP * (1 + |z|), all their stencil points in one batch.
    """
    zs = np.asarray(zs, dtype=complex)
    if use_closed and stem.partials_many is not None:
        parts = stem.partials_many(zs)
        todo = np.flatnonzero(np.isnan(parts).any(axis=(1, 2)))
    else:
        parts = np.zeros((len(zs), 4, 8))
        todo = np.arange(len(zs))
    if len(todo) == 0:
        return parts
    z = zs[todo]
    # `np.hypot` is Python's abs(complex) to the bit; `np.abs` is not
    h = FD_STEP * (1.0 + np.hypot(z.real, z.imag))
    # vals[uv, axis, sign] holds u or v at z + h, z - h, z + ih and z - ih
    vals = np.stack(stem.values_many(np.concatenate([z + h, z - h, z + 1j * h, z - 1j * h])))
    vals = vals.reshape(2, 2, 2, len(z), 8)
    diffs = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h)[:, None]
    parts[todo] = diffs.reshape(4, len(z), 8).transpose(1, 0, 2)
    return parts


def bers_vekua_residual(stem: StemField, zs, use_closed: bool = True) -> BVResidual:
    """Residuals of the Bers-Vekua system for a stem at rows of z.

    The first equation involves 2 v / beta; its rows on the real axis are NaN.
    """
    zs = np.asarray(zs, dtype=complex)
    du_da, du_db, dv_da, dv_db = stem_partials(stem, zs, use_closed).transpose(1, 0, 2)
    r1 = np.full((len(zs), 8), np.nan)
    off = np.abs(zs.imag) > REAL_AXIS_TOL
    if off.any():
        _, v = stem.values_many(zs[off])
        r1[off] = du_da[off] - dv_db[off] - (2.0 / zs.imag[off])[:, None] * v
    return BVResidual(r1, du_db + dv_da)


def sfr_check(
    f: OctField,
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    tolerance: float = 1e-5,
    use_closed: bool = True,
) -> Report:
    """Sampled slice-Fueter regularity: sliceness plus dbar_F f = 0.

    The reported residual is the worst |dbar_F f| over stencil-safe interior
    samples; the verdict also requires the sliceness check to pass at 1e-6.
    """
    plan = plan or SamplePlan()
    slice_rep = sliceness_check(f, domain, plan, tolerance=1e-6, use_closed=use_closed)
    rng = plan.rng()
    pts = domain.sample_interior(4 * plan.residual_samples, rng, min_im=plan.min_im)
    safe = stencil_safe(domain, pts, FD_STEP * (1.0 + np.sqrt(row_dot(pts, pts))))
    xs = pts[safe][: plan.residual_samples]
    if not len(xs):
        raise EmptySampleError("no stencil-safe off-axis samples in the domain")
    dbar = slice_fueter_batch(f, xs, use_closed)
    residuals = np.sqrt(row_dot(dbar, dbar))
    worst = 0.0
    worst_point = None
    for p, r in zip(xs, residuals.tolist()):
        if r > worst:
            worst = r
            worst_point = p
    return Report(
        op="slice-fueter-regularity",
        samples=len(residuals),
        max_residual=worst,
        mean_residual=float(np.mean(residuals)),
        tolerance=tolerance,
        passed=bool(worst <= tolerance and slice_rep.passed),
        worst_point=[float(v) for v in worst_point] if worst_point is not None else None,
    )


@dataclass
class GridSpec:
    """Axis-aligned grid in quaternion slice coordinates."""

    center: tuple[float, float, float, float]
    half_widths: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if not len(self.center) == len(self.half_widths) == len(self.counts) == 4:
            raise PreconditionError("a grid needs four centers, half widths and counts")
        if any(n < 3 for n in self.counts):
            # with fewer than 3 nodes an axis has no interior node to test
            raise PreconditionError(f"every grid count must be at least 3, got {list(self.counts)}")
        nodes = math.prod(self.counts)
        if nodes > MAX_GRID_NODES:
            raise PreconditionError(f"grid of {nodes} nodes is over the limit {MAX_GRID_NODES}")

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(c - w, c + w, n)
            for c, w, n in zip(self.center, self.half_widths, self.counts)
        ]

    @classmethod
    def from_json(cls, data: dict) -> "GridSpec":
        """The grid of a JSON object: finite JSON numbers for centers and half widths, integers for counts."""
        return cls(
            tuple(json_reals(data["center"], (None,), "grid center").tolist()),
            tuple(json_reals(data["half_widths"], (None,), "grid half_widths").tolist()),
            tuple(json_count(n, "grid count") for n in data["counts"]),
        )


def modulus_local_max_scan(f: OctField, pair: OrthoPair, grid: GridSpec, domain: Domain) -> ScanReport:
    """Strict interior local maxima of |f| on a quaternion-slice grid.

    A node counts as interior when all eight per-axis neighbors exist and
    carry in-domain values; it is listed when its |f| strictly exceeds all of
    them.  Slice Fueter-regular fields must produce an empty list.
    """
    axes = grid.axes()
    counts = tuple(grid.counts)
    vals = np.full(counts, np.nan)
    flat = vals.reshape(-1)
    for start in range(0, flat.size, _SCAN_BLOCK):
        nodes = np.arange(start, min(start + _SCAN_BLOCK, flat.size))
        idx = np.unravel_index(nodes, counts)
        q = np.stack([axes[d][idx[d]] for d in range(4)], axis=1)
        # a stack of (1, 4) @ (4, 8) products rounds as `pair.embed` does
        pts = (q[:, None, :] @ pair.basis)[:, 0, :]
        inside = domain.contains_batch(pts)
        nodes, pts = nodes[inside], pts[inside]
        if len(nodes):
            values = f.evaluate_many(pts)
            flat[nodes] = np.sqrt(row_dot(values, values))
    core = vals[1:-1, 1:-1, 1:-1, 1:-1]
    strict = np.isfinite(core)
    for axis in range(4):
        for shift in (1, -1):
            neighbor = np.roll(vals, shift, axis=axis)[1:-1, 1:-1, 1:-1, 1:-1]
            strict &= np.isfinite(neighbor) & (core > neighbor)
    maxima = []
    for idx in np.argwhere(strict):
        full_idx = idx + 1
        maxima.append([float(axes[d][full_idx[d]]) for d in range(4)])
    return ScanReport(grid=list(counts), strict_maxima=maxima)

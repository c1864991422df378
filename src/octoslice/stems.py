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
    mul,
    mul_batch,
    orthogonal_unit,
    row_dot,
    tau,
    tau_rows,
)
from .diffops import (
    DEFAULT_SCHEME,
    FDScheme,
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
from .sampling import SamplePlan, Subsphere

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
    """Stem of a slice function as callables of the complex variable.

    `partials(z)` returns (du_dalpha, du_dbeta, dv_dalpha, dv_dbeta) or None
    where no closed form applies.
    """

    u: Callable[[complex], Octonion]
    v: Callable[[complex], Octonion]
    partials: Optional[
        Callable[[complex], Optional[tuple[Octonion, Octonion, Octonion, Octonion]]]
    ] = None


@dataclass
class BVResidual:
    """Residuals of the two Bers-Vekua equations; r1 is None on the real axis."""

    r1: Optional[Octonion]
    r2: Octonion

    @property
    def max_norm(self) -> float:
        n2 = self.r2.norm()
        return n2 if self.r1 is None else max(self.r1.norm(), n2)

    def to_json(self) -> dict:
        return {"r1": None if self.r1 is None else self.r1.to_list(), "r2": self.r2.to_list()}


def _slice_values(f: OctField, z: complex, units: tuple[UnitImaginary, ...]) -> list[Octonion]:
    """f at the slice points z_I of the given units, in one batch."""
    vals = f.evaluate_many(tau_rows(z.real, z.imag, np.stack([u.vec for u in units])))
    return [Octonion(v) for v in vals]


def stem_from_two_units(
    f: OctField,
    z: complex,
    i1: UnitImaginary,
    i2: UnitImaginary,
) -> StemVector:
    """Solve f(z_I1) = u + I1 v, f(z_I2) = u + I2 v for the stem at z.

    For beta > 0 this is the stem vector at z_I; for beta < 0 it returns the
    stem-function value (u, -v) of the mirrored stem vector, consistent with
    the even-odd convention.
    """
    z = complex(z)
    if abs(z.imag) <= REAL_AXIS_TOL:
        raise DomainError("z on the real axis: use the convention (f(z), 0) directly")
    sep = float(np.linalg.norm(i1.vec - i2.vec))
    if sep < SEP_MIN:
        raise ConditioningError(f"units too close for stable interpolation: |I1-I2| = {sep}")
    f1, f2 = _slice_values(f, z, (i1, i2))
    diff_units = i1.as_octonion() - i2.as_octonion()
    v = mul(diff_units.inv(), f1 - f2)
    u = f1 - mul(i1.as_octonion(), v)
    return StemVector(u, v)


def gamma_stem_rows(
    f: OctField,
    pts: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Stem vectors (u, v) at the off-axis rows of an (n, 8) array, as two (n, 8) arrays.

    u = f(x) - Gamma f(x) / 6 and v = (|Im x| / 6) Im(x)^{-1} (Gamma f(x)).
    """
    ims = pts[:, 1:]
    b = np.sqrt(row_dot(ims, ims))
    if (b <= 1e-9).any():
        raise DomainError("gamma stem extraction needs an off-axis point")
    g = gamma_batch(f, pts, scheme, use_closed)
    u = f.evaluate_many(pts) - g / 6.0
    v = mul_batch(imag_inverse(pts), g) * (b / 6.0)[:, None]
    return u, v


def stem_from_gamma(
    f: OctField,
    x: Octonion,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> StemVector:
    """Stem vector at one off-axis point from the Gamma identity."""
    u, v = gamma_stem_rows(f, x.coeffs[None, :], scheme, use_closed)
    return StemVector(Octonion(u[0]), Octonion(v[0]))


def reconstruct_third(
    f: OctField,
    z: complex,
    i1: UnitImaginary,
    i2: UnitImaginary,
    i3: UnitImaginary,
) -> Octonion:
    """Value of a slice function at z_I3 from its values at z_I1 and z_I2.

    f(z_I3) = (I3 - I2)((I1 - I2)^{-1} f(z_I1)) - (I3 - I1)((I1 - I2)^{-1} f(z_I2)).
    """
    z = complex(z)
    if abs(z.imag) <= REAL_AXIS_TOL:
        raise DomainError("z on the real axis: all slice values coincide there")
    sep = float(np.linalg.norm(i1.vec - i2.vec))
    if sep < SEP_MIN:
        raise ConditioningError(f"units too close for stable reconstruction: |I1-I2| = {sep}")
    q = (i1.as_octonion() - i2.as_octonion()).inv()
    f1, f2 = _slice_values(f, z, (i1, i2))
    o3 = i3.as_octonion()
    return mul(o3 - i2.as_octonion(), mul(q, f1)) - mul(o3 - i1.as_octonion(), mul(q, f2))


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
    stem = stem_from_two_units(f, complex(a, b), i1, i2)
    if z.imag < 0:
        stem = StemVector(stem.u, -stem.v)
    return stem


def bers_vekua_residual(
    stem: StemField,
    z: complex,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> BVResidual:
    """Residuals of the Bers-Vekua system for a stem at z.

    The first equation involves 2 v / beta and is reported as None on the
    real axis.
    """
    z = complex(z)
    parts = None
    if use_closed and stem.partials is not None:
        parts = stem.partials(z)
    if parts is None:
        h = scheme.step_scale * (1.0 + abs(z))
        du_da = (stem.u(z + h) - stem.u(z - h)) / (2.0 * h)
        du_db = (stem.u(z + h * 1j) - stem.u(z - h * 1j)) / (2.0 * h)
        dv_da = (stem.v(z + h) - stem.v(z - h)) / (2.0 * h)
        dv_db = (stem.v(z + h * 1j) - stem.v(z - h * 1j)) / (2.0 * h)
    else:
        du_da, du_db, dv_da, dv_db = parts
    r2 = du_db + dv_da
    if abs(z.imag) <= REAL_AXIS_TOL:
        return BVResidual(None, r2)
    r1 = du_da - dv_db - (2.0 / z.imag) * stem.v(z)
    return BVResidual(r1, r2)


def sfr_check(
    f: OctField,
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    subsphere: Optional[Subsphere] = None,
    tolerance: float = 1e-5,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> Report:
    """Sampled slice-Fueter regularity: sliceness plus dbar_F f = 0.

    The reported residual is the worst |dbar_F f| over stencil-safe interior
    samples; the verdict also requires the sliceness check to pass at 1e-6.
    """
    plan = plan or SamplePlan()
    slice_rep = sliceness_check(
        f, domain, plan, subsphere, tolerance=1e-6, scheme=scheme, use_closed=use_closed
    )
    rng = plan.rng()
    pts = domain.sample_interior(4 * plan.residual_samples, rng, min_im=plan.min_im)
    safe = []
    for p in pts:
        if len(safe) >= plan.residual_samples:
            break
        x = Octonion(p)
        if stencil_safe(domain, x, scheme.step(x.norm())):
            safe.append(p)
    if not safe:
        raise EmptySampleError("no stencil-safe off-axis samples in the domain")
    xs = np.array(safe)
    dbar = slice_fueter_batch(f, xs, scheme, use_closed)
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
        return cls(
            tuple(float(v) for v in data["center"]),
            tuple(float(v) for v in data["half_widths"]),
            tuple(int(v) for v in data["counts"]),
        )


def modulus_local_max_scan(
    f: OctField,
    pair: OrthoPair,
    grid: GridSpec,
    domain: Optional[Domain] = None,
) -> ScanReport:
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
        if domain is not None:
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

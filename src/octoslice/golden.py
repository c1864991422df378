"""Reference fields with known stems, domains, and closed-form derivatives.

Two structured examples drive most verification:

  * the slab-cone field, zero on the slab and +/- x (|Im x| - 1) on the two
    cones around +/- I0, whose stems over a fixed z differ by sign between
    the cone components;
  * the square-root field on a chain of balls winding around the real axis,
    a slice Fueter-regular function whose two ends over z = -1 + 2i carry
    genuinely different stems.

Baseline fields (constant, identity, gaussian, coordinate probe, affine
slice field) cover the cheap positive and negative cases.  Everything is
registered by name for the command-line tools.

Each field is written once, as the batched kernels of `OctField`: values
and closed-form partials of (n, 8) points.  Like every kernel of the
package they round row by row as the one-point arithmetic would, so libm
functions (exp, atan2, sin, cos, sqrt) and `**` are computed per row on
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Octonion, UnitImaginary, row_dot
from .diffops import OctField
from .domains import Ball, BallChain, Domain, SlabCone
from .errors import ConditioningError, DomainError
from .stems import StemField

_COS_HALF = math.cos(math.pi / 4.0)
_EYE = np.eye(8)
_E0 = _EYE[0]


@dataclass
class GoldenField:
    name: str
    field: OctField
    domain: Domain
    stem: Optional[StemField] = None


def _scalar_rows(values: np.ndarray) -> np.ndarray:
    """Rows v e0, each as `v * Octonion.one()` rounds it, for an (n,) array of reals."""
    return _E0 * values[:, None]


def _tiled(block: np.ndarray, n: int) -> np.ndarray:
    return np.tile(block, (n,) + (1,) * block.ndim)


def _im_norms(pts: np.ndarray) -> np.ndarray:
    ims = pts[:, 1:]
    return np.sqrt(row_dot(ims, ims))


# ---------------------------------------------------------------------------
# Slab-cone field


def slab_cone_stem(zs, branch: int) -> tuple[np.ndarray, np.ndarray]:
    """Stems (u, v) of the slab-cone field at rows of z, on the branch through +I0 or -I0.

    branch = +1 selects the cone around I0, branch = -1 the cone around -I0.
    Values at beta < 0 follow the even-odd convention (u, -v).
    """
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    zs = np.asarray(zs, dtype=complex)
    alpha, beta = zs.real, np.abs(zs.imag)
    cone = ~(beta < 1.0)
    u = _scalar_rows(np.where(cone, branch * alpha * (beta - 1.0), 0.0))
    v = _scalar_rows(np.where(cone, branch * beta * (beta - 1.0), 0.0))
    return u, np.where((cone & (zs.imag < 0))[:, None], -v, v)


def slab_cone_field(i0: Optional[UnitImaginary] = None) -> GoldenField:
    i0 = i0 or UnitImaginary.basis(1)
    domain = SlabCone(i0)
    axis = i0.vec

    def branch_signs(pts: np.ndarray, b: np.ndarray) -> np.ndarray:
        # +1 in the cone around I0, -1 in the cone around -I0
        cosang = row_dot(pts[:, 1:], axis) / b
        signs = np.where(cosang > _COS_HALF, 1.0, np.where(cosang < -_COS_HALF, -1.0, 0.0))
        if not signs.all():
            raise DomainError("point lies outside the slab-cone domain")
        return signs

    def evaluate_many(pts: np.ndarray) -> np.ndarray:
        b = _im_norms(pts)
        out = np.zeros(pts.shape)
        cone = ~(b < 1.0)
        x, bc = pts[cone], b[cone]
        out[cone] = x * (branch_signs(x, bc) * (bc - 1.0))[:, None]
        return out

    def partials_many(pts: np.ndarray) -> np.ndarray:
        b = _im_norms(pts)
        parts = np.zeros((len(pts), 8, 8))
        cone = ~(b < 1.0)
        # no closed form on the seam |Im x| = 1 between slab and cones
        seam = cone & (np.abs(b - 1.0) <= 1e-12)
        parts[seam] = np.nan
        live = cone & ~seam
        x, bl = pts[live], b[live]
        s = branch_signs(x, bl)
        rows = np.empty((len(x), 8, 8))
        rows[:, 0] = _scalar_rows(s * (bl - 1.0))
        radial = (x[:, 1:] / bl[:, None])[:, :, None] * x[:, None, :]
        rows[:, 1:] = (radial + _EYE[1:] * (bl - 1.0)[:, None, None]) * s[:, None, None]
        parts[live] = rows
        return parts

    return GoldenField("slab-cone", OctField("slab-cone", evaluate_many, partials_many), domain)


# ---------------------------------------------------------------------------
# Square-root field on the ball chain

_CUT_MARGIN = 0.02


def _sqrt_uv(z: complex) -> tuple[float, float]:
    """Main-branch stem of the square-root field at z = alpha + beta i."""
    a, b = z.real, z.imag
    w = complex(a, b - 2.0)
    big_r = abs(w)
    if big_r < 1e-12 or abs(b) < 1e-12:
        raise ConditioningError("stem formula degenerates at z = 2i or beta = 0")
    half = math.atan2(w.imag, w.real) / 2.0
    s, c = math.sin(half), math.cos(half)
    r32 = big_r ** 1.5
    u = ((b - 2.0) * c - a * s) / (b * r32)
    v = (a * c + (b - 2.0) * s) / (b * r32) - 2.0 * math.sqrt(big_r) * s / (b * b)
    return u, v


def _sqrt_uv_tilde(z: complex) -> tuple[float, float]:
    """Continuation of the stem across the beta = 2 line, alpha < 0."""
    a, b = z.real, z.imag
    if abs(b - 2.0) <= 1e-12:
        if a >= 0:
            raise ConditioningError("continued branch is only defined left of 2i")
        return 0.5 / math.sqrt(-a), -0.5 * math.sqrt(-a)
    sgn = 1.0 if b > 2.0 else -1.0
    u, v = _sqrt_uv(z)
    return sgn * u, sgn * v


def _sqrt_partials_raw(z: complex) -> tuple[float, float, float, float]:
    a, b = z.real, z.imag
    w = complex(a, b - 2.0)
    big_r = abs(w)
    half = math.atan2(w.imag, w.real) / 2.0
    r32 = big_r ** 1.5
    sqr = math.sqrt(big_r)
    du_da = -math.sin(3.0 * half) / (2.0 * b * r32)
    dv_da = -math.cos(3.0 * half) / (2.0 * b * r32) + math.sin(half) / (b * b * sqr)
    du_db = math.cos(3.0 * half) / (2.0 * b * r32) - math.sin(half) / (b * b * sqr)
    dv_db = (
        -math.sin(3.0 * half) / (2.0 * b * r32)
        - 2.0 * math.cos(half) / (b * b * sqr)
        + 4.0 * sqr * math.sin(half) / (b ** 3)
    )
    return du_da, du_db, dv_da, dv_db


def sqrt_stem_main() -> StemField:
    """Main-branch stem of the square-root field, with closed partials off the cut margin."""

    def values_many(zs: np.ndarray):
        uv = np.array([_sqrt_uv(z) for z in zs.tolist()]).reshape(-1, 2)
        return _scalar_rows(uv[:, 0]), _scalar_rows(uv[:, 1])

    def partials_many(zs: np.ndarray) -> np.ndarray:
        a, b = zs.real, zs.imag
        near_cut = ((a < _CUT_MARGIN) & (np.abs(b - 2.0) < _CUT_MARGIN)) | (np.abs(b) < 0.05)
        parts = np.full((len(zs), 4, 8), np.nan)
        raw = np.array([_sqrt_partials_raw(z) for z in zs[~near_cut].tolist()]).reshape(-1, 4)
        parts[~near_cut] = _E0 * raw[:, :, None]
        return parts

    return StemField(values_many, partials_many)


def sqrt_sfr_field(
    i: Optional[UnitImaginary] = None, j: Optional[UnitImaginary] = None
) -> GoldenField:
    i = i or UnitImaginary.basis(1)
    j = j or UnitImaginary.basis(2)
    domain = BallChain(i, j)
    cutoff = 5.0 * math.pi / 6.0

    def branch_rows(pts: np.ndarray):
        """Per row: |Im x|, the unit Im(x) / |Im x| as a row, and the branch's
        stem (u, v) and derivative sign, from the nearest chain ball's theta."""
        thetas, dists = domain.nearest_thetas(pts)
        if (dists >= domain.RADIUS).any():
            raise DomainError("point lies outside the ball chain")
        b = _im_norms(pts)
        units = np.zeros(pts.shape)
        units[:, 1:] = pts[:, 1:] / b[:, None]
        stems = np.empty((len(pts), 3))
        for r, (a, beta, theta) in enumerate(zip(pts[:, 0].tolist(), b.tolist(), thetas.tolist())):
            z = complex(a, beta)
            if abs(theta) <= cutoff:
                stems[r] = _sqrt_uv(z) + (1.0,)
                continue
            # past the cutoff: the branch continued across Im z = 2, sign-flipped
            # below -cutoff; on Im z = 2 itself atan2(+0.0, alpha < 0) = pi, the
            # limit from above
            u, v = _sqrt_uv_tilde(z)
            sgn = 1.0 if beta - 2.0 >= 0.0 else -1.0
            stems[r] = (-u, -v, -sgn) if theta < -cutoff else (u, v, sgn)
        return (b, units, *stems.T)

    def evaluate_many(pts: np.ndarray) -> np.ndarray:
        _, units, u, v, _ = branch_rows(pts)
        return _scalar_rows(u) + units * v[:, None]

    def partials_many(pts: np.ndarray) -> np.ndarray:
        b, units, _, v, sgn = branch_rows(pts)
        zs = [complex(a, beta) for a, beta in zip(pts[:, 0].tolist(), b.tolist())]
        raw = np.array([_sqrt_partials_raw(z) for z in zs]).reshape(-1, 4)
        du_da, du_db, dv_da, dv_db = (sgn[:, None] * raw).T
        b3 = np.array([z.imag ** 3 for z in zs])
        im = pts.copy()
        im[:, 0] = 0.0
        xb = pts[:, 1:] / b[:, None]
        # d(Im x / |Im x|) / dx_k = e_k / b - (x_k / b^3) Im x
        dunit = _EYE[1:] * (1.0 / b)[:, None, None]
        dunit = dunit - im[:, None, :] * (pts[:, 1:] / b3[:, None])[:, :, None]
        parts = np.empty((len(pts), 8, 8))
        parts[:, 0] = _scalar_rows(du_da) + units * dv_da[:, None]
        parts[:, 1:] = (
            _E0 * (xb * du_db[:, None])[:, :, None]
            + dunit * v[:, None, None]
            + units[:, None, :] * (xb * dv_db[:, None])[:, :, None]
        )
        return parts

    field = OctField("sqrt-example", evaluate_many, partials_many)
    return GoldenField("sqrt-example", field, domain, stem=sqrt_stem_main())


# ---------------------------------------------------------------------------
# Baseline fields

_CONSTANT = np.array([0.7, 0.0, -0.3, 0.0, 0.2, 0.0, 0.0, 0.1])


def _linear_stem(u_rows, v_rows, partials: np.ndarray) -> StemField:
    """A stem with constant partials: (du/dalpha, du/dbeta, dv/dalpha, dv/dbeta) as (4, 8)."""
    return StemField(
        lambda zs: (u_rows(zs), v_rows(zs)),
        lambda zs: _tiled(partials, len(zs)),
    )


def _zero_rows(zs: np.ndarray) -> np.ndarray:
    return np.zeros((len(zs), 8))


def constant_field() -> GoldenField:
    field = OctField(
        "constant",
        lambda pts: _tiled(_CONSTANT, len(pts)),
        lambda pts: np.zeros((len(pts), 8, 8)),
    )
    stem = _linear_stem(lambda zs: _tiled(_CONSTANT, len(zs)), _zero_rows, np.zeros((4, 8)))
    return GoldenField("constant", field, Ball(Octonion.zero(), 3.0), stem=stem)


def identity_field() -> GoldenField:
    field = OctField("identity", lambda pts: pts.copy(), lambda pts: _tiled(_EYE, len(pts)))
    stem = _linear_stem(
        lambda zs: _scalar_rows(zs.real),
        lambda zs: _scalar_rows(zs.imag),
        _scalar_rows(np.array([1.0, 0.0, 0.0, 1.0])),
    )
    return GoldenField("identity", field, Ball(Octonion.zero(), 3.0), stem=stem)


def gaussian_field() -> GoldenField:
    def evaluate_many(pts: np.ndarray) -> np.ndarray:
        sq = row_dot(pts, pts).tolist()
        return _scalar_rows(np.array([math.exp(-t) for t in sq]))

    def partials_many(pts: np.ndarray) -> np.ndarray:
        return evaluate_many(pts)[:, None, :] * (-2.0 * pts)[:, :, None]

    field = OctField("gaussian", evaluate_many, partials_many)

    def values_many(zs: np.ndarray):
        exps = [math.exp(-(a ** 2 + b ** 2)) for a, b in zip(zs.real.tolist(), zs.imag.tolist())]
        return _scalar_rows(np.array(exps)), _zero_rows(zs)

    def stem_partials_many(zs: np.ndarray) -> np.ndarray:
        u, _ = values_many(zs)
        parts = np.zeros((len(zs), 4, 8))
        parts[:, 0] = _scalar_rows(-2.0 * zs.real * u[:, 0])
        parts[:, 1] = _scalar_rows(-2.0 * zs.imag * u[:, 0])
        return parts

    stem = StemField(values_many, stem_partials_many)
    return GoldenField("gaussian", field, Ball(Octonion.zero(), 3.0), stem=stem)


def coord_probe_field() -> GoldenField:
    """f(x) = x_1 as a real scalar: a non-slice control field."""
    probe_partials = np.zeros((8, 8))
    probe_partials[1, 0] = 1.0
    field = OctField(
        "coord-probe",
        lambda pts: _scalar_rows(pts[:, 1]),
        lambda pts: _tiled(probe_partials, len(pts)),
    )
    return GoldenField("coord-probe", field, Ball(Octonion.zero(), 3.0))


def affine_regular_field() -> GoldenField:
    """f(x) = 3 Re(x) + Im(x): an entire nonconstant slice Fueter-regular field."""

    def evaluate_many(pts: np.ndarray) -> np.ndarray:
        im = pts.copy()
        im[:, 0] = 0.0
        return _scalar_rows(3.0 * pts[:, 0]) + im

    affine_partials = np.eye(8)
    affine_partials[0, 0] = 3.0
    field = OctField("affine-regular", evaluate_many, lambda pts: _tiled(affine_partials, len(pts)))
    stem = _linear_stem(
        lambda zs: _scalar_rows(3.0 * zs.real),
        lambda zs: _scalar_rows(zs.imag),
        _scalar_rows(np.array([3.0, 0.0, 0.0, 1.0])),
    )
    return GoldenField("affine-regular", field, Ball(Octonion.zero(), 3.0), stem=stem)


_BUILDERS = {
    "slab-cone": slab_cone_field,
    "sqrt-example": sqrt_sfr_field,
    "constant": constant_field,
    "identity": identity_field,
    "gaussian": gaussian_field,
    "coord-probe": coord_probe_field,
    "affine-regular": affine_regular_field,
}


def field_names() -> list[str]:
    return sorted(_BUILDERS)


def get_field(name: str, **kwargs) -> GoldenField:
    if name not in _BUILDERS:
        raise DomainError(f"unknown field {name!r}; known: {', '.join(field_names())}")
    return _BUILDERS[name](**kwargs)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Octonion, UnitImaginary, unit_imaginary_of
from .diffops import OctField
from .domains import Ball, BallChain, Domain, SlabCone
from .errors import ConditioningError, DomainError
from .stems import StemField, StemVector

_COS_HALF = math.cos(math.pi / 4.0)


@dataclass
class GoldenField:
    name: str
    field: OctField
    domain: Domain
    stem: Optional[StemField] = None


def _scalar(value: float) -> Octonion:
    return float(value) * Octonion.one()


# ---------------------------------------------------------------------------
# Slab-cone field


def slab_cone_stem(z: complex, branch: int) -> StemVector:
    """Stem of the slab-cone field at z on the branch through +I0 or -I0.

    branch = +1 selects the cone around I0, branch = -1 the cone around -I0.
    Values at beta < 0 follow the even-odd convention (u, -v).
    """
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    alpha, beta = z.real, abs(z.imag)
    if beta < 1.0:
        return StemVector(Octonion.zero(), Octonion.zero())
    u = _scalar(branch * alpha * (beta - 1.0))
    v = _scalar(branch * beta * (beta - 1.0))
    if z.imag < 0:
        v = -v
    return StemVector(u, v)


def slab_cone_field(i0: Optional[UnitImaginary] = None) -> GoldenField:
    i0 = i0 or UnitImaginary.basis(1)
    domain = SlabCone(i0)
    axis = i0.vec

    def branch_sign(x: Octonion) -> int:
        b = x.im_norm
        cosang = float(x.coeffs[1:] @ axis) / b
        if cosang > _COS_HALF:
            return 1
        if cosang < -_COS_HALF:
            return -1
        raise DomainError("point lies outside the slab-cone domain")

    def evaluate(x: Octonion) -> Octonion:
        b = x.im_norm
        if b < 1.0:
            return Octonion.zero()
        return branch_sign(x) * (b - 1.0) * x

    def closed_partial(x: Octonion, axis_idx: int) -> Optional[Octonion]:
        b = x.im_norm
        if b < 1.0:
            return Octonion.zero()
        if abs(b - 1.0) <= 1e-12:
            return None
        s = branch_sign(x)
        if axis_idx == 0:
            return _scalar(s * (b - 1.0))
        xk = float(x.coeffs[axis_idx])
        return s * ((xk / b) * x + (b - 1.0) * Octonion.basis(axis_idx))

    field = OctField("slab-cone", evaluate, closed_partial, smoothness="piecewise")
    return GoldenField("slab-cone", field, domain)


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


def _near_cut(z: complex) -> bool:
    w = complex(z.real, z.imag - 2.0)
    return (w.real < _CUT_MARGIN and abs(w.imag) < _CUT_MARGIN) or abs(z.imag) < 0.05


def sqrt_stem_main() -> StemField:
    """Main-branch stem of the square-root field, with closed partials."""

    def u_fn(z: complex) -> Octonion:
        return _scalar(_sqrt_uv(z)[0])

    def v_fn(z: complex) -> Octonion:
        return _scalar(_sqrt_uv(z)[1])

    def partials(z: complex):
        if _near_cut(z):
            return None
        return tuple(_scalar(p) for p in _sqrt_partials_raw(z))

    return StemField(u_fn, v_fn, partials)


def sqrt_sfr_field(
    i: Optional[UnitImaginary] = None, j: Optional[UnitImaginary] = None
) -> GoldenField:
    i = i or UnitImaginary.basis(1)
    j = j or UnitImaginary.basis(2)
    domain = BallChain(i, j)
    cutoff = 5.0 * math.pi / 6.0

    def branch_uv(x: Octonion) -> tuple[float, float, float]:
        theta, dist = domain.nearest_theta(x)
        if dist >= domain.RADIUS:
            raise DomainError("point lies outside the ball chain")
        b = x.im_norm
        z = complex(x.re, b)
        if abs(theta) <= cutoff:
            u, v = _sqrt_uv(z)
            return u, v, 1.0
        u, v = _sqrt_uv_tilde(z)
        if theta > cutoff:
            return u, v, 1.0
        return -u, -v, -1.0

    def evaluate(x: Octonion) -> Octonion:
        u, v, _ = branch_uv(x)
        return _scalar(u) + v * unit_imaginary_of(x).as_octonion()

    def closed_partial(x: Octonion, axis_idx: int) -> Optional[Octonion]:
        theta, dist = domain.nearest_theta(x)
        if dist >= domain.RADIUS:
            raise DomainError("point lies outside the ball chain")
        b = x.im_norm
        z = complex(x.re, b)
        if abs(theta) <= cutoff:
            sgn = 1.0
        else:
            if abs(b - 2.0) <= 1e-12:
                return None
            sgn = 1.0 if b > 2.0 else -1.0
            if theta < -cutoff:
                sgn = -sgn
        du_da, du_db, dv_da, dv_db = (sgn * p for p in _sqrt_partials_raw(z))
        _, v, flip = branch_uv(x)
        unit = unit_imaginary_of(x).as_octonion()
        if axis_idx == 0:
            return _scalar(du_da) + dv_da * unit
        xk = float(x.coeffs[axis_idx])
        im = x.imag_part()
        dunit = (1.0 / b) * Octonion.basis(axis_idx) - (xk / b ** 3) * im
        return _scalar((xk / b) * du_db) + v * dunit + (xk / b) * dv_db * unit

    field = OctField("sqrt-example", evaluate, closed_partial)
    return GoldenField("sqrt-example", field, domain, stem=sqrt_stem_main())


# ---------------------------------------------------------------------------
# Baseline fields

_CONSTANT = np.array([0.7, 0.0, -0.3, 0.0, 0.2, 0.0, 0.0, 0.1])


def _const_stem(value: Octonion) -> StemField:
    zero4 = (Octonion.zero(),) * 4
    return StemField(lambda z: value, lambda z: Octonion.zero(), lambda z: zero4)


def constant_field() -> GoldenField:
    value = Octonion(_CONSTANT)
    field = OctField(
        "constant",
        lambda x: value,
        lambda x, axis: Octonion.zero(),
    )
    return GoldenField("constant", field, Ball(Octonion.zero(), 3.0), stem=_const_stem(value))


def identity_field() -> GoldenField:
    field = OctField(
        "identity",
        lambda x: x,
        lambda x, axis: Octonion.basis(axis),
    )
    one, zero = Octonion.one(), Octonion.zero()
    stem = StemField(
        lambda z: _scalar(z.real),
        lambda z: _scalar(z.imag),
        lambda z: (one, zero, zero, one),
    )
    return GoldenField("identity", field, Ball(Octonion.zero(), 3.0), stem=stem)


def gaussian_field() -> GoldenField:
    def evaluate(x: Octonion) -> Octonion:
        return _scalar(math.exp(-float(x.coeffs @ x.coeffs)))

    def closed_partial(x: Octonion, axis: int) -> Octonion:
        return -2.0 * float(x.coeffs[axis]) * evaluate(x)

    field = OctField("gaussian", evaluate, closed_partial)

    def u_fn(z: complex) -> Octonion:
        return _scalar(math.exp(-(z.real ** 2 + z.imag ** 2)))

    def partials(z: complex):
        e = math.exp(-(z.real ** 2 + z.imag ** 2))
        zero = Octonion.zero()
        return (_scalar(-2.0 * z.real * e), _scalar(-2.0 * z.imag * e), zero, zero)

    stem = StemField(u_fn, lambda z: Octonion.zero(), partials)
    return GoldenField("gaussian", field, Ball(Octonion.zero(), 3.0), stem=stem)


def coord_probe_field() -> GoldenField:
    """f(x) = x_1 as a real scalar: a non-slice control field."""
    field = OctField(
        "coord-probe",
        lambda x: _scalar(float(x.coeffs[1])),
        lambda x, axis: Octonion.one() if axis == 1 else Octonion.zero(),
    )
    return GoldenField("coord-probe", field, Ball(Octonion.zero(), 3.0))


def affine_regular_field() -> GoldenField:
    """f(x) = 3 Re(x) + Im(x): an entire nonconstant slice Fueter-regular field."""

    def evaluate(x: Octonion) -> Octonion:
        return _scalar(3.0 * x.re) + x.imag_part()

    def closed_partial(x: Octonion, axis: int) -> Octonion:
        if axis == 0:
            return _scalar(3.0)
        return Octonion.basis(axis)

    field = OctField("affine-regular", evaluate, closed_partial)
    one, zero = Octonion.one(), Octonion.zero()
    stem = StemField(
        lambda z: _scalar(3.0 * z.real),
        lambda z: _scalar(z.imag),
        lambda z: (3.0 * one, zero, zero, one),
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

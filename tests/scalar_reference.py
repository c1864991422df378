"""One-point references for the batched numeric core.

These are the scalar implementations the package ran before every field
became one batched kernel: each golden field's `evaluate` and
`closed_partial` on single `Octonion`s, the central difference of one point
and one axis, Gamma, the Euler and slice Fueter operators assembled one
`mul` at a time, the per-stencil Cauchy-Fueter and Laplacian loops, and the
stem routines one point and one member at a time.  The stems are
their one-point callables: u, v and the closed partials of one complex
point, with None where no closed form applies, and the Bers-Vekua residual
with its one-point central difference.  The batched code must
reproduce them to the bit: `same_bits` compares values and the signs of
zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from octoslice.algebra import Octonion, UnitImaginary, mul, tau, tau_rows, unit_imaginary_of
from octoslice.diffops import DERIVATION_PAIRS, FD_STEP, FD_STEP2
from octoslice.domains import BallChain
from octoslice.errors import DomainError
from octoslice.golden import _CONSTANT, _CUT_MARGIN, _sqrt_partials_raw, _sqrt_uv, _sqrt_uv_tilde
from octoslice.stems import StemVector

_BASIS = [Octonion.basis(k) for k in range(8)]
_COS_HALF = math.cos(math.pi / 4.0)


def _scalar(value: float) -> Octonion:
    return float(value) * Octonion.one()


def same_bits(a, b) -> bool:
    """Equal arrays, down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)))


@dataclass
class ScalarField:
    evaluate: Callable[[Octonion], Octonion]
    closed_partial: Optional[Callable[[Octonion, int], Optional[Octonion]]] = None


# ---------------------------------------------------------------------------
# Golden fields, one point at a time


def _slab_cone(i0: Optional[UnitImaginary] = None) -> ScalarField:
    axis = (i0 or UnitImaginary.basis(1)).vec

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

    return ScalarField(evaluate, closed_partial)


def _sqrt_example(i: Optional[UnitImaginary] = None, j: Optional[UnitImaginary] = None) -> ScalarField:
    domain = BallChain(i or UnitImaginary.basis(1), j or UnitImaginary.basis(2))
    cutoff = 5.0 * math.pi / 6.0

    def nearest_theta(x: Octonion) -> tuple[float, float]:
        dist, idx = domain._tree.query(x.coeffs)
        return float(domain.thetas[int(idx)]), float(dist)

    def branch_uv(x: Octonion) -> tuple[float, float, float]:
        theta, dist = nearest_theta(x)
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

    def closed_partial(x: Octonion, axis_idx: int) -> Octonion:
        theta, dist = nearest_theta(x)
        if dist >= domain.RADIUS:
            raise DomainError("point lies outside the ball chain")
        b = x.im_norm
        z = complex(x.re, b)
        if abs(theta) <= cutoff:
            sgn = 1.0
        else:
            sgn = 1.0 if b - 2.0 >= 0.0 else -1.0
            if theta < -cutoff:
                sgn = -sgn
        du_da, du_db, dv_da, dv_db = (sgn * p for p in _sqrt_partials_raw(z))
        _, v, _ = branch_uv(x)
        unit = unit_imaginary_of(x).as_octonion()
        if axis_idx == 0:
            return _scalar(du_da) + dv_da * unit
        xk = float(x.coeffs[axis_idx])
        im = x.imag_part()
        dunit = (1.0 / b) * Octonion.basis(axis_idx) - (xk / b ** 3) * im
        return _scalar((xk / b) * du_db) + v * dunit + (xk / b) * dv_db * unit

    return ScalarField(evaluate, closed_partial)


def _gaussian() -> ScalarField:
    def evaluate(x: Octonion) -> Octonion:
        return _scalar(math.exp(-float(x.coeffs @ x.coeffs)))

    return ScalarField(evaluate, lambda x, axis: -2.0 * float(x.coeffs[axis]) * evaluate(x))


def _affine_regular() -> ScalarField:
    return ScalarField(
        lambda x: _scalar(3.0 * x.re) + x.imag_part(),
        lambda x, axis: _scalar(3.0) if axis == 0 else Octonion.basis(axis),
    )


_SCALAR_BUILDERS = {
    "slab-cone": _slab_cone,
    "sqrt-example": _sqrt_example,
    "constant": lambda: ScalarField(lambda x: Octonion(_CONSTANT), lambda x, axis: Octonion.zero()),
    "identity": lambda: ScalarField(lambda x: x, lambda x, axis: Octonion.basis(axis)),
    "gaussian": _gaussian,
    "coord-probe": lambda: ScalarField(
        lambda x: _scalar(float(x.coeffs[1])),
        lambda x, axis: Octonion.one() if axis == 1 else Octonion.zero(),
    ),
    "affine-regular": _affine_regular,
}


def scalar_field(name: str, **kwargs) -> ScalarField:
    """The one-point form of the golden field `name`."""
    return _SCALAR_BUILDERS[name](**kwargs)


# ---------------------------------------------------------------------------
# Derivatives and operators


def central_diff(sf: ScalarField, x: Octonion, axis: int, h: float) -> Octonion:
    c = x.coeffs
    hi = c.copy()
    hi[axis] += h
    lo = c.copy()
    lo[axis] -= h
    return (sf.evaluate(Octonion(hi)) - sf.evaluate(Octonion(lo))) / (2.0 * h)


def ref_partial(sf: ScalarField, x: Octonion, axis: int, use_closed: bool = True) -> Octonion:
    if use_closed and sf.closed_partial is not None:
        val = sf.closed_partial(x, axis)
        if val is not None:
            return val
    return central_diff(sf, x, axis, FD_STEP * (1.0 + x.norm()))


def ref_partials(sf: ScalarField, x: Octonion, axes, use_closed: bool = True) -> dict:
    return {k: ref_partial(sf, x, k, use_closed) for k in axes}


def ref_gamma_from_partials(x: Octonion, parts: dict) -> Octonion:
    c = x.coeffs
    out = Octonion.zero()
    for m, n in DERIVATION_PAIRS:
        lmn = float(c[m]) * parts[n] - float(c[n]) * parts[m]
        out = out + mul(_BASIS[m], mul(_BASIS[n], lmn))
    return -out


def ref_gamma(sf: ScalarField, x: Octonion, use_closed: bool = True) -> Octonion:
    return ref_gamma_from_partials(x, ref_partials(sf, x, range(1, 8), use_closed))


def ref_euler(sf: ScalarField, x: Octonion, use_closed: bool = True) -> Octonion:
    parts = ref_partials(sf, x, range(1, 8), use_closed)
    out = Octonion.zero()
    for l in range(1, 8):
        out = out + float(x.coeffs[l]) * parts[l]
    return out


def ref_slice_fueter(sf: ScalarField, x: Octonion, use_closed: bool = True) -> Octonion:
    parts = ref_partials(sf, x, range(0, 8), use_closed)
    e_term = Octonion.zero()
    for l in range(1, 8):
        e_term = e_term + float(x.coeffs[l]) * parts[l]
    gamma = ref_gamma_from_partials(x, parts)
    inv_im = x.imag_part().inv()
    return parts[0] - mul(inv_im, e_term) - mul(inv_im, gamma) / 3.0


def ref_cauchy_fueter(sf: ScalarField, pair, q) -> Octonion:
    q = np.asarray(q, dtype=float)
    h = FD_STEP * (1.0 + float(np.linalg.norm(q)))
    derivs = []
    for k in range(4):
        hi = q.copy()
        hi[k] += h
        lo = q.copy()
        lo[k] -= h
        derivs.append((sf.evaluate(pair.embed(hi)) - sf.evaluate(pair.embed(lo))) / (2.0 * h))
    units = [Octonion.one(), pair.i.as_octonion(), pair.j.as_octonion(), pair.k.as_octonion()]
    out = derivs[0]
    for k in range(1, 4):
        out = out + mul(units[k], derivs[k])
    return out


def ref_quaternion_laplacian(sf: ScalarField, pair, q) -> Octonion:
    q = np.asarray(q, dtype=float)
    h = FD_STEP2 * (1.0 + float(np.linalg.norm(q)))
    center = sf.evaluate(pair.embed(q))
    out = Octonion.zero()
    for k in range(4):
        hi = q.copy()
        hi[k] += h
        lo = q.copy()
        lo[k] -= h
        out = out + (sf.evaluate(pair.embed(hi)) - 2.0 * center + sf.evaluate(pair.embed(lo))) / (h * h)
    return out


# ---------------------------------------------------------------------------
# Stems


def ref_stem_from_gamma(sf: ScalarField, x: Octonion, use_closed: bool = True) -> StemVector:
    b = x.im_norm
    g = ref_gamma(sf, x, use_closed)
    u = sf.evaluate(x) - g / 6.0
    v = (b / 6.0) * mul(x.imag_part().inv(), g)
    return StemVector(u, v)


def ref_stem_from_two_units(sf: ScalarField, z: complex, i1, i2) -> StemVector:
    f1 = sf.evaluate(tau(i1, z))
    f2 = sf.evaluate(tau(i2, z))
    v = mul((i1.as_octonion() - i2.as_octonion()).inv(), f1 - f2)
    return StemVector(f1 - mul(i1.as_octonion(), v), v)


def ref_reconstruct_third(sf: ScalarField, z: complex, i1, i2, i3) -> Octonion:
    q = (i1.as_octonion() - i2.as_octonion()).inv()
    f1 = sf.evaluate(tau(i1, z))
    f2 = sf.evaluate(tau(i2, z))
    o3 = i3.as_octonion()
    return mul(o3 - i2.as_octonion(), mul(q, f1)) - mul(o3 - i1.as_octonion(), mul(q, f2))


def ref_member_stems(sf: ScalarField, q, class_id: int, use_closed: bool = True) -> list[StemVector]:
    """The per-member loop of `quotient_stem`: one Gamma stem per member unit."""
    cls = q.classes[class_id]
    beta = cls.z.imag
    stems = []
    for x in tau_rows(cls.z.real, beta, q.units[list(cls.unit_ids)]):
        s = ref_stem_from_gamma(sf, Octonion(x), use_closed)
        stems.append(StemVector(s.u, -s.v) if beta < 0 else s)
    return stems


def ref_slab_cone_stem(z: complex, branch: int) -> StemVector:
    alpha, beta = z.real, abs(z.imag)
    if beta < 1.0:
        return StemVector(Octonion.zero(), Octonion.zero())
    u = _scalar(branch * alpha * (beta - 1.0))
    v = _scalar(branch * beta * (beta - 1.0))
    if z.imag < 0:
        v = -v
    return StemVector(u, v)


# ---------------------------------------------------------------------------
# Stems of one complex point


@dataclass
class ScalarStem:
    u: Callable[[complex], Octonion]
    v: Callable[[complex], Octonion]
    partials: Callable[[complex], Optional[tuple[Octonion, Octonion, Octonion, Octonion]]]


def _near_cut(z: complex) -> bool:
    w = complex(z.real, z.imag - 2.0)
    return (w.real < _CUT_MARGIN and abs(w.imag) < _CUT_MARGIN) or abs(z.imag) < 0.05


def _sqrt_stem() -> ScalarStem:
    def partials(z: complex):
        if _near_cut(z):
            return None
        return tuple(_scalar(p) for p in _sqrt_partials_raw(z))

    return ScalarStem(lambda z: _scalar(_sqrt_uv(z)[0]), lambda z: _scalar(_sqrt_uv(z)[1]), partials)


def _gaussian_stem() -> ScalarStem:
    def partials(z: complex):
        e = math.exp(-(z.real ** 2 + z.imag ** 2))
        zero = Octonion.zero()
        return (_scalar(-2.0 * z.real * e), _scalar(-2.0 * z.imag * e), zero, zero)

    return ScalarStem(
        lambda z: _scalar(math.exp(-(z.real ** 2 + z.imag ** 2))), lambda z: Octonion.zero(), partials
    )


def _linear_stem(u, v, slope: float) -> ScalarStem:
    one, zero = Octonion.one(), Octonion.zero()
    return ScalarStem(u, v, lambda z: (slope * one, zero, zero, one))


_SCALAR_STEMS = {
    "sqrt-example": _sqrt_stem,
    "constant": lambda: ScalarStem(
        lambda z: Octonion(_CONSTANT), lambda z: Octonion.zero(), lambda z: (Octonion.zero(),) * 4
    ),
    "identity": lambda: _linear_stem(lambda z: _scalar(z.real), lambda z: _scalar(z.imag), 1.0),
    "gaussian": _gaussian_stem,
    "affine-regular": lambda: _linear_stem(lambda z: _scalar(3.0 * z.real), lambda z: _scalar(z.imag), 3.0),
}


def scalar_stem(name: str) -> ScalarStem:
    """The one-point form of the closed stem of the golden field `name`."""
    return _SCALAR_STEMS[name]()


def ref_stem_partials(stem: ScalarStem, z: complex, use_closed: bool = True) -> tuple:
    """(du/dalpha, du/dbeta, dv/dalpha, dv/dbeta) at z: closed, else central differences."""
    parts = stem.partials(z) if use_closed else None
    if parts is not None:
        return parts
    h = FD_STEP * (1.0 + abs(z))
    return (
        (stem.u(z + h) - stem.u(z - h)) / (2.0 * h),
        (stem.u(z + h * 1j) - stem.u(z - h * 1j)) / (2.0 * h),
        (stem.v(z + h) - stem.v(z - h)) / (2.0 * h),
        (stem.v(z + h * 1j) - stem.v(z - h * 1j)) / (2.0 * h),
    )


def ref_bers_vekua(stem: ScalarStem, z: complex, use_closed: bool = True):
    """(r1, r2) of the Bers-Vekua system at z; r1 is None on the real axis."""
    du_da, du_db, dv_da, dv_db = ref_stem_partials(stem, z, use_closed)
    r2 = du_db + dv_da
    if abs(z.imag) <= 1e-12:
        return None, r2
    return du_da - dv_db - (2.0 / z.imag) * stem.v(z), r2

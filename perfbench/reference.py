"""Reference computations for checking octoslice outputs.

Nothing here imports octoslice: every value the benchmark compares against is
computed from the definitions alone, so a fault in the package cannot hide
in its own check.

* `omul`: the octonion product, built from the seven oriented triples.
* Membership by plain distance computations: balls, unions of balls, the
  ball chain and the slab with cones.
* Closed-form stems and operator values of the built-in fields.
* The component rule for balls: a ball meeting the real axis has one
  quotient component, any other ball two (its two conjugate sheets).
"""

from __future__ import annotations

import math

import numpy as np

TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _product_tensor() -> np.ndarray:
    # t[l, m, n] is the coefficient of e_n in e_l e_m.
    t = np.zeros((8, 8, 8))
    for k in range(8):
        t[0, k, k] = 1.0
        t[k, 0, k] = 1.0
    for k in range(1, 8):
        t[k, k, 0] = -1.0
    for a, b, c in TRIPLES:
        # e_a e_b = e_c and its cyclic shifts; swapping two factors flips the sign
        for l, m, n in ((a, b, c), (b, c, a), (c, a, b)):
            t[l, m, n] = 1.0
            t[m, l, n] = -1.0
    return t


PRODUCT = _product_tensor()


def omul(a, b) -> np.ndarray:
    """Octonion product of coefficient arrays of shape (..., 8)."""
    return np.einsum("...i,...j,ijk->...k", np.asarray(a, float), np.asarray(b, float), PRODUCT)


def basis(k: int) -> np.ndarray:
    out = np.zeros(8)
    out[k] = 1.0
    return out


def scalar(c: float) -> np.ndarray:
    return c * basis(0)


def imag(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out[..., 0] = 0.0
    return out


def oinv(x: np.ndarray) -> np.ndarray:
    conj = -np.asarray(x, dtype=float)
    conj[..., 0] = -conj[..., 0]
    return conj / float(np.dot(x, x))


def slice_point(z: complex, unit: np.ndarray) -> np.ndarray:
    """The point Re z + (Im z) I of octonion space for a unit 7-vector I."""
    out = np.empty(8)
    out[0] = z.real
    out[1:] = z.imag * np.asarray(unit, dtype=float)
    return out


# ---------------------------------------------------------------------------
# Membership


def ball_contains(pts, center, radius: float) -> np.ndarray:
    d = np.asarray(pts, dtype=float) - np.asarray(center, dtype=float)
    return np.sqrt((d * d).sum(axis=-1)) < radius


def union_contains(pts, balls) -> np.ndarray:
    """Membership in a union of (center, radius) balls."""
    pts = np.asarray(pts, dtype=float)
    mask = np.zeros(len(pts), dtype=bool)
    for center, radius in balls:
        mask |= ball_contains(pts, center, radius)
    return mask


CHAIN_RADIUS = 0.25


def chain_centers(i, j, steps: int = 2048) -> np.ndarray:
    """Ball centres cos t + (2 + sin t)(i cos(t/2) + j sin(t/2)), t in [-pi, pi]."""
    t = np.linspace(-math.pi, math.pi, steps)
    out = np.zeros((steps, 8))
    out[:, 0] = np.cos(t)
    phi = np.outer(np.cos(t / 2.0), i) + np.outer(np.sin(t / 2.0), j)
    out[:, 1:] = (2.0 + np.sin(t))[:, None] * phi
    return out


def chain_contains(pts, centers: np.ndarray, radius: float = CHAIN_RADIUS) -> np.ndarray:
    """Membership in the union of equal balls around `centers`.

    Only centres within reach of the point set are compared; the others are
    farther than `radius` from every point by the triangle inequality.
    """
    pts = np.asarray(pts, dtype=float)
    mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    reach = float(np.sqrt(((pts - mid) ** 2).sum(axis=1)).max()) + radius
    near = centers[np.sqrt(((centers - mid) ** 2).sum(axis=1)) < reach]
    mask = np.zeros(len(pts), dtype=bool)
    for lo in range(0, len(pts), 256):
        d = pts[lo : lo + 256, None, :] - near[None, :, :]
        mask[lo : lo + 256] = (np.sqrt((d * d).sum(axis=2)) < radius).any(axis=1)
    return mask


def slab_cone_contains(pts, i0, half_angle: float) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    im = pts[:, 1:]
    b = np.sqrt((im * im).sum(axis=1))
    inside = b < 1.0
    cone = ~inside
    inside[cone] = np.abs(im[cone] @ np.asarray(i0, float)) / b[cone] > math.cos(half_angle)
    return inside


def ball_components(center, radius: float) -> int:
    """Quotient components of a ball: 1 if it meets the real axis, else 2."""
    im = np.asarray(center, dtype=float)[1:]
    return 1 if math.sqrt(float(im @ im)) < radius else 2


# ---------------------------------------------------------------------------
# Paths


def interp_z(times, zs, ts) -> np.ndarray:
    zs = np.asarray(zs, dtype=complex)
    return np.interp(ts, times, zs.real) + 1j * np.interp(ts, times, zs.imag)


def interp_units(times, units, ts) -> np.ndarray:
    """Chordal interpolation of unit vertices, renormalised to the sphere."""
    times = np.asarray(times, dtype=float)
    units = np.asarray(units, dtype=float)
    k = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    s = ((ts - times[k]) / (times[k + 1] - times[k]))[:, None]
    v = (1.0 - s) * units[k] + s * units[k + 1]
    return v / np.sqrt((v * v).sum(axis=1))[:, None]


def lifting_points(z_times, zs, unit_times, units, ts) -> np.ndarray:
    """Points Re z(t) + Im z(t) I(t) of a circular lifting."""
    z = interp_z(z_times, zs, ts)
    out = np.empty((len(ts), 8))
    out[:, 0] = z.real
    out[:, 1:] = z.imag[:, None] * interp_units(unit_times, units, ts)
    return out


def polyline_points(times, vertices, ts) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=float)
    return np.stack([np.interp(ts, times, vertices[:, k]) for k in range(8)], axis=1)


# ---------------------------------------------------------------------------
# Built-in fields: values, partial derivatives and stems in closed form


def field_value(name: str, x: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.array(x, dtype=float)
    if name == "affine-regular":
        return scalar(3.0 * x[0]) + imag(x)
    if name == "gaussian":
        return scalar(math.exp(-float(x @ x)))
    if name == "coord-probe":
        return scalar(float(x[1]))
    raise KeyError(name)


def field_partial(name: str, x: np.ndarray, k: int) -> np.ndarray:
    if name == "identity":
        return basis(k)
    if name == "affine-regular":
        return scalar(3.0) if k == 0 else basis(k)
    if name == "gaussian":
        return scalar(-2.0 * x[k] * math.exp(-float(x @ x)))
    raise KeyError(name)


def gamma(name: str, x: np.ndarray) -> np.ndarray:
    """Gamma f = - sum_{1<=m<n<=7} e_m (e_n (x_m df/dx_n - x_n df/dx_m))."""
    d = [field_partial(name, x, k) for k in range(8)]
    out = np.zeros(8)
    for m in range(1, 8):
        for n in range(m + 1, 8):
            lmn = x[m] * d[n] - x[n] * d[m]
            out -= omul(basis(m), omul(basis(n), lmn))
    return out


def euler(name: str, x: np.ndarray) -> np.ndarray:
    return sum(x[k] * field_partial(name, x, k) for k in range(1, 8))


def slice_fueter(name: str, x: np.ndarray) -> np.ndarray:
    """df/dx_0 - Im(x)^-1 (E f) - (1/3) Im(x)^-1 (Gamma f)."""
    inv_im = oinv(imag(x))
    return (
        field_partial(name, x, 0)
        - omul(inv_im, euler(name, x))
        - omul(inv_im, gamma(name, x)) / 3.0
    )


def cauchy_fueter(name: str, x: np.ndarray) -> np.ndarray:
    """Cauchy-Fueter operator of the field on the quaternion slice through x."""
    if name == "identity":
        return scalar(-2.0)  # 1 + I I + J J + K K
    if name == "affine-regular":
        return np.zeros(8)  # 3 + I I + J J + K K
    if name == "gaussian":
        return -2.0 * math.exp(-float(x @ x)) * np.asarray(x, dtype=float)
    raise KeyError(name)


def slice_laplacian(name: str, x: np.ndarray) -> np.ndarray:
    """Four-variable Laplacian of the field on the quaternion slice through x."""
    if name in ("identity", "affine-regular"):
        return np.zeros(8)
    if name == "gaussian":
        r2 = float(x @ x)
        return scalar((4.0 * r2 - 8.0) * math.exp(-r2))
    raise KeyError(name)


def stem(name: str, z: complex) -> tuple[float, float]:
    """Closed-form stem (u, v), both real, of a built-in field at z, Im z > 0."""
    a, b = z.real, z.imag
    if name == "identity":
        return a, b
    if name == "affine-regular":
        return 3.0 * a, b
    if name == "gaussian":
        return math.exp(-(a * a + b * b)), 0.0
    raise KeyError(name)


def slab_cone_stem(z: complex, branch: int) -> tuple[float, float]:
    """Stem of the slab-cone field on the cone around branch * i0."""
    a, b = z.real, z.imag
    if b < 1.0:
        return 0.0, 0.0
    return branch * a * (b - 1.0), branch * b * (b - 1.0)


# Stems of the square-root field at z = -1 + 2i on the sheets through +e2
# (the chain ball at theta = pi) and -e2 (theta = -pi).
SEAM_STEMS = {1: (0.5, -0.5), -1: (-0.5, 0.5)}


def bers_vekua(name: str, z: complex) -> tuple[float, float]:
    """Residuals (r1, r2) of the Bers-Vekua system for a closed-form stem.

    r1 = du/da - dv/db - 2 v / b and r2 = du/db + dv/da.
    """
    a, b = z.real, z.imag
    if name == "identity":
        return 1.0 - 1.0 - 2.0, 0.0
    if name == "affine-regular":
        return 3.0 - 1.0 - 2.0, 0.0
    if name == "gaussian":
        g = math.exp(-(a * a + b * b))
        return -2.0 * a * g, -2.0 * b * g
    raise KeyError(name)


def stem_matches(value: np.ndarray, unit: np.ndarray, u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Whether f(z_I) = u + I v, the defining identity of a slice function."""
    i = np.concatenate([[0.0], unit])
    return float(np.abs(value - (u + omul(i, v))).max()) <= tol

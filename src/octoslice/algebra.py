"""Octonion arithmetic over a precomputed multiplication table.

The algebra is the real span of e0..e7 with e0 the identity, e_l * e_l = -e0
for l >= 1, and e_l * e_m = eps_{lmn} e_n for distinct l, m, n >= 1.  The
structure tensor eps takes the value +1 on even permutations of the seven
oriented triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

and -1 on odd ones.  The full 8x8 table is generated once at import time from
those triples; every product in the package routes through it.  The algebra is
alternative but not associative, so parenthesization of repeated products is
always explicit and significant.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, DomainError, PreconditionError

ORIENTED_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))

# Constructor inputs may be off unit length by this much before rejection.
NEAR_UNIT_TOL = 1e-9
# Orthogonality / exactness checks on constructed data.
EXACT_TOL = 1e-12
# Below this imaginary norm a point counts as lying on the real axis.
REAL_AXIS_TOL = 1e-12


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sign = np.zeros((8, 8), dtype=np.int8)
    index = np.zeros((8, 8), dtype=np.int8)
    for l in range(8):
        sign[0, l] = sign[l, 0] = 1
        index[0, l] = index[l, 0] = l
    for l in range(1, 8):
        sign[l, l] = -1
        index[l, l] = 0
    for a, b, c in ORIENTED_TRIPLES:
        for l, m, n in ((a, b, c), (b, c, a), (c, a, b)):
            sign[l, m] = 1
            index[l, m] = n
            sign[m, l] = -1
            index[m, l] = n
    tensor = np.zeros((8, 8, 8))
    for l in range(8):
        for m in range(8):
            tensor[l, m, index[l, m]] = sign[l, m]
    return sign, index, tensor


MUL_SIGN, MUL_INDEX, MUL_TENSOR = _build_tables()

# Row strides used by the scalar product loop: row l of the table is a
# permutation of 0..7, so fancy-index assignment never collides.
_ROW_INDEX = [MUL_INDEX[l] for l in range(8)]
_ROW_SIGN = [MUL_SIGN[l].astype(float) for l in range(8)]
# The same rows gathered by output index: e_l * e_j lands on k when
# j = _GATHER_INDEX[l, k], with sign _GATHER_SIGN[l, k].
_GATHER_INDEX = np.argsort(MUL_INDEX, axis=1)
_GATHER_SIGN = np.take_along_axis(MUL_SIGN, _GATHER_INDEX, axis=1).astype(float)


def basis_product(l: int, m: int) -> tuple[int, int]:
    """Product e_l * e_m as a (sign, index) pair; e_l * e_l = (-1, 0)."""
    if not (0 <= l <= 7 and 0 <= m <= 7):
        raise PreconditionError(f"basis indices must lie in 0..7, got ({l}, {m})")
    return int(MUL_SIGN[l, m]), int(MUL_INDEX[l, m])


class Octonion:
    """An element of the octonion algebra, stored as 8 float coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise PreconditionError(f"an octonion has 8 coefficients, got shape {c.shape}")
        self._c = c

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        c = np.zeros(8)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def from_real_imag(cls, re: float, im) -> "Octonion":
        c = np.empty(8)
        c[0] = re
        c[1:] = np.asarray(im, dtype=float)
        return cls(c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def re(self) -> float:
        return float(self._c[0])

    @property
    def im(self) -> np.ndarray:
        """Imaginary part as a 7-vector of coefficients on e1..e7."""
        return self._c[1:]

    @property
    def im_norm(self) -> float:
        return float(np.linalg.norm(self._c[1:]))

    def imag_part(self) -> "Octonion":
        c = self._c.copy()
        c[0] = 0.0
        return Octonion(c)

    def conj(self) -> "Octonion":
        c = self._c.copy()
        c[1:] = -c[1:]
        return Octonion(c)

    def norm(self) -> float:
        return float(np.linalg.norm(self._c))

    def inv(self) -> "Octonion":
        n2 = float(self._c @ self._c)
        if n2 == 0.0:
            raise ZeroDivisionError("zero octonion has no inverse")
        c = self._c / n2
        c = -c
        c[0] = -c[0]
        return Octonion(c)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self._c + other._c)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self._c - other._c)

    def __neg__(self) -> "Octonion":
        return Octonion(-self._c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return mul(self, other)
        return Octonion(self._c * float(other))

    def __rmul__(self, scalar) -> "Octonion":
        return Octonion(self._c * float(scalar))

    def __truediv__(self, scalar) -> "Octonion":
        return Octonion(self._c / float(scalar))

    def __eq__(self, other) -> bool:
        return isinstance(other, Octonion) and bool(np.array_equal(self._c, other._c))

    def __repr__(self) -> str:
        return f"Octonion({self._c.tolist()})"

    def to_list(self) -> list[float]:
        return [float(v) for v in self._c]


def mul(a: Octonion, b: Octonion) -> Octonion:
    """Octonion product a * b (non-associative; parenthesize explicitly)."""
    ca = a._c
    cb = b._c
    out = np.zeros(8)
    for l in range(8):
        al = ca[l]
        if al != 0.0:
            out[_ROW_INDEX[l]] += (al * _ROW_SIGN[l]) * cb
    return Octonion(out)


def mul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise octonion products of two (n, 8) coefficient arrays.

    Each row is summed in the order of the scalar `mul`, so row k equals
    `mul(Octonion(a[k]), Octonion(b[k]))` to the bit for finite input.
    """
    return sum_in_order((a[:, :, None] * _GATHER_SIGN) * b[:, _GATHER_INDEX])


def sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum an (n, k, 8) array over k as a loop `out = out + term` from +0.0 does."""
    start = np.zeros((len(terms), 1) + terms.shape[2:])
    return np.add.accumulate(np.concatenate([start, terms], axis=1), axis=1)[:, -1]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (n, k) arrays, equal to the bit to `a[r] @ b[r]`.

    A stack of (1, k) @ (k, 1) products runs the same dot kernel as the
    1-D product; `einsum` and `(a * b).sum(axis=1)` round some rows
    differently.  `b` may also be one (k,) vector shared by every row.
    """
    if b.ndim == 1:
        return (a[:, None, :] @ b[:, None])[:, 0, 0]
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Entries up to which `row_norms` takes one reduce: about 128 rows.
_SMALL_NORMS = 1024


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, equal to the bit to `np.linalg.norm(x, axis=-1)`.

    `np.linalg.norm` sums the squares with one `add.reduce` over the short
    last axis, which is slow for 7 or 8 columns.  This sums them in that
    reduce's order (numpy 2.4.6, the pinned version) with whole-column
    adds: 7 columns left to right, 8 columns as
    `((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))`.  The squares are
    stored column-major so each column add reads contiguous memory.  Any
    other width, and any array of at most `_SMALL_NORMS` entries, whose
    fixed costs outweigh the reduce's, goes to `np.linalg.norm`'s sum.
    """
    x = np.asarray(x, dtype=float)
    width = x.shape[-1]
    if width not in (7, 8) or x.size <= _SMALL_NORMS:
        return np.sqrt(np.add.reduce(x * x, axis=-1))
    s = np.multiply(x, x, order="F")
    if width == 8:
        pairs = s[..., 0::2] + s[..., 1::2]
        quads = pairs[..., 0::2] + pairs[..., 1::2]
        total = quads[..., 0] + quads[..., 1]
    else:
        total = s[..., 0] + s[..., 1]
        for k in range(2, 7):
            total += s[..., k]
    return np.sqrt(total)


class UnitImaginary:
    """A point of the 6-sphere of unit imaginary octonions, as a 7-vector."""

    __slots__ = ("_v",)

    def __init__(self, vec) -> None:
        v = np.asarray(vec, dtype=float)
        if v.shape != (7,):
            raise PreconditionError(f"a unit imaginary has 7 coefficients, got shape {v.shape}")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > NEAR_UNIT_TOL:
            raise PreconditionError(f"vector norm {n} is not within {NEAR_UNIT_TOL} of 1")
        self._v = v / n

    @classmethod
    def from_vector(cls, vec) -> "UnitImaginary":
        """Normalize an arbitrary nonzero 7-vector onto the unit sphere."""
        v = np.asarray(vec, dtype=float)
        n = float(np.linalg.norm(v))
        if n <= REAL_AXIS_TOL:
            raise DomainError("cannot normalize a (near-)zero imaginary vector")
        u = cls.__new__(cls)
        u._v = v / n
        return u

    @classmethod
    def basis(cls, k: int) -> "UnitImaginary":
        if not 1 <= k <= 7:
            raise PreconditionError(f"imaginary basis index must lie in 1..7, got {k}")
        v = np.zeros(7)
        v[k - 1] = 1.0
        u = cls.__new__(cls)
        u._v = v
        return u

    @property
    def vec(self) -> np.ndarray:
        return self._v

    def as_octonion(self) -> Octonion:
        return Octonion.from_real_imag(0.0, self._v)

    def dot(self, other: "UnitImaginary") -> float:
        return float(self._v @ other._v)

    def __neg__(self) -> "UnitImaginary":
        u = UnitImaginary.__new__(UnitImaginary)
        u._v = -self._v
        return u

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitImaginary) and bool(np.array_equal(self._v, other._v))

    def __repr__(self) -> str:
        return f"UnitImaginary({self._v.tolist()})"

    def to_list(self) -> list[float]:
        return [float(v) for v in self._v]


def unit_imaginary_of(x: Octonion) -> UnitImaginary:
    """Im(x) / |Im(x)|; raises DomainError on the real axis."""
    return UnitImaginary.from_vector(x.im)


def angle_between(i: UnitImaginary, j: UnitImaginary) -> float:
    """Spherical angle in [0, pi] between two unit imaginaries."""
    return float(np.arccos(np.clip(i.dot(j), -1.0, 1.0)))


def tau(i: UnitImaginary, z: complex) -> Octonion:
    """Slice embedding of the complex point alpha + beta*i into C_I."""
    z = complex(z)
    return Octonion.from_real_imag(z.real, z.imag * i._v)


def tau_rows(a, b, units) -> np.ndarray:
    """Slice points a + b I as coefficient rows [a, b I], shape (..., 8).

    `units` holds unit rows (..., 7); a and b broadcast against its leading
    axes.  Every row of the package's membership tests is built here.
    """
    im = np.asarray(b, dtype=float)[..., None] * units
    out = np.empty(np.broadcast(a, im[..., 0]).shape + (8,))
    out[..., 0] = a
    out[..., 1:] = im
    return out


def orthogonal_unit(u: np.ndarray) -> UnitImaginary:
    """The unit orthogonal to u along the basis vector of u's smallest |coefficient|."""
    w = np.zeros(7)
    w[int(np.argmin(np.abs(u)))] = 1.0
    w -= (w @ u) * u
    return UnitImaginary.from_vector(w)


class OrthoPair:
    """An orthogonal pair (I, J) of unit imaginaries spanning a quaternion slice.

    The slice is the real span of e0, I, J and K = I*J; `embed` and `coords`
    move between 4 quaternionic coordinates and ambient octonions.
    """

    __slots__ = ("i", "j", "_basis")

    def __init__(self, i: UnitImaginary, j: UnitImaginary) -> None:
        if abs(i.dot(j)) > NEAR_UNIT_TOL:
            raise PreconditionError(f"pair is not orthogonal: <I, J> = {i.dot(j)}")
        self.i = i
        self.j = j
        k = mul(i.as_octonion(), j.as_octonion())
        self._basis = np.stack([
            Octonion.one().coeffs,
            i.as_octonion().coeffs,
            j.as_octonion().coeffs,
            k.coeffs,
        ])

    @property
    def k(self) -> UnitImaginary:
        return UnitImaginary.from_vector(self._basis[3, 1:])

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal (4, 8) coefficient matrix of (e0, I, J, IJ)."""
        return self._basis

    def embed(self, q) -> Octonion:
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise PreconditionError(f"slice coordinates need shape (4,), got {q.shape}")
        return Octonion(q @ self._basis)

    def coords(self, x: Octonion) -> np.ndarray:
        """Coordinates of x in the slice basis (valid when x lies in the slice)."""
        return self._basis @ x.coeffs

    def in_slice(self, x: Octonion, tol: float = 1e-9) -> bool:
        q = self.coords(x)
        return bool(np.linalg.norm(q @ self._basis - x.coeffs) <= tol)


def cd_split(x: Octonion, pair: OrthoPair, l: UnitImaginary) -> tuple[Octonion, Octonion]:
    """Cayley-Dickson split x = p + l*q with p, q in the slice of `pair`.

    Requires l orthogonal to the slice spanned by (e0, I, J, IJ).
    """
    lo = l.as_octonion().coeffs
    dots = pair.basis @ lo
    if float(np.max(np.abs(dots))) > NEAR_UNIT_TOL:
        raise PreconditionError("l is not orthogonal to the quaternion slice")
    p_coords = pair.basis @ x.coeffs
    p = Octonion(p_coords @ pair.basis)
    r = x - p
    # q = l^{-1} r = -(l r); valid because the algebra is alternative.
    q = -mul(l.as_octonion(), r)
    if np.linalg.norm((p + mul(l.as_octonion(), q)).coeffs - x.coeffs) > 1e-9 * max(1.0, x.norm()):
        raise ConditioningError("Cayley-Dickson split failed to reassemble the input")
    return p, q

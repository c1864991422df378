"""Octonion table exactness, algebraic identities, and type behavior."""

import itertools

import numpy as np
import pytest

from octoslice.algebra import (
    EXACT_TOL,
    MUL_INDEX,
    MUL_SIGN,
    MUL_TENSOR,
    ORIENTED_TRIPLES,
    Octonion,
    OrthoPair,
    UnitImaginary,
    angle_between,
    basis_product,
    cd_split,
    mul,
    mul_batch,
    orthogonal_unit,
    tau,
    tau_rows,
    unit_imaginary_of,
)
from octoslice.errors import DomainError, PreconditionError


def _parity(perm):
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(perm)), 2) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _oracle_table():
    # Independent reconstruction: enumerate all permutations of each oriented
    # triple and assign eps by permutation parity.
    eps = {}
    for triple in ORIENTED_TRIPLES:
        for order in itertools.permutations(range(3)):
            l, m, n = (triple[k] for k in order)
            eps[(l, m, n)] = _parity(order)
    sign = np.zeros((8, 8), dtype=int)
    index = np.zeros((8, 8), dtype=int)
    for l in range(8):
        sign[0, l] = sign[l, 0] = 1
        index[0, l] = index[l, 0] = l
    for l in range(1, 8):
        sign[l, l] = -1
        index[l, l] = 0
    for (l, m, n), s in eps.items():
        sign[l, m] = s
        index[l, m] = n
    return sign, index


def test_table_matches_oracle_exactly():
    sign, index = _oracle_table()
    assert np.array_equal(sign, MUL_SIGN)
    assert np.array_equal(index, MUL_INDEX)


def test_all_64_basis_products():
    sign, index = _oracle_table()
    for l in range(8):
        for m in range(8):
            s, n = basis_product(l, m)
            assert (s, n) == (sign[l, m], index[l, m])
            prod = mul(Octonion.basis(l), Octonion.basis(m))
            expected = np.zeros(8)
            expected[n] = s
            assert np.array_equal(prod.coeffs, expected)


def test_table_rows_are_permutations():
    for l in range(8):
        assert sorted(MUL_INDEX[l]) == list(range(8))
        assert sorted(MUL_INDEX[:, l]) == list(range(8))


def test_known_products():
    assert basis_product(1, 2) == (1, 3)
    assert basis_product(6, 1) == (1, 7)
    assert basis_product(1, 7) == (1, 6)
    assert basis_product(1, 6) == (-1, 7)
    assert basis_product(3, 6) == (1, 5)


def test_nonassociativity_witness():
    e1, e2, e4 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(4)
    left = mul(mul(e1, e2), e4)
    right = mul(e1, mul(e2, e4))
    assert np.array_equal(left.coeffs, Octonion.basis(7).coeffs)
    assert np.array_equal(right.coeffs, (-Octonion.basis(7)).coeffs)


def test_moufang_artin_identities_exact():
    # e_m (e_n (e_m a)) == e_n a and e_m (e_n (e_n a)) == -e_m a, m != n.
    for m in range(1, 8):
        em = Octonion.basis(m)
        for n in range(1, 8):
            if m == n:
                continue
            en = Octonion.basis(n)
            for k in range(8):
                a = Octonion.basis(k)
                lhs1 = mul(em, mul(en, mul(em, a)))
                assert np.array_equal(lhs1.coeffs, mul(en, a).coeffs)
                lhs2 = mul(em, mul(en, mul(en, a)))
                assert np.array_equal(lhs2.coeffs, (-mul(em, a)).coeffs)


def test_norm_multiplicative_random():
    rng = np.random.default_rng(20260819)
    a = rng.normal(size=(10_000, 8))
    b = rng.normal(size=(10_000, 8))
    prod = mul_batch(a, b)
    lhs = np.linalg.norm(prod, axis=1)
    rhs = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    rel = np.abs(lhs - rhs) / rhs
    assert float(rel.max()) <= 1e-12


def test_conj_product_is_squared_norm_exact_on_integers():
    rng = np.random.default_rng(7)
    for _ in range(200):
        coeffs = rng.integers(-9, 10, size=8).astype(float)
        x = Octonion(coeffs)
        prod = mul(x, x.conj())
        expected = np.zeros(8)
        expected[0] = float(coeffs @ coeffs)
        assert np.array_equal(prod.coeffs, expected)


def test_inverse():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = Octonion(rng.normal(size=8))
        for prod in (mul(x, x.inv()), mul(x.inv(), x)):
            assert abs(prod.re - 1.0) <= EXACT_TOL * 10
            assert np.linalg.norm(prod.im) <= EXACT_TOL * 10
    with pytest.raises(ZeroDivisionError):
        Octonion.zero().inv()


def test_batch_matches_scalar_mul():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(50, 8))
    b = rng.normal(size=(50, 8))
    prods = mul_batch(a, b)
    for k in range(50):
        single = mul(Octonion(a[k]), Octonion(b[k]))
        assert np.array_equal(prods[k], single.coeffs)


def test_left_multiplications_anticommute():
    # L_m y = e_m y, built from the structure tensor: (L_m)[k, j] = T[m, j, k]
    left = [MUL_TENSOR[m].T for m in range(8)]
    for m in range(1, 8):
        assert np.array_equal(left[m] @ left[m], -np.eye(8))
        for n in range(1, 8):
            if m != n:
                assert np.array_equal(left[m] @ left[n], -(left[n] @ left[m]))


def test_tau_and_conjugate_symmetry():
    i = UnitImaginary.basis(1)
    x = tau(i, 1 + 2j)
    assert np.array_equal(x.coeffs, np.array([1, 2, 0, 0, 0, 0, 0, 0], dtype=float))
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = UnitImaginary.from_vector(rng.normal(size=7))
        z = complex(rng.normal(), rng.normal())
        lhs = tau(u, z.conjugate())
        rhs = tau(-u, z)
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=1e-15)


def test_unit_imaginary_constructor_tolerance():
    v = np.zeros(7)
    v[0] = 1.0 + 5e-10
    u = UnitImaginary(v)
    assert abs(np.linalg.norm(u.vec) - 1.0) <= EXACT_TOL
    v[0] = 1.0 + 1e-6
    with pytest.raises(PreconditionError):
        UnitImaginary(v)


def test_unit_imaginary_of():
    x = Octonion([1, 0, 3, 4, 0, 0, 0, 0])
    u = unit_imaginary_of(x)
    assert np.allclose(u.vec, np.array([0, 0.6, 0.8, 0, 0, 0, 0]), atol=1e-15)
    with pytest.raises(DomainError):
        unit_imaginary_of(Octonion.one())


def test_angle_between():
    e1, e2 = UnitImaginary.basis(1), UnitImaginary.basis(2)
    assert angle_between(e1, e1) == 0.0
    assert abs(angle_between(e1, e2) - np.pi / 2) <= 1e-15
    assert abs(angle_between(e1, -e1) - np.pi) <= 1e-15


def test_ortho_pair_embed_coords():
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    assert np.array_equal(pair.k.vec, UnitImaginary.basis(3).vec)
    q = np.array([1.0, -2.0, 0.5, 3.0])
    x = pair.embed(q)
    assert np.allclose(pair.coords(x), q, atol=1e-15)
    assert pair.in_slice(x)
    assert not pair.in_slice(Octonion.basis(5))
    with pytest.raises(PreconditionError):
        OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(1))


def test_cd_split_example_and_roundtrip():
    pair = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    l = UnitImaginary.basis(4)
    p, q = cd_split(Octonion.basis(5), pair, l)
    assert np.array_equal(p.coeffs, np.zeros(8))
    assert np.allclose(q.coeffs, (-Octonion.basis(1)).coeffs, atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = Octonion(rng.normal(size=8))
        p, q = cd_split(x, pair, l)
        back = p + mul(l.as_octonion(), q)
        assert np.allclose(back.coeffs, x.coeffs, rtol=0, atol=1e-12)
        assert pair.in_slice(p) and pair.in_slice(q)
    with pytest.raises(PreconditionError):
        cd_split(Octonion.basis(5), pair, UnitImaginary.basis(3))


def test_real_scalars_commute_and_distribute():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = Octonion(rng.normal(size=8))
        y = Octonion(rng.normal(size=8))
        s = float(rng.normal())
        assert np.allclose((s * x).coeffs, (x * s).coeffs, atol=0)
        assert np.allclose(mul(s * x, y).coeffs, (s * mul(x, y)).coeffs, atol=1e-13)
        assert np.allclose((x + y - y).coeffs, x.coeffs, atol=1e-15)


def test_orthogonal_unit_equals_the_three_inline_forms():
    # the forms it replaced: the stem's second direction, the CLI's J and
    # the replay waypoint; each takes the basis vector of smallest |u_k|
    def stems_form(u):
        w = np.zeros(7)
        w[int(np.argmin(np.abs(u)))] = 1.0
        w -= (w @ u) * u
        return w / np.linalg.norm(w)

    def cli_form(u):
        probe = np.eye(7)[int(np.argmin(np.abs(u)))]
        return UnitImaginary.from_vector(probe - float(probe @ u) * u).vec

    def waypoint_form(u):
        probe = np.eye(7)[int(np.argmin(np.abs(u)))]
        w = probe - (probe @ u) * u
        w /= np.linalg.norm(w)
        return w

    rng = np.random.default_rng(13)
    units = rng.normal(size=(20_000, 7))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    units[:50] = np.eye(7)[rng.integers(0, 7, size=50)]
    for u in units:
        got = orthogonal_unit(u).vec
        for form in (stems_form, cli_form, waypoint_form):
            assert np.array_equal(got, form(u))
        assert abs(got @ u) < 1e-15


def test_tau_rows_equals_tau_and_broadcasts():
    rng = np.random.default_rng(14)
    units = rng.normal(size=(6, 7))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    zs = rng.normal(size=4) + 1j * rng.normal(size=4)
    rows = tau_rows(zs.real[:, None], zs.imag[:, None], units[None, :, :])
    assert rows.shape == (4, 6, 8)
    for a, z in enumerate(zs):
        for b, u in enumerate(units):
            assert np.array_equal(rows[a, b], np.concatenate([[z.real], z.imag * u]))
    i = UnitImaginary.basis(3)
    assert np.array_equal(tau_rows(1.5, -2.0, i.vec), tau(i, 1.5 - 2.0j).coeffs)

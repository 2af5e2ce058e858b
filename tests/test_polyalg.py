import numpy as np
import pytest
from numpy.polynomial.polynomial import polyadd, polymul, polyval

from invspec import Order, roots_of_unity
from diagonal_relation import binomial_power, d_a_table, d_b_table, divide_by_linear, k_pole


def d_a(order, n, alpha, j):
    """The 2m - 1 coefficients d_a(n, alpha, j), from a one-entry table."""
    return d_a_table(order, [alpha], [n])[0][0, 0, j - 1]


def d_b(order, n, s, nu, j):
    """The nu coefficients d_b(n, s, nu, j), from a one-entry table up to degree nu."""
    start = nu * (nu - 1) // 2
    return d_b_table(order, [s], [n], nu)[0][0, 0, j - 1, start:]


def test_binomial_power_matches_convolution():
    shift = 0.7 - 0.2j
    direct = np.array([1.0 + 0j])
    for _ in range(5):
        direct = polymul(direct, [shift, 1.0])
    assert np.allclose(binomial_power(shift, 5), direct, atol=1e-14)


def test_divide_by_linear_examples():
    q, rem = divide_by_linear([-1.0, 0.0, 1.0], 1.0)  # k^2 - 1 at root 1
    assert np.allclose(q, [1.0, 1.0])
    assert rem == pytest.approx(0.0)
    q, rem = divide_by_linear([1.0, 0.0, 1.0], 0.0)  # k^2 + 1 at root 0
    assert np.allclose(q, [0.0, 1.0])
    assert rem == pytest.approx(1.0)


def test_divide_by_linear_reconstructs(rng):
    for _ in range(20):
        p = rng.normal(size=6) + 1j * rng.normal(size=6)
        root = complex(rng.normal(), rng.normal())
        q, rem = divide_by_linear(p, root)
        back = polyadd(polymul([-root, 1.0], q), [rem])
        assert np.abs(back - p).max() <= 1e-10 * max(1.0, np.abs(p).max())


def test_d_a_m1_is_i_alpha():
    order = Order(1)
    for n in (1, 2, 5):
        for alpha in (1, 3, 8):
            coeffs = d_a(order, n, alpha, 1)
            assert coeffs.shape == (1,)
            assert coeffs[0] == pytest.approx(1j * alpha)


def test_d_a_alpha_zero_vanishes():
    d, rel = d_a_table(Order(2), [0], [1, 2])
    assert np.all(d == 0) and np.all(rel == 0)


def test_d_a_degree_contract():
    for m in (1, 2, 3):
        order = Order(m)
        assert d_a_table(order, [3, 4], [2])[0].shape == (2, 1, 2 * m - 1, 2 * m - 1)
        assert d_a(order, 2, 3, 1).shape == (2 * m - 1,)


def test_d_a_m2_against_numpy_division_oracle():
    order = Order(2)
    n, alpha, j = 1, 2, 1
    knj = k_pole(order, n, j)
    ia = 1j * alpha
    num = np.polynomial.polynomial.polyadd(
        binomial_power(ia, 4), -np.array([(ia + knj) ** 4 - knj ** 4, 0, 0, 0, 1.0]))
    w = roots_of_unity(order)
    den = np.array([1j * n, (1 - w[j])])
    quo, rem = np.polynomial.polynomial.polydiv(num, den)
    assert np.abs(rem).max() < 1e-9
    assert np.allclose(d_a(order, n, alpha, j), quo[:3], atol=1e-12)


def test_d_a_defining_identity_sampled(rng):
    for m in (1, 2, 3):
        order = Order(m)
        w = roots_of_unity(order)
        for (n, alpha, j) in [(1, 1, 1), (2, 5, 2 * m - 1), (3, 3, 1)]:
            coeffs = d_a(order, n, alpha, j)
            knj = k_pole(order, n, j)
            for _ in range(2 * m):
                k = complex(rng.normal(), rng.normal())
                lhs = ((1j * alpha + k) ** (2 * m) - k ** (2 * m)
                       - (1j * alpha + knj) ** (2 * m) + knj ** (2 * m))
                lhs /= 1j * n + k * (1 - w[j])
                rhs = polyval(k, coeffs)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_d_b_nu_one_constant():
    for m in (1, 2, 3):
        order = Order(m)
        for j in range(1, order.j_count + 1):
            coeffs = d_b(order, 2, 5, 1, j)
            assert coeffs.shape == (1,)
            assert coeffs[0] == pytest.approx(1 / (1 - roots_of_unity(order)[j]))
    assert d_b(Order(1), 1, 3, 1, 1)[0] == pytest.approx(0.5)


def test_d_b_nu_zero_empty():
    # nu = 0 has no pairs and a zero remainder
    d, rel = d_b_table(Order(2), [1], [1], 0)
    assert d.shape == (1, 1, 3, 0)
    assert rel.shape == (1, 1, 3, 1) and np.all(rel == 0)


def test_d_b_degree_contract_and_identity(rng):
    order = Order(2)
    n, s, nu, j = 1, 1, 2, 1
    coeffs = d_b(order, n, s, nu, j)
    assert coeffs.shape == (2,)
    w = roots_of_unity(order)
    knj = k_pole(order, n, j)
    for _ in range(4):
        k = complex(rng.normal(), rng.normal())
        lhs = ((1j * s + k) ** nu - (1j * s + knj) ** nu) / (1j * n + k * (1 - w[j]))
        assert abs(lhs - polyval(k, coeffs)) <= 1e-10 * max(1.0, abs(lhs))

"""Round trips and kernel identities past the acceptance sizes (N <= 8, m <= 2)."""
import numpy as np
import pytest

from conftest import random_potential
from invspec import (Order, a_m_constant, contraction_conditions, forward_map, inverse_map,
                     roots_of_unity, v_from_s)
from invspec.kernel import diagonal_kernel
from invspec.polyalg import binomial_power, d_a_table, d_b_table

SIZES = [(m, n) for m in (1, 2, 3, 4) for n in (16, 32)] + [(2, 64), (3, 64)]


def relative(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("m, n_max", SIZES)
def test_round_trip_and_table_equivalence(rng, m, n_max):
    p = random_potential(Order(m), n_max, rng)
    v, s = forward_map(p)
    assert relative(inverse_map(s).coeffs, p.coeffs) <= (3e-12 if m == 4 else 3e-14)
    assert relative(v_from_s(s).table, v.table) <= 1e-15


def test_round_trip_at_contraction_sum_66():
    order = Order(2)
    p = random_potential(order, 24, np.random.default_rng(20240811), scale=10.85)
    _, s = forward_map(p)
    contraction = contraction_conditions(s, a_m_constant(order)).condition_ii_p
    assert 60 < contraction < 70
    assert relative(inverse_map(s).coeffs, p.coeffs) <= 3e-14


def _quotient(num, n, j, order):
    """Exact division by in + k (1 - w_j) through numpy's polynomial division."""
    quo, rem = np.polynomial.polynomial.polydiv(num, [1j * n, 1 - roots_of_unity(order)[j]])
    assert np.abs(rem).max() <= 1e-12 * np.abs(num).max()
    return quo


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_tensors_match_scalar_coefficients(m):
    order = Order(m)
    two_m = 2 * m
    n_max = 8
    kern = diagonal_kernel(m, n_max)
    for n in range(1, n_max + 1):
        for j in range(1, order.j_count + 1):
            knj = -1j * n / (1 - roots_of_unity(order)[j])
            for alpha in range(1, n_max + 1):
                # the entry of a one-entry table equals the kernel's to the bit
                scalar = d_a_table(order, [alpha], [n])[0][0, 0, j - 1]
                assert np.array_equal(kern.d_a[alpha - 1, n - 1, j - 1], scalar)
                num = binomial_power(1j * alpha, two_m)[:two_m]
                num[0] -= (1j * alpha + knj) ** two_m - knj ** two_m
                assert np.allclose(scalar, _quotient(num, n, j, order), rtol=1e-12, atol=1e-12)
            for s in range(1, n_max + 1):
                for nu in range(1, order.gamma_count):
                    # d_b stores only gamma < nu: d_b(n, s, nu, j) starts at pair nu (nu - 1) / 2
                    start = nu * (nu - 1) // 2
                    scalar = d_b_table(order, [s], [n], nu)[0][0, 0, j - 1, start:]
                    entry = kern.d_b[s - 1, n - 1, j - 1, start:start + nu]
                    assert np.array_equal(entry, scalar)
                    num = binomial_power(1j * s, nu)
                    num[0] -= (1j * s + knj) ** nu
                    assert np.allclose(scalar, _quotient(num, n, j, order), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_stores_each_pair_once_as_its_scalar_coefficient(m):
    order = Order(m)
    n_max = 5
    modes = np.arange(1, n_max + 1)
    d_b = diagonal_kernel(m, n_max).d_b
    assert d_b.shape == (n_max, n_max, 2 * m - 1, (2 * m - 1) * (m - 1))
    # degree nu's coefficients are the last nu of a table built up to degree nu
    top = {nu: d_b_table(order, modes, modes, nu)[0][..., -nu:] for nu in range(1, order.gamma_count)}
    for pair, (nu, gamma) in enumerate(zip(*np.tril_indices(order.gamma_count, -1))):
        assert np.array_equal(d_b[..., pair], top[nu][..., gamma])

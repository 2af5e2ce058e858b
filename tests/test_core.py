import numpy as np
import pytest

from conftest import random_potential
from diagonal_relation import k_pole
from invspec import (Order, PotentialCoefficients, SpectralData, VTable, a_m_constant, forward_map,
                     roots_of_unity)
from invspec.core import cauchy_denominators
from invspec.errors import InputError
from invspec.kernel import diagonal_kernel
from series_oracle import kernel_terms, transition_terms


def test_roots_small_orders():
    assert np.allclose(roots_of_unity(Order(1)), [1, -1], atol=1e-15)
    assert np.allclose(roots_of_unity(Order(2)), [1, 1j, -1, -1j], atol=1e-15)
    w1 = roots_of_unity(Order(3))[1]
    assert abs(w1 - (0.5 + 1j * np.sqrt(3) / 2)) < 1e-15


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_roots_are_2m_th_roots_of_unity(m):
    w = roots_of_unity(Order(m))
    assert np.abs(w ** (2 * m) - 1).max() < 1e-14
    assert len(set(np.round(w, 12))) == 2 * m


def pole(m: int, n: int, j: int) -> complex:
    """lambda_nj = -n / (1 - w_j) in the periodic spectral variable, read off the kernel's c = n / (1 - w_j)."""
    return complex(-diagonal_kernel(m, 31).c[n - 1, j - 1])


def test_pole_values():
    assert pole(1, 3, 1) == pytest.approx(-1.5)
    assert pole(2, 1, 2) == pytest.approx(-0.5)
    # hand algebra: -1/(1-i) = -(1+i)/2
    assert pole(2, 1, 1) == pytest.approx(-1 / (1 - 1j))
    assert pole(2, 1, 1) == pytest.approx(-(1 + 1j) / 2)


def test_k_pole_is_i_times_lambda():
    # the diagonal relation's poles k_nj, formed on their own, against the kernel's
    order = Order(2)
    for n in (1, 2, 5):
        for j in (1, 2, 3):
            assert k_pole(order, n, j) == pytest.approx(1j * pole(2, n, j))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pole_scales_linearly_in_n(m):
    for j in range(1, Order(m).j_count + 1):
        base = pole(m, 1, j)
        for c in (2, 7, 31):
            assert abs(pole(m, c, j) - c * base) <= 1e-14 * abs(c * base)


def test_a1_is_exactly_one():
    assert a_m_constant(Order(1)) == pytest.approx(1.0, abs=1e-14)


def test_root_of_unity_lemma_bounds_denominators_rates_and_a_m(rng):
    # |den| >= 2 sin^2(pi/2m) (n + r), den = n w_j (1 - w_l) - r (1 - w_j), with equality at
    # n = r = 1 and w_j = w_l = w_1; N = 128 up to m = 8 and 32 past it keeps the grid small
    for m in range(1, 33):
        w = roots_of_unity(Order(m))[1:]
        modes = np.arange(1, (128 if m <= 8 else 32) + 1)
        den = (modes[:, None] * w * (1 - w)[:, None, None]
               - modes[:, None, None, None] * (1 - w))
        ratio = np.abs(den) / (2 * np.sin(np.pi / (2 * m)) ** 2
                               * (modes[:, None, None, None] + modes[:, None]))
        assert ratio.min() >= 1 - 1e-14
        assert ratio[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    for m, n_max in [(1, 64), (2, 64), (3, 32), (4, 32)]:
        modes = np.arange(1, n_max + 1)
        bound = 2 * np.sin(np.pi / (2 * m)) ** 2 * (modes[:, None, None, None] + modes[:, None])
        assert (np.abs(cauchy_denominators(Order(m), n_max)) >= (1 - 1e-14) * bound).all()
    # every product rate of the Marchenko integral has real part -(n + n') / 2 <= -1
    for m in range(1, 7):
        v, s = forward_map(random_potential(Order(m), 8, rng))
        kb = kernel_terms(v)[2]
        fg = transition_terms(s)[1]
        assert np.add.outer(kb.real, fg.real).max() <= -1 + 1e-13
    # the quotient enumerated over 1 <= n, r <= 50 peaks at the closed form
    n = np.arange(1, 51)[:, None]
    r = np.arange(1, 51)
    for m in range(1, 5):
        w = roots_of_unity(Order(m))
        wj, wl = w[1:, None, None, None], w[1:, None, None]
        quotient = np.abs((1 - wj) * (n + r)) / np.abs(r * (1 - wj) - n * (1 - wl) * wj)
        assert quotient.max() == pytest.approx(a_m_constant(Order(m)), rel=1e-15)


def test_a2_matches_bruteforce_enumeration():
    order = Order(2)
    w = roots_of_unity(order)
    best = 0.0
    for j in range(1, 4):
        for l in range(1, 4):
            for n in range(1, 51):
                for r in range(1, 51):
                    q = abs((1 - w[j]) * (n + r)) / abs(r * (1 - w[j]) - n * (1 - w[l]) * w[j])
                    best = max(best, q)
    assert a_m_constant(order) == pytest.approx(best, rel=1e-15)


def test_a2_single_point_quotient():
    w = roots_of_unity(Order(2))
    expected = abs((1 - w[1]) * 2) / abs(1 * (1 - w[1]) - 1 * (1 - w[2]) * w[1])
    assert a_m_constant(Order(2)) >= expected - 1e-15


def test_order_validation():
    with pytest.raises(InputError):
        Order(0)
    assert Order(3).j_count == 5


def test_potential_weighted_norm_and_shift():
    order = Order(2)
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 0] = 1.0
    coeffs[2, 2] = 2.0
    p = PotentialCoefficients(order, 3, coeffs)
    # 1*1^0 + 2*3^2
    assert p.weighted_norm() == pytest.approx(1 + 18)
    shifted = p.shifted(1j)
    assert shifted.coeffs[2, 2] == pytest.approx(2 * np.exp(-3))


def test_spectral_s_tilde():
    order = Order(2)
    table = np.zeros((3, 3), dtype=complex)
    table[2, 0] = 3j
    table[2, 1] = 4.0
    s = SpectralData(order, 3, table)
    assert s.s_tilde()[2] == pytest.approx(9 * 7.0)
    assert s.s_tilde()[0] == 0.0


def test_vtable_triangle_enforced():
    order = Order(1)
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 1, 0] = 1.0
    with pytest.raises(InputError):
        VTable(order, 2, bad)
    good = np.zeros((1, 2, 2), dtype=complex)
    good[0, 0, 1] = 1.0
    VTable(order, 2, good)
    # a signed zero below the triangle is absent too, and is stored as +0.0
    good[0, 1, 0] = complex(-0.0, -0.0)
    table = VTable(order, 2, good).table
    assert not np.signbit(table.real).any() and not np.signbit(table.imag).any()


def test_vtable_diagonal_roundtrip():
    order = Order(2)
    arr = np.zeros((3, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1j
    arr[2, 1, 1] = 2.0
    vt = VTable(order, 2, arr)
    diag = vt.diagonal()
    assert diag.table[0, 0] == 1j
    assert diag.table[1, 2] == 2.0
    assert diag.table[1, 0] == 0.0


def test_vtable_diagonal_equals_the_stacked_diagonals(rng):
    for m, n_max in [(1, 5), (2, 8), (3, 4)]:
        order = Order(m)
        shape = (order.j_count, n_max, n_max)
        vt = VTable(order, n_max, np.triu(rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        stacked = np.stack([np.diag(vt.table[jj]) for jj in range(order.j_count)], axis=1)
        assert np.array_equal(vt.diagonal().table, stacked)


def test_tables_are_immutable():
    p = PotentialCoefficients(Order(1), 2, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        p.coeffs[0, 0] = 1.0


@pytest.mark.parametrize("m, n_max", [(1, 1), (1, 16), (2, 8), (3, 32), (4, 16)])
def test_cauchy_denominators_equal_the_full_table(m, n_max):
    # the data operator's table, den[r, l, n, j] = r w_l (1 - w_j) - n (1 - w_l), read with
    # (r, l) and (n, j) swapped is the inverse map's, n w_j (1 - w_l) - r (1 - w_j), to the bit
    w = roots_of_unity(Order(m))[1:]
    modes = np.arange(1, n_max + 1)
    full = modes[:, None] * w * (1 - w)[:, None, None] - modes[:, None, None, None] * (1 - w)
    got = np.ascontiguousarray(cauchy_denominators(Order(m), n_max).transpose(2, 3, 0, 1))
    assert got.shape == full.shape and np.array_equal(got.view(np.uint8), full.view(np.uint8))

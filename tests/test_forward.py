import cmath
import math

import numpy as np
import pytest

from conftest import kernel_weight, random_potential
from invspec import Order, PotentialCoefficients, forward_map, q_from_p, series_q
from invspec.kernel import diagonal_kernel
from diagonal_relation import d_a_table


def single_mode_m1(eps: complex, n_max: int = 4) -> PotentialCoefficients:
    coeffs = np.zeros((1, n_max), dtype=complex)
    coeffs[0, 0] = eps
    return PotentialCoefficients(Order(1), n_max, coeffs)


def test_zero_potential_maps_to_zero():
    p = PotentialCoefficients(Order(2), 5, np.zeros((3, 5)))
    v, s = forward_map(p)
    assert np.all(v.table == 0)
    assert np.all(s.table == 0)


def test_left_factor_m1_closed_form():
    # at m = 1 the left factor is L = alpha (alpha - n), and column alpha - n's weight
    # -1 / Q_{alpha-n}(w_1 k_n1) at the mirror point is 1 / L, as Q_{alpha-n}(w_j k_nj) =
    # Q_alpha(k_nj) = (-1)^m L
    kern = diagonal_kernel(1, 7)
    for n in (1, 2, 3):
        for alpha in (4, 7):
            assert 1 / kernel_weight(kern, alpha, n, 1)[0] == pytest.approx(alpha * (alpha - n))


def test_single_mode_m1_chain():
    eps = 0.1
    v, s = forward_map(single_mode_m1(eps))
    # first-order diagonal is exactly linear: S_11 = i eps
    assert s.table[0, 0] == pytest.approx(1j * eps, abs=1e-15)
    # hand recurrence values for the one-mode cascade
    assert v.table[0, 0, 1] == pytest.approx(1j * eps ** 2 / 2, abs=1e-15)
    assert v.table[0, 0, 2] == pytest.approx(1j * eps ** 3 / 12, abs=1e-15)
    assert s.table[1, 0] == pytest.approx(-1j * eps ** 2 / 2, abs=1e-15)
    assert s.table[2, 0] == pytest.approx(1j * eps ** 3 / 12, abs=1e-15)


def test_single_mode_decay_rate():
    eps = 0.1
    _, s = forward_map(single_mode_m1(eps, n_max=6))
    for n in range(1, 7):
        assert abs(s.table[n - 1, 0]) <= eps ** n


def test_offdiag_step_single_term():
    # with one potential mode the off-diagonal step to V(1, 2) has a single term
    eps = 0.2 - 0.1j
    v, _ = forward_map(single_mode_m1(eps, n_max=3))
    assert v.table[0, 0, 1] == pytest.approx(eps * v.table[0, 0, 0] / 2)


def test_first_order_linearity(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 4, rng)
        _, s1 = forward_map(p)
        _, s2 = forward_map(PotentialCoefficients(p.order, p.n_max, 2.0 * p.coeffs))
        assert np.allclose(2.0 * s1.table[0], s2.table[0], atol=0, rtol=1e-13)


def test_diag_solve_m2_backsubstitution(rng):
    # at N = 1 the sweep is the one diagonal solve, d_a(1, 1)^T S_1 = -p[., 1]
    order = Order(2)
    p = random_potential(order, 1, rng, scale=0.5)
    _, s = forward_map(p)
    a = d_a_table(order, [1], [1])[0][0, 0].T
    residual = a @ s.table[0] + p.coeffs[:, 0]
    assert np.abs(residual).max() < 1e-12


def test_diagonal_identity_structural(rng):
    p = random_potential(Order(2), 5, rng)
    v, s = forward_map(p)
    for n in range(1, 6):
        for j in (1, 2, 3):
            assert s.table[n - 1, j - 1] == v.table[j - 1, n - 1, n - 1]


def test_triangular_causality(rng):
    order = Order(2)
    p = random_potential(order, 6, rng)
    perturbed = np.array(p.coeffs)
    perturbed[:, 5] += 0.01
    v1, _ = forward_map(p)
    v2, _ = forward_map(PotentialCoefficients(order, 6, perturbed))
    assert np.array_equal(v1.table[:, :, :5], v2.table[:, :, :5])
    assert not np.array_equal(v1.table[:, :, 5], v2.table[:, :, 5])


def test_truncation_stability(rng):
    order = Order(2)
    p = random_potential(order, 8, rng)
    v8, s8 = forward_map(p)
    v5, s5 = forward_map(PotentialCoefficients(order, 5, p.coeffs[:, :5]))
    assert np.abs(v8.table[:, :5, :5] - v5.table).max() <= 1e-13
    assert np.abs(s8.table[:5] - s5.table).max() <= 1e-13


def test_q_from_p_scalings():
    p1 = PotentialCoefficients(Order(1), 2, np.array([[0.3, 0.1]], dtype=complex))
    assert np.allclose(q_from_p(p1), -p1.coeffs)
    coeffs = np.zeros((3, 2), dtype=complex)
    coeffs[1, 0] = 0.2j
    p2 = PotentialCoefficients(Order(2), 2, coeffs)
    q = q_from_p(p2)
    assert q[1, 0] == pytest.approx(-1j * 0.2j)
    # round trip with the inverse scaling
    g = np.arange(3)
    back = (-1) ** 2 * (1j) ** g[:, None] * q
    assert np.allclose(back, p2.coeffs)


def test_series_q_differs_by_parity_sign():
    p = PotentialCoefficients(Order(1), 1, np.array([[0.5]], dtype=complex))
    assert series_q(p)[0, 0] == pytest.approx(0.5)
    assert q_from_p(p)[0, 0] == pytest.approx(-0.5)


def closed_form_v(m: int, n_max: int, eps: complex) -> np.ndarray:
    """V[j, n, alpha] of the single mode p_{0,1} = eps, in scalar arithmetic.

    With one mode the recurrence is Q_alpha a_alpha = -eps a_{alpha-1}, so
    V[j, n, alpha] = (1 - w_j) (-eps)^alpha / (Q'_n(k_nj) prod_{r <= alpha, r != n} Q_r(k_nj)),
    each Q_r(k) = prod_l (i r + k (1 - w_l)) a product of its linear factors
    (Gasymov's m = 1 formula, for every m).
    """
    roots = [cmath.exp(1j * math.pi * l / m) for l in range(2 * m)]
    v = np.zeros((2 * m - 1, n_max, n_max), dtype=complex)
    for j in range(1, 2 * m):
        for n in range(1, n_max + 1):
            k = -1j * n / (1 - roots[j])
            factors = [1j * n + k * (1 - w) for w in roots]
            factors[j] = 1 - roots[j]
            den = math.prod(factors)
            for r in range(1, n):
                den *= math.prod(1j * r + k * (1 - w) for w in roots)
            for alpha in range(n, n_max + 1):
                if alpha > n:
                    den *= math.prod(1j * alpha + k * (1 - w) for w in roots)
                v[j - 1, n - 1, alpha - 1] = (1 - roots[j]) * (-eps) ** alpha / den
    return v


@pytest.mark.parametrize("m, n_max", [(1, 16), (2, 16), (3, 12), (4, 12), (6, 10), (12, 8), (16, 6), (20, 4)])
def test_single_mode_matches_the_closed_form_entrywise(m, n_max):
    # measured at most 3.2e-13, at (12, 8); the d-coefficient sweeps this map replaced
    # were off by 8.6e-10 at (1, 16) and by a factor 1e72 at (6, 10)
    coeffs = np.zeros((2 * m - 1, n_max), dtype=complex)
    coeffs[0, 0] = 0.3 - 0.2j
    v, s = forward_map(PotentialCoefficients(Order(m), n_max, coeffs))
    want = closed_form_v(m, n_max, coeffs[0, 0])
    upper = np.triu(np.ones((n_max, n_max), dtype=bool))
    assert (np.abs(v.table - want)[:, upper] <= 1e-12 * np.abs(want)[:, upper]).all()
    diagonal = np.diagonal(want, axis1=1, axis2=2).T
    assert (np.abs(s.table - diagonal) <= 1e-12 * np.abs(diagonal)).all()

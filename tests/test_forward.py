import numpy as np
import pytest

from conftest import random_potential
from invspec import (Order, PotentialCoefficients, VTable, diag_solve, forward_map,
                     left_factor, offdiag_step, q_from_p, series_q)
from invspec.polyalg import d_coeffs_a


def single_mode_m1(eps: complex, n_max: int = 4) -> PotentialCoefficients:
    coeffs = np.zeros((1, n_max), dtype=complex)
    coeffs[0, 0] = eps
    return PotentialCoefficients(Order(1), n_max, coeffs)


def test_zero_potential_maps_to_zero():
    p = PotentialCoefficients.zeros(Order(2), 5)
    v, s = forward_map(p)
    assert np.all(v.table == 0)
    assert np.all(s.table == 0)


def test_left_factor_m1_closed_form():
    order = Order(1)
    for n in (1, 2, 3):
        for alpha in (2, 4, 7):
            assert left_factor(order, n, alpha, 1) == pytest.approx(alpha * (alpha - n))


def test_single_mode_m1_chain():
    eps = 0.1
    v, s = forward_map(single_mode_m1(eps))
    # first-order diagonal is exactly linear: S_11 = i eps
    assert s.entry(1, 1) == pytest.approx(1j * eps, abs=1e-15)
    # hand recurrence values for the one-mode cascade
    assert v.entry(1, 1, 2) == pytest.approx(1j * eps ** 2 / 2, abs=1e-15)
    assert v.entry(1, 1, 3) == pytest.approx(1j * eps ** 3 / 12, abs=1e-15)
    assert s.entry(2, 1) == pytest.approx(-1j * eps ** 2 / 2, abs=1e-15)
    assert s.entry(3, 1) == pytest.approx(1j * eps ** 3 / 12, abs=1e-15)


def test_single_mode_decay_rate():
    eps = 0.1
    _, s = forward_map(single_mode_m1(eps, n_max=6))
    for n in range(1, 7):
        assert abs(s.entry(n, 1)) <= eps ** n


def test_offdiag_step_single_term():
    eps = 0.2 - 0.1j
    p = single_mode_m1(eps, n_max=3)
    v, _ = forward_map(p)
    value = offdiag_step(p, v, 1, 2, 1)
    assert value == pytest.approx(eps * v.entry(1, 1, 1) / 2)


def test_first_order_linearity(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 4, rng)
        _, s1 = forward_map(p)
        _, s2 = forward_map(p.scaled(2.0))
        assert np.allclose(2.0 * s1.table[0], s2.table[0], atol=0, rtol=1e-13)


def test_diag_solve_m2_backsubstitution(rng):
    order = Order(2)
    p = random_potential(order, 1, rng, scale=0.5)
    v = VTable.zeros(order, 1)
    diag = diag_solve(p, v, 1)
    a = np.zeros((3, 3), dtype=complex)
    for j in (1, 2, 3):
        a[:, j - 1] = d_coeffs_a(order, 1, 1, j)
    residual = a @ diag + p.coeffs[:, 0]
    assert np.abs(residual).max() < 1e-12


def test_diagonal_identity_structural(rng):
    p = random_potential(Order(2), 5, rng)
    v, s = forward_map(p)
    for n in range(1, 6):
        for j in (1, 2, 3):
            assert s.entry(n, j) == v.entry(j, n, n)


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
    v5, s5 = forward_map(p.truncated(5))
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


@pytest.mark.parametrize("m, n_max", [(1, 16), (2, 24), (3, 12), (4, 8)])
def test_stored_diagonal_factors_keep_v_bitwise(monkeypatch, m, n_max):
    # reference: build the same right-hand side, then factor the diagonal
    # system afresh at every column through lu_solve
    from invspec import forward, linalg

    solved = []

    def refactoring(kern, pc, col, conv, alpha):
        solved.append(alpha)
        k, size = alpha - 1, (alpha - 1) * kern.order.j_count
        rhs = -pc[:, k] - conv - col[:size] @ kern.d_a[k, :k].reshape(size, pc.shape[0])
        return linalg.lu_solve(kern.d_a[k, k].T, rhs)

    p = random_potential(Order(m), n_max, np.random.default_rng(m * 100 + n_max), scale=0.3)
    stored, _ = forward_map(p)
    monkeypatch.setattr(forward, "_diag_values", refactoring)
    refactored, _ = forward_map(p)
    assert solved == list(range(1, n_max + 1))
    assert np.array_equal(stored.table, refactored.table)

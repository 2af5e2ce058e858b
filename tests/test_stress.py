"""Round trips and kernel identities past the acceptance sizes (N <= 8, m <= 2)."""
import numpy as np
import pytest

from conftest import kernel_weight, random_potential
from invspec import (Order, PotentialCoefficients, contraction_conditions, forward_map, inverse_map,
                     roots_of_unity, v_from_s)
from invspec.kernel import diagonal_kernel

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
    contraction = contraction_conditions(s).condition_ii_p
    assert 60 < contraction < 70
    assert relative(inverse_map(s).coeffs, p.coeffs) <= 3e-14


def scalar_q(m: int, alpha: int, k: complex, j: int = 0) -> complex:
    """Q_alpha(k) = (k + i alpha)^2m - k^2m in scalar arithmetic; with j, Q'_alpha(k)."""
    if j:
        return 2 * m * ((k + 1j * alpha) ** (2 * m - 1) - k ** (2 * m - 1))
    return (k + 1j * alpha) ** (2 * m) - k ** (2 * m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_tensors_match_scalar_coefficients(m):
    # the kernel builds Q as a product of its linear factors; the difference form, in scalar
    # arithmetic, agrees to its own cancellation at these sizes.  The weights at n < alpha are
    # the mirror weights of column alpha - n, whose divisor Q_{alpha-n}(w_j k_nj) is Q_alpha(k_nj)
    order = Order(m)
    n_max = 8
    kern = diagonal_kernel(m, n_max)
    w = roots_of_unity(order)[1:]
    for n in range(1, n_max + 1):
        for j in range(1, order.j_count + 1):
            pole = (n - 1) * order.j_count + j - 1
            c = n / (1 - w[j - 1])
            for gamma in range(order.gamma_count):
                assert kern.g0[gamma, pole] == c ** gamma
                assert kern.g0[gamma, n_max * order.j_count + pole] == (c - n) ** gamma
            for alpha in range(1, n_max + 1):
                q = scalar_q(m, alpha, -1j * c, j if alpha == n else 0)
                weights = kernel_weight(kern, alpha, n, j)
                for gamma in range(order.gamma_count):
                    want = (c - alpha) ** gamma * (-1 / q)
                    assert abs(weights[gamma] - want) <= 1e-13 * abs(want)
                if alpha == n:
                    want = -q / (1 - w[j - 1])
                    assert abs(kern.t_scale[alpha - 1, j - 1] - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("m, n_max", [(4, 24), (5, 20), (6, 24), (7, 20), (8, 20)])
def test_round_trip_past_order_four(m, n_max):
    # (6, 24), (7, 20) and (8, 20) were refused before the pole recurrence, by the
    # pivot ratio of a diagonal solve and by a division remainder.  The error
    # weighted by n^gamma, as p's own norm (weighted_norm), stays small; the
    # unweighted error of the top coefficients grows with cond(T_1), which is intrinsic
    order = Order(m)
    worst = weighted = 0.0
    for draw in range(3):
        p = random_potential(order, n_max, np.random.default_rng([m, n_max, draw]))
        _, s = forward_map(p)
        back = inverse_map(s)
        worst = max(worst, relative(back.coeffs, p.coeffs))
        error = PotentialCoefficients(order, n_max, back.coeffs - p.coeffs)
        weighted = max(weighted, error.weighted_norm() / p.weighted_norm())
    assert weighted <= 1e-9, f"weighted {weighted:.2e}, unweighted {worst:.2e}"

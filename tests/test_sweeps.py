"""The matvec column sweeps against the einsum contractions they replaced.

The oracles below are the earlier forward, v_from_s and p_from_v sweeps, one
einsum per column or offset over tables in their original layouts, and the
per-column order in which the earlier forward sweep met its guards.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_potential
from invspec import (Order, diag_solve, forward, forward_map, linalg, offdiag_step, p_from_v, polyalg,
                     roots_of_unity, v_from_s)
from invspec.errors import (DivisionRemainderError, ResonantIndexError, SingularMatrixError,
                            SingularSystemError)
from invspec.kernel import diagonal_kernel

SIZES = [(1, 64), (2, 64), (3, 32), (4, 32)]


def relative(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def old_left(order: Order, n_max: int) -> np.ndarray:
    """Left factors as [n, alpha, j]."""
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    return (modes[None, :, None] - c[:, None, :]) ** (2 * order.m) - c[:, None, :] ** (2 * order.m)


def einsum_forward(p) -> np.ndarray:
    order, n_max = p.order, p.n_max
    kern = diagonal_kernel(order.m, n_max)
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    weights = (1j * (modes[None, None, :] - c[:, :, None]))[..., None] ** np.arange(order.gamma_count)
    left = old_left(order, n_max)
    pc = p.coeffs
    v = np.zeros((order.j_count, n_max, n_max), dtype=complex)
    w = np.zeros((n_max, order.gamma_count, order.gamma_count), dtype=complex)
    for k in range(n_max):
        acc = np.einsum("njsg,gs,jns->jn", weights[:k, :, :k], pc[:, :k][:, ::-1], v[:, :k, :k])
        v[:, :k, k] = (-1) ** (order.m + 1) * acc / left[:k, k].T
        conv = np.einsum("vr,rvg->g", pc[:, :k], w[:k][::-1])
        a_term = np.einsum("njg,jn->g", kern.d_a[k], v[:, :, k])
        v[:, k, k] = linalg.lu_solve(kern.d_a[k, k].T, -pc[:, k] - conv - a_term)
        w[k] = np.einsum("njvg,jn->vg", kern.d_b[k], v[:, :, k])
    return v


def einsum_v_from_s(s) -> np.ndarray:
    order, n_max = s.order, s.n_max
    w = roots_of_unity(order)[1:]
    modes = np.arange(1, n_max + 1)
    inv_den = 1 / (modes[:, None, None, None] * w[None, :, None, None] * (1 - w)[None, None, None, :]
                   - modes[None, None, :, None] * (1 - w)[None, :, None, None])
    lead = 1j * (1 - w) * s.table
    v = np.zeros((order.j_count, n_max, n_max), dtype=complex)
    rows = np.arange(n_max)
    v[:, rows, rows] = s.table.T
    for beta in range(1, n_max):
        head = rows[:n_max - beta]
        acc = np.einsum("njrl,lr->nj", inv_den[:n_max - beta, :, :beta], v[:, :beta, beta - 1])
        v[:, head, head + beta] = (lead[:n_max - beta] * acc).T
    return v


def einsum_p_from_v(v) -> np.ndarray:
    kern = diagonal_kernel(v.order.m, v.n_max)
    w = np.einsum("snjvg,jns->svg", kern.d_b, v.table)
    a_terms = np.einsum("anjg,jna->ag", kern.d_a, v.table)
    p = np.zeros((v.order.gamma_count, v.n_max), dtype=complex)
    for k in range(v.n_max):
        p[:, k] = -(np.einsum("vr,rvg->g", p[:, :k], w[:k][::-1]) + a_terms[k])
    return p


def term_magnitudes(v, p) -> np.ndarray:
    """For each entry of p, the sum of the magnitudes of the terms p_from_v adds up."""
    kern = diagonal_kernel(v.order.m, v.n_max)
    w = np.einsum("snjvg,jns->svg", np.abs(kern.d_b), np.abs(v.table))
    a_terms = np.einsum("anjg,jna->ag", np.abs(kern.d_a), np.abs(v.table))
    return np.array([np.einsum("vr,rvg->g", np.abs(p[:, :k]), w[:k][::-1]) + a_terms[k]
                     for k in range(v.n_max)]).T


@pytest.mark.parametrize("m, n_max", SIZES)
def test_sweeps_match_einsum_oracles(m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng(m * 1000 + n_max))
    v, s = forward_map(p)
    assert relative(v.table, einsum_forward(p)) <= 1e-14
    assert relative(v_from_s(s).table, einsum_v_from_s(s)) <= 1e-14
    # the relation cancels terms far larger than p at m = 4 (about 3e3 times
    # at (4, 32)), so p is compared against the magnitude of what it sums
    want = einsum_p_from_v(v)
    assert (np.abs(p_from_v(v).coeffs - want) / term_magnitudes(v, want)).max() <= 1e-14


def sweep_guards(kern, left_tol: float, cond_limit: float) -> None:
    """The guards in the order the earlier forward sweep met them, column by column."""
    order = kern.order
    n_max = kern.d_a.shape[0]
    left = old_left(order, n_max)
    scale = (np.arange(1, n_max + 1)[:, None] / np.abs(1 - roots_of_unity(order)[1:])) ** (2 * order.m)
    for alpha in range(1, n_max + 1):
        small = np.abs(left[:alpha - 1, alpha - 1]) <= left_tol * scale[alpha - 1]
        if small.any():
            n, j = np.argwhere(small)[0] + 1
            raise ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                                     indices=(int(n), alpha, int(j)))
        kern.check_remainders(alpha, diag_first=True)
        a_mat = kern.d_a[alpha - 1, alpha - 1].T
        if linalg.pivot_ratio(a_mat) > cond_limit:
            raise SingularSystemError(f"diagonal system at alpha={alpha} is numerically singular", alpha=alpha)
        linalg.lu_solve(a_mat, np.zeros(order.gamma_count))


def raised(fn) -> tuple:
    try:
        fn()
    except (ResonantIndexError, DivisionRemainderError, SingularSystemError, SingularMatrixError) as exc:
        return type(exc), str(exc)
    return None, ""


@pytest.mark.parametrize("m, n_max, left_tol, cond_limit, rtol", [
    (1, 16, 0.5, 1e12, 1e-9),
    (1, 16, 0.5, 1e12, 1e-16),
    (2, 10, 0.5, 5.0, 1e-9),
    (2, 10, 1.0, 5.0, 1e-9),
    (2, 10, 1.0, 1e12, 1e-16),
    (2, 8, 1e-12, 5.0, 1e-16),
    (3, 8, 1e-12, 30.0, -1.0),
    (3, 8, 1e-12, 50.0, 1e-16),
    (3, 6, 0.5, 50.0, 1e-16),
    (4, 8, 0.3, 1e6, 1e-13),
    (4, 8, 1e-12, 1e12, 1e-9),
])
def test_guards_raise_where_the_column_sweep_meets_them(monkeypatch, m, n_max, left_tol, cond_limit, rtol):
    monkeypatch.setattr(polyalg, "REMAINDER_RTOL", rtol)
    p = random_potential(Order(m), n_max, np.random.default_rng(3))
    kern = diagonal_kernel(m, n_max)
    want = raised(lambda: sweep_guards(kern, left_tol, cond_limit))
    assert raised(lambda: forward_map(p, left_tol=left_tol, cond_limit=cond_limit)) == want


def test_two_guards_at_one_column_raise_the_first_in_column_order():
    # alpha = 4 has a resonant left factor at left_tol 1 and a pivot ratio above 5
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    with pytest.raises(SingularSystemError) as info:
        forward_map(p, cond_limit=5.0)
    assert info.value.alpha == 4
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p, left_tol=1.0)
    assert info.value.indices == (3, 4, 1)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p, left_tol=1.0, cond_limit=5.0)
    assert info.value.indices == (3, 4, 1)


def test_guards_at_different_columns_raise_the_earlier_column():
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p, left_tol=0.5)
    assert info.value.indices == (9, 10, 1)
    with pytest.raises(SingularSystemError) as info:
        forward_map(p, left_tol=0.5, cond_limit=5.0)
    assert info.value.alpha == 4


def test_zero_pivot_guard_order():
    # a kernel whose diagonal system at alpha = 3 has an exactly zero pivot
    real = diagonal_kernel(2, 6)
    lu = np.array(real.diag_lu)
    lu[2, 1, 1] = 0.0
    ratio = np.array(real.diag_ratio)
    ratio[2] = linalg.factor_ratio(lu[2])
    kern = SimpleNamespace(**{**vars(real), "diag_lu": lu, "diag_ratio": ratio})
    kern.check_remainders = real.check_remainders
    columns = slice(0, 6)
    with pytest.raises(SingularSystemError) as info:
        forward._check_columns(kern, columns, 1e-12, 1e12)
    assert info.value.alpha == 3
    with pytest.raises(SingularMatrixError) as info:
        forward._check_columns(kern, columns, 1e-12, np.inf)
    assert info.value.pivot_index == 1
    # left_tol 1 first trips at alpha = 4, left_tol 2 at alpha = 2
    with pytest.raises(SingularMatrixError):
        forward._check_columns(kern, columns, 1.0, np.inf)
    with pytest.raises(ResonantIndexError) as info:
        forward._check_columns(kern, columns, 2.0, np.inf)
    assert info.value.indices == (1, 2, 1)
    forward._check_columns(kern, slice(3, 6), 1e-12, np.inf)


def test_substitution_matches_numpy_solve(rng):
    for side in (1, 3, 5, 7):
        a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        b = rng.normal(size=side) + 1j * rng.normal(size=side)
        lu, piv, _ = linalg.lu_factor(a)
        x = linalg.substitute(lu, piv, b)
        assert np.abs(x - np.linalg.solve(a, b)).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("m, n_max", [(1, 6), (2, 8), (3, 5)])
def test_single_entry_steps_reproduce_the_sweep(m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng(11))
    v, _ = forward_map(p)
    scale = np.abs(v.table).max()
    for alpha in range(1, n_max + 1):
        assert np.array_equal(diag_solve(p, v, alpha), v.table[:, alpha - 1, alpha - 1])
        for n in range(1, alpha):
            for j in range(1, 2 * m):
                assert abs(offdiag_step(p, v, n, alpha, j) - v.entry(j, n, alpha)) <= 1e-15 * scale

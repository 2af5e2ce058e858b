"""The planned column sweeps against the sweeps they replaced.

The oracles below are the earlier forward, v_from_s and p_from_v sweeps: one
einsum per column or offset over tables in their original layouts, checked to
rounding; the per-column slicing sweeps over the kernel's tables, checked bit
for bit; the forward tables padded to the widest column, against which each
packed column block is checked bit for bit; the per-matrix LU
(conftest.reference_pivots), against which the kernel's batched pivot moduli
are checked bit for bit; and the per-column order in which the earlier
forward sweep met its guards, over full guard tables that the kernel no
longer stores.  The last tests check that the pooled workspaces
carry nothing from one call to the next and are never shared: between calls,
across threads, or with a returned table.
"""
import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_potential, random_spectral, reference_pivots
from invspec import (Order, VTable, forward, forward_map, inverse_map, kernel, p_from_v, polyalg,
                     roots_of_unity, v_from_s)
from invspec.errors import DivisionRemainderError, ResonantIndexError, SingularMatrixError, SingularSystemError
from invspec.kernel import DiagonalKernel, diagonal_kernel

SIZES = [(1, 64), (2, 64), (3, 32), (4, 32)]
PLAN_SIZES = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 8, 32, 64) if m < 4 or n <= 32]


def relative(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def old_left(order: Order, n_max: int) -> np.ndarray:
    """Left factors as [n, alpha, j]."""
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    return (modes[None, :, None] - c[:, None, :]) ** (2 * order.m) - c[:, None, :] ** (2 * order.m)


def reference_negligible(d: np.ndarray) -> np.ndarray:
    """The pivot moduli of one matrix a solve treats as zero."""
    return (d <= kernel.PIVOT_TOL * max(d.max(), 1.0)) | (d == 0)


def reference_ratio(d: np.ndarray) -> float:
    """max / min of one matrix's pivot moduli; inf at a zero pivot."""
    return float(d.max() / d.min()) if d.min() else np.inf


def checked_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b after the per-matrix LU's pivot check, as the earlier sweeps did: the
    last negligible pivot, which back substitution meets first, raises."""
    small = np.flatnonzero(reference_negligible(reference_pivots(a)))
    if small.size:
        raise SingularMatrixError(f"negligible pivot at index {small[-1]}", pivot_index=int(small[-1]))
    return np.linalg.solve(a, b)


def dense_d_b(kern) -> np.ndarray:
    """The kernel's d_b pairs in the original layout d_b[s, n, j, nu, gamma], zero at gamma >= nu."""
    size = kern.order.gamma_count
    nu, gamma = np.tril_indices(size, -1)
    dense = np.zeros(kern.d_b.shape[:-1] + (size, size), dtype=complex)
    dense[..., nu, gamma] = kern.d_b
    return dense


def einsum_forward(p) -> np.ndarray:
    order, n_max = p.order, p.n_max
    kern = diagonal_kernel(order.m, n_max)
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    weights = (1j * (modes[None, None, :] - c[:, :, None]))[..., None] ** np.arange(order.gamma_count)
    left = old_left(order, n_max)
    d_b = dense_d_b(kern)
    pc = p.coeffs
    v = np.zeros((order.j_count, n_max, n_max), dtype=complex)
    w = np.zeros((n_max, order.gamma_count, order.gamma_count), dtype=complex)
    for k in range(n_max):
        acc = np.einsum("njsg,gs,jns->jn", weights[:k, :, :k], pc[:, :k][:, ::-1], v[:, :k, :k])
        v[:, :k, k] = (-1) ** (order.m + 1) * acc / left[:k, k].T
        conv = np.einsum("vr,rvg->g", pc[:, :k], w[:k][::-1])
        a_term = np.einsum("njg,jn->g", kern.d_a[k], v[:, :, k])
        v[:, k, k] = checked_solve(kern.d_a[k, k].T, -pc[:, k] - conv - a_term)
        w[k] = np.einsum("njvg,jn->vg", d_b[k], v[:, :, k])
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
    w = np.einsum("snjvg,jns->svg", dense_d_b(kern), v.table)
    a_terms = np.einsum("anjg,jna->ag", kern.d_a, v.table)
    p = np.zeros((v.order.gamma_count, v.n_max), dtype=complex)
    for k in range(v.n_max):
        p[:, k] = -(np.einsum("vr,rvg->g", p[:, :k], w[:k][::-1]) + a_terms[k])
    return p


def term_magnitudes(v, p) -> np.ndarray:
    """For each entry of p, the sum of the magnitudes of the terms p_from_v adds up."""
    kern = diagonal_kernel(v.order.m, v.n_max)
    w = np.einsum("snjvg,jns->svg", np.abs(dense_d_b(kern)), np.abs(v.table))
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


@pytest.mark.parametrize("n_max", [1, 2, 16])
def test_order_one_has_no_convolution(n_max):
    kern = diagonal_kernel(1, n_max)
    assert kern.d_b.shape == (n_max, n_max, 1, 0)
    p = random_potential(Order(1), n_max, np.random.default_rng(n_max))
    v, s = forward_map(p)
    # the plan forms no moment pair in the forward appends and runs no causal loop
    assert kern.pool and all(append[-1] is None for ws in kern.pool for append in ws.appends)
    assert all(not ws.causal for ws in kern.pool)
    assert relative(v.table, einsum_forward(p)) <= 1e-14
    want = einsum_p_from_v(v)
    assert relative(p_from_v(v).coeffs, want) <= 1e-14
    want = einsum_p_from_v(VTable(s.order, n_max, einsum_v_from_s(s)))
    assert relative(inverse_map(s).coeffs, want) <= 1e-14


def full_remainders(order: Order, n_max: int) -> tuple:
    """Every relative division remainder of the d-coefficient tables, rem_a[alpha, n, j] and rem_b[s, n, j, nu]."""
    modes = np.arange(1, n_max + 1)
    return (polyalg.d_a_table(order, modes, modes)[1],
            polyalg.d_b_table(order, modes, modes, order.gamma_count - 1)[1])


def check_reads(order: Order, remainders: tuple, alpha: int, diag_first: bool) -> None:
    """Raise at the first coefficient column alpha reads, in reading order, whose
    remainder in the full tables exceeds polyalg.REMAINDER_RTOL."""
    rem_a, rem_b = remainders
    jc = range(1, order.j_count + 1)
    reads = [(rem_a[alpha - 1, alpha - 1, j - 1], alpha, j) for j in jc] if diag_first else []
    reads += [(rem_b[s - 1, n - 1, j - 1, nu], n, j) for nu in range(1, order.gamma_count)
              for s in range(alpha - 1, 0, -1) for j in jc for n in range(1, s + 1)]
    last = alpha - 1 if diag_first else alpha
    reads += [(rem_a[alpha - 1, n - 1, j - 1], n, j) for j in jc for n in range(1, last + 1)]
    for rel, n, j in reads:
        if rel > polyalg.REMAINDER_RTOL:
            raise polyalg.remainder_error(rel, n, j)


def sweep_guards(kern, left_tol: float, cond_limit: float, columns=None) -> None:
    """The guards in the order the earlier forward sweep met them, column by column, over full tables;
    at every column, or at the given ones."""
    order = kern.order
    n_max = kern.d_a.shape[0]
    left = old_left(order, n_max)
    remainders = full_remainders(order, n_max)
    scale = (np.arange(1, n_max + 1)[:, None] / np.abs(1 - roots_of_unity(order)[1:])) ** (2 * order.m)
    for alpha in columns or range(1, n_max + 1):
        small = np.abs(left[:alpha - 1, alpha - 1]) <= left_tol * scale[alpha - 1]
        if small.any():
            n, j = np.argwhere(small)[0] + 1
            raise ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                                     indices=(int(n), alpha, int(j)))
        check_reads(order, remainders, alpha, diag_first=True)
        a_mat = kern.d_a[alpha - 1, alpha - 1].T
        if reference_ratio(reference_pivots(a_mat)) > cond_limit:
            raise SingularSystemError(f"diagonal system at alpha={alpha} is numerically singular", alpha=alpha)
        checked_solve(a_mat, np.zeros(order.gamma_count))


def reads_guards(order: Order, n_max: int) -> None:
    """p_from_v's guard over full tables: the first remainder, in reading order, of the first column it trips."""
    remainders = full_remainders(order, n_max)
    for alpha in range(1, n_max + 1):
        check_reads(order, remainders, alpha, diag_first=False)


def raised(fn) -> tuple:
    try:
        fn()
    except (ResonantIndexError, DivisionRemainderError, SingularSystemError, SingularMatrixError) as exc:
        return type(exc), str(exc), getattr(exc, "indices", None), getattr(exc, "alpha", None)
    return None, "", None, None


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
    # past the acceptance sizes, where the kernel keeps only the guards' floors
    (3, 32, 0.3, 1e12, 1e-9),
    (3, 32, 1e-12, 50.0, 1e-9),
    (3, 32, 1e-12, 1e12, 1e-15),
    (3, 32, 1e-12, 1e12, 1e-16),
    (4, 32, 0.07, 1e12, 1e-9),
    (4, 32, 1e-12, 1e6, 1e-9),
    (4, 32, 1e-12, 1e12, 3e-14),
])
def test_guards_raise_where_the_column_sweep_meets_them(guard_constants, m, n_max, left_tol, cond_limit,
                                                        rtol):
    guard_constants(LEFT_FACTOR_RTOL=left_tol, COND_LIMIT=cond_limit, REMAINDER_RTOL=rtol)
    p = random_potential(Order(m), n_max, np.random.default_rng(3))
    kern = diagonal_kernel(m, n_max)
    want = raised(lambda: sweep_guards(kern, left_tol, cond_limit))
    assert raised(lambda: forward_map(p)) == want


@pytest.mark.parametrize("m, n_max, rtol", [(3, 32, 1e-16), (3, 32, 1e-15), (4, 32, 3e-14)])
def test_inverse_remainder_guard_matches_the_full_tables(guard_constants, m, n_max, rtol):
    guard_constants(REMAINDER_RTOL=rtol)
    data = random_spectral(Order(m), n_max, np.random.default_rng(4))
    want = raised(lambda: reads_guards(Order(m), n_max))
    assert want[0] is DivisionRemainderError
    assert raised(lambda: inverse_map(data)) == want


def column_resonance_hits(guard_constants, left_tol: float, factor: float) -> list:
    """Check the one-column resonance guard of an m = 3 kernel whose j = 2m - 1 scale is multiplied
    by factor against the full table of left factors; the resonant entries of each column, n then j."""
    m, n_max = 3, 8
    guard_constants(LEFT_FACTOR_RTOL=left_tol, COND_LIMIT=np.inf)
    real = diagonal_kernel(m, n_max)
    left = np.abs(old_left(Order(m), n_max))
    kern = copy.copy(real)
    kern.left_scale = real.left_scale * np.where(np.arange(2 * m - 1) == 2 * m - 2, factor, 1.0)
    columns = []
    for alpha in range(2, n_max + 1):
        hits = [(n, alpha, j) for n in range(1, alpha) for j in range(1, 2 * m)
                if left[n - 1, alpha - 1, j - 1] <= left_tol * kern.left_scale[alpha - 1, j - 1]]
        got = raised(lambda: forward._check_column(kern, alpha))
        assert got[0] is (ResonantIndexError if hits else None)
        assert got[2] == (hits[0] if hits else None)
        columns.append(hits)
    return columns


@pytest.mark.parametrize("left_tol", [0.5, 3.0])
def test_single_entry_resonance_guard_matches_the_full_table(guard_constants, left_tol):
    # at 0.5 only the roots j = 1, 2m - 1 resonate, at 3.0 the middle ones too
    columns = column_resonance_hits(guard_constants, left_tol, 1.0)
    tripped = sum(len(hits) for hits in columns)
    assert 0 < tripped < 8 * 7 // 2 * 5


def test_resonance_guard_reports_the_first_entry_of_its_column_in_n_then_j_order(guard_constants):
    # j = 1 resonates first at every n of the real kernel, so both orders agree
    # there; doubling the scale of j = 2m - 1 makes it resonate at smaller n
    columns = column_resonance_hits(guard_constants, 0.5, 2.0)
    # a column whose first hit in j-then-n order is another entry
    assert any(hits and hits[0] != min(hits, key=lambda hit: (hit[2], hit[0])) for hits in columns)


def test_remainder_guard_reports_the_first_planted_read_in_reading_order(monkeypatch):
    # over-tolerance remainders at three reads of column 4: d_b(n, s=3, nu=1, j=1)
    # at n = 1 and n = 3, one group of the reading order, and d_a(n=1, 4, j=1), read last
    m, n_max = 2, 6
    planted_b = {(3, 1, 1, 1): 2.0, (3, 3, 1, 1): 3.0}  # (s, n, j, nu)
    planted_a = {(4, 1, 1): 4.0}  # (alpha, n, j)
    real_a, real_b = polyalg.d_a_table, polyalg.d_b_table

    def at(modes, mode):
        return np.flatnonzero(np.asarray(modes) == mode)

    def d_a_table(order, alphas, ns):
        d, rel = real_a(order, alphas, ns)
        for (alpha, n, j), value in planted_a.items():
            rel[at(alphas, alpha), at(ns, n), j - 1] = value
        return d, rel

    def d_b_table(order, ss, ns, nu_max):
        d, rel = real_b(order, ss, ns, nu_max)
        for (s, n, j, nu), value in planted_b.items():
            rel[at(ss, s), at(ns, n), j - 1, nu] = value
        return d, rel

    monkeypatch.setattr(polyalg, "d_a_table", d_a_table)
    monkeypatch.setattr(polyalg, "d_b_table", d_b_table)
    kern = DiagonalKernel(m, n_max)
    assert np.flatnonzero(kern.read_remainder > polyalg.REMAINDER_RTOL)[0] == 3
    assert kern.forward_refusal == kern.inverse_refusal == 4
    for diag_first in (True, False):
        want = raised(lambda: check_reads(Order(m), full_remainders(Order(m), n_max), 4, diag_first))
        assert want[1] == "nonzero remainder dividing at pole (n=1, j=1): 2.000e+00 of the numerator scale"
        assert raised(lambda: kern.check_remainders(4, diag_first)) == want
    want = raised(lambda: sweep_guards(kern, 1e-12, 1e12))
    assert want[0] is DivisionRemainderError
    assert raised(lambda: forward._check_column(kern, kern.forward_refusal)) == want


def test_two_guards_at_one_column_raise_the_first_in_column_order(guard_constants):
    # alpha = 4 has a resonant left factor at left_tol 1 and a pivot ratio above 5
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    guard_constants(COND_LIMIT=5.0)
    with pytest.raises(SingularSystemError) as info:
        forward_map(p)
    assert info.value.alpha == 4
    guard_constants(LEFT_FACTOR_RTOL=1.0, COND_LIMIT=1e12)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p)
    assert info.value.indices == (3, 4, 1)
    guard_constants(COND_LIMIT=5.0)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p)
    assert info.value.indices == (3, 4, 1)


def test_guards_at_different_columns_raise_the_earlier_column(guard_constants):
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    guard_constants(LEFT_FACTOR_RTOL=0.5)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p)
    assert info.value.indices == (9, 10, 1)
    guard_constants(COND_LIMIT=5.0)
    with pytest.raises(SingularSystemError) as info:
        forward_map(p)
    assert info.value.alpha == 4


def test_the_default_kernel_maps_cleanly_after_a_patched_test():
    # the tests above build refusing kernels at (2, 10); the fixture drops them
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    _, s = forward_map(p)
    kern = diagonal_kernel(2, 10)
    assert kern.forward_refusal is None and kern.inverse_refusal is None
    assert relative(inverse_map(s).coeffs, p.coeffs) <= 1e-12


def test_a_clean_kernel_maps_without_the_diagnosis(monkeypatch):
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    v, s = forward_map(p)

    def unreachable(*args):
        raise AssertionError("a clean kernel ran the guard diagnosis")

    monkeypatch.setattr(forward, "_check_column", unreachable)
    monkeypatch.setattr(DiagonalKernel, "check_remainders", unreachable)
    again = forward_map(p)
    assert np.array_equal(again[0].table, v.table) and np.array_equal(again[1].table, s.table)
    inverse_map(s)


def plant_zero_column(monkeypatch) -> None:
    """Zero d_a(n = 3, alpha = 3, j = 2) in the tables a kernel at m = 2 builds from: the diagonal
    system at alpha = 3 gets a zero column, and its elimination an exactly zero pivot at index 1."""
    real_table = polyalg.d_a_table

    def singular_table(*args):
        d_a, rem = real_table(*args)
        d_a = np.array(d_a)
        d_a[2, 2, 1] = 0.0
        return d_a, rem

    monkeypatch.setattr(polyalg, "d_a_table", singular_table)


def test_zero_pivot_guard_order(monkeypatch, guard_constants):
    plant_zero_column(monkeypatch)
    p = random_potential(Order(2), 6, np.random.default_rng(3))
    guard_constants()
    with pytest.raises(SingularSystemError) as info:
        forward_map(p)
    assert info.value.alpha == 3
    guard_constants(COND_LIMIT=np.inf)
    with pytest.raises(SingularMatrixError) as info:
        forward_map(p)
    assert info.value.pivot_index == 1
    # left_tol 1 first trips at alpha = 4, left_tol 2 at alpha = 2
    guard_constants(LEFT_FACTOR_RTOL=1.0)
    with pytest.raises(SingularMatrixError):
        forward_map(p)
    guard_constants(LEFT_FACTOR_RTOL=2.0)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p)
    assert info.value.indices == (1, 2, 1)
    guard_constants(LEFT_FACTOR_RTOL=1e-12)
    kern = diagonal_kernel(2, 6)
    assert kern.forward_refusal == 3
    for alpha in range(4, 7):
        forward._check_column(kern, alpha)


def reference_guard(kern) -> tuple:
    """The per-matrix elimination's pivot moduli and ratios of the kernel's diagonal systems."""
    pivots = np.array([reference_pivots(kern.d_a[k, k].T) for k in range(kern.n_max)])
    return pivots, np.array([reference_ratio(d) for d in pivots])


@pytest.mark.parametrize("m, n_max, refusal", [
    # the roundtrip sizes, then the two sizes past them that the forward map refuses
    (1, 64, None), (2, 32, None), (2, 64, None), (3, 32, None), (6, 24, 22), (8, 20, 5),
])
def test_batched_pivot_guard_equals_the_per_matrix_elimination(m, n_max, refusal):
    kern = diagonal_kernel(m, n_max)
    pivots, ratio = reference_guard(kern)
    assert same_bits(kern.diag_pivots, pivots)
    assert same_bits(kern.diag_ratio, ratio)
    assert kern.forward_refusal == refusal
    tol, limit = kernel.LEFT_FACTOR_RTOL, kernel.COND_LIMIT
    if refusal is None:
        assert raised(lambda: sweep_guards(kern, tol, limit)) == (None, "", None, None)
    else:
        # (6, 24) is refused by its pivot ratio, (8, 20) by a division remainder
        assert raised(lambda: sweep_guards(kern, tol, limit, range(1, refusal)))[0] is None
        want = raised(lambda: sweep_guards(kern, tol, limit, [refusal]))
        assert want[0] is (SingularSystemError if m == 6 else DivisionRemainderError)
        assert raised(lambda: forward._check_column(kern, refusal)) == want


def test_batched_pivot_guard_at_a_planted_zero_pivot(monkeypatch, guard_constants):
    plant_zero_column(monkeypatch)
    kern = DiagonalKernel(2, 6)
    pivots, ratio = reference_guard(kern)
    assert same_bits(kern.diag_pivots, pivots)
    assert same_bits(kern.diag_ratio, ratio)
    assert kern.diag_pivots[2, 1] == 0 and kern.diag_ratio[2] == np.inf
    assert kern.forward_refusal == 3
    guard_constants(COND_LIMIT=np.inf)
    want = raised(lambda: sweep_guards(kern, kernel.LEFT_FACTOR_RTOL, np.inf, [3]))
    assert want[0] is SingularMatrixError
    assert raised(lambda: forward._check_column(kern, 3)) == want


def test_pivot_moduli_flag_a_singular_matrix(rng):
    # a stack with exactly zero pivots, one skipped before the last step: a zero first column,
    # a zero middle column and the zero matrix; equal rows; and equal-modulus pivot candidates
    stack = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    stack[1, :, 0] = 0.0
    stack[2, :, 2] = 0.0
    stack[3, 3] = stack[3, 1]
    stack[4] = 0.0
    stack[5, :, 0] = [1.0, -1.0, 1j, -1j, 1.0]
    got = kernel.pivot_moduli(stack)
    assert same_bits(got, np.array([reference_pivots(a) for a in stack]))
    assert got[1, 0] == got[2, 2] == 0.0 and not got[4].any()
    for d in got:
        assert np.array_equal(kernel.negligible(d), reference_negligible(d))
    assert np.array_equal(kernel.negligible(got[[0, 1, 2, 4]]).any(axis=1), [False, True, True, True])
    singular = kernel.pivot_moduli(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
    assert singular[0, 1] == 0.0 and kernel.negligible(singular)[0, 1]


def test_pivot_moduli_measure_bad_conditioning():
    pivots = kernel.pivot_moduli(np.array([np.eye(4), np.diag([1.0, 1e-14, 1.0, 1.0])]))
    ratio = pivots.max(axis=1) / pivots.min(axis=1)
    assert ratio[0] == 1.0 and ratio[1] > 1e12
    assert not kernel.negligible(pivots).any()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [8, 32])
def test_response_table_solves_the_diagonal_relation(m, n_max):
    kern = diagonal_kernel(m, n_max)
    rng = np.random.default_rng(m * 100 + n_max)
    size = jc = 2 * m - 1
    worst = 0.0
    for k in range(n_max):
        off = k * jc
        acc = rng.normal(size=size + off) + 1j * rng.normal(size=size + off)
        p = rng.normal(size=size) + 1j * rng.normal(size=size)
        # the right-hand side the diagonal solve assembled column by column
        rhs = -p - acc[:size] - (acc[size:] * kern.left_recip[k]) @ kern.d_a[k, :k].reshape(off, size)
        want = np.linalg.solve(kern.d_a[k, k].T, rhs)
        got = acc @ kern.response[k] + p @ kern.p_share[k]
        worst = max(worst, relative(got, want))
        # the block holds only the rows column k reads
        assert kern.response[k].shape == (size + off, jc)
    assert worst <= 1e-13  # measured <= 6e-14, at (4, 32) where d_a(31, 31) has condition 1e9


def test_response_build_tolerates_a_singular_diagonal_system(monkeypatch, guard_constants):
    # the kernel still builds without a warning, and refuses only that column
    plant_zero_column(monkeypatch)
    kern = DiagonalKernel(2, 6)
    assert all(np.isfinite(response).all() for response in kern.response)
    assert kern.forward_refusal == 3 and kern.inverse_refusal is None
    with pytest.raises(SingularSystemError) as info:
        forward._check_column(kern, 3)
    assert info.value.alpha == 3
    for alpha in (1, 2, 4, 5, 6):
        forward._check_column(kern, alpha)
    guard_constants(COND_LIMIT=np.inf)
    with pytest.raises(SingularMatrixError) as info:
        forward._check_column(kern, 3)
    assert info.value.pivot_index == 1


def padded_forward_tables(kern) -> tuple:
    """response[alpha, row, j], weights[s, gamma, n*j] and left_recip[alpha, n*j], each column
    padded to the widest column with the entries no sweep reads, and the full |L| as [alpha, n, j]."""
    order, n_max = kern.order, kern.n_max
    m, size = order.m, order.gamma_count
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    shift = 1j * (modes[:, None, None] - c)
    weights = (shift[:, None] ** np.arange(size)[None, :, None, None]).reshape(n_max, size, -1)
    left = (modes[:, None, None] - c) ** (2 * m) - c ** (2 * m)
    lower = np.tri(n_max, k=-1, dtype=bool)[..., None]
    left_recip = np.divide((-1) ** (m + 1), left, out=np.zeros_like(left), where=lower).reshape(n_max, -1)
    system = np.array(kern.d_a[modes - 1, modes - 1].transpose(0, 2, 1))
    system[[reference_negligible(reference_pivots(a)).any() for a in system]] = np.eye(size)
    inv = np.linalg.inv(system)
    wide = np.clongdouble
    inv = inv + inv @ (np.eye(size) - system.astype(wide) @ inv.astype(wide)).astype(complex)
    rows = np.concatenate([np.broadcast_to(np.eye(size), (n_max, size, size)),
                           left_recip[..., None] * kern.d_a.reshape(n_max, -1, size)], axis=1)
    return -(rows @ inv.transpose(0, 2, 1)), weights, left_recip, np.abs(left)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, signed zeros included."""
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                                 np.ascontiguousarray(b).view(np.uint8))


@pytest.mark.parametrize("m, n_max", PLAN_SIZES)
def test_packed_forward_tables_equal_the_padded_tables_bitwise(m, n_max):
    kern = diagonal_kernel(m, n_max)
    response, weights, left_recip, abs_left = padded_forward_tables(kern)
    size = jc = 2 * m - 1
    for k in range(n_max):
        off = k * jc
        assert same_bits(kern.response[k], response[k, :size + off])
        assert same_bits(kern.p_share[k], response[k, :size])
        assert same_bits(kern.left_recip[k], left_recip[k, :off])
        assert not left_recip[k, off:].any()
        if k < n_max - 1:
            assert same_bits(kern.weights[k], weights[k, :, :off + jc])
        assert same_bits(kern.abs_left(k + 1), abs_left[k, :k])
        assert same_bits(kern.left_floor[k], abs_left[k, :k].min(axis=0, initial=np.inf))
    # no column reads the moments of column N, so its weights are not stored
    assert len(kern.weights) == n_max - 1
    # each table is one read-only flat buffer holding its blocks back to back
    for blocks in (kern.response, kern.weights, kern.left_recip):
        if blocks:
            flat = blocks[0].base
            assert not flat.flags.writeable and flat.size == sum(block.size for block in blocks)
            assert all(block.base is flat and not block.flags.writeable for block in blocks)


@pytest.mark.parametrize("m, n_max", [(1, 1), (1, 16), (2, 8), (3, 32), (4, 16)])
def test_denominator_floor_and_recomputed_entries_equal_the_full_table(m, n_max):
    kern = diagonal_kernel(m, n_max)
    w = roots_of_unity(Order(m))[1:]
    modes = np.arange(1, n_max + 1)
    den = (modes[None, None, :, None] * w[None, None, None, :] * (1 - w)[None, :, None, None]
           - modes[:, None, None, None] * (1 - w)[None, None, None, :])
    assert same_bits(kern.inv_den, 1 / den)


def slicing_forward(p) -> tuple[np.ndarray, np.ndarray]:
    """The forward sweep that slices the kernel's tables anew at every column: V[j, n, alpha] and S."""
    order, n_max = p.order, p.n_max
    kern = diagonal_kernel(order.m, n_max)
    size = jc = order.j_count
    nu, gamma = np.tril_indices(size, -1)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    moments = np.zeros((n_max, size, size + n_max * jc), dtype=complex)
    lags = np.ascontiguousarray(p.coeffs[:, ::-1].T).ravel()
    p_terms = (p.coeffs.T[:, None] @ kern.p_share)[:, 0]
    for k in range(n_max):
        col, off, n = cols[k], k * jc, (k + 1) * jc
        acc = lags[lags.size - k * size:] @ moments[:k, :, :size + off].reshape(k * size, size + off)
        np.multiply(acc[size:], kern.left_recip[k], out=col[:off])
        col[off:off + jc] = acc @ kern.response[k] + p_terms[k]
        if k < n_max - 1:
            moments[k, nu, gamma] = col[:n] @ kern.d_b[k, :k + 1].reshape(n, nu.size)
            np.multiply(kern.weights[k], col[:n], out=moments[k, :, size:size + n])
    return v.transpose(2, 1, 0), v.reshape(n_max * n_max, jc)[::n_max + 1]


def slicing_v_columns(s) -> np.ndarray:
    """The offset sweep that slices its operands anew at every offset: V as columns V[alpha, n, j]."""
    n_max, jc = s.n_max, s.order.j_count
    lead = (1j * (1 - roots_of_unity(s.order)[1:]) * s.table).ravel()
    inv_den = diagonal_kernel(s.order.m, n_max).inv_den.reshape(n_max * jc, -1)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    flat = v.reshape(n_max * n_max, jc)
    flat[::n_max + 1] = s.table
    for beta in range(1, n_max):
        head = (n_max - beta) * jc
        acc = cols[beta - 1, :beta * jc] @ inv_den[:beta * jc, :head]
        flat[beta * n_max::n_max + 1] = (lead[:head] * acc).reshape(-1, jc)
    return v


def slicing_p(order: Order, cols: np.ndarray) -> np.ndarray:
    """The causal sweep that slices its operands anew at every column, from columns V[alpha, n, j]."""
    n_max, size = cols.shape[0], order.gamma_count
    kern = diagonal_kernel(order.m, n_max)
    cols = cols.reshape(n_max, 1, -1)
    nu, gamma = np.tril_indices(size, -1)
    w = np.zeros((n_max, size, size), dtype=complex)
    w[:, nu, gamma] = -(cols @ kern.d_b.reshape(n_max, cols.shape[-1], nu.size))[:, 0]
    w = w.reshape(n_max * size, size)
    a_terms = (cols @ kern.d_a.reshape(n_max, cols.shape[-1], -1))[:, 0]
    lags = np.zeros(n_max * size, dtype=complex)
    for k in range(n_max):
        at = (n_max - k) * size
        lags[at - size:at] = lags[at:] @ w[:k * size] - a_terms[k]
    return lags.reshape(n_max, size)[::-1].T


@pytest.mark.parametrize("m, n_max", PLAN_SIZES)
def test_planned_sweeps_equal_the_slicing_sweeps_bitwise(m, n_max):
    order = Order(m)
    for seed in range(3):
        rng = np.random.default_rng([m, n_max, seed])
        p = random_potential(order, n_max, rng)
        v, s = forward_map(p)
        want_v, want_s = slicing_forward(p)
        assert np.array_equal(v.table, want_v)
        assert np.array_equal(s.table, want_s)
        assert np.array_equal(p_from_v(v).coeffs, slicing_p(order, want_v.transpose(2, 1, 0)))
        data = random_spectral(order, n_max, rng)
        cols = slicing_v_columns(data)
        assert np.array_equal(v_from_s(data).table, cols.transpose(2, 1, 0))
        assert np.array_equal(inverse_map(data).coeffs, slicing_p(order, cols))
        assert np.array_equal(inverse_map(s).coeffs, slicing_p(order, slicing_v_columns(s)))


def workspace_arrays(kern) -> list:
    """Every array of every pooled workspace of kern."""
    return [a for ws in kern.pool for a in vars(ws).values() if isinstance(a, np.ndarray)]


def written_entries(kern, ws) -> list:
    """(buffer, mask) for each buffer of ws: the entries some sweep writes.

    Every buffer is written whole except three: V only in its n <= alpha
    triangle, the moment rows only at their own columns' weighted entries and
    pairs, and w only at the pairs.
    """
    n_max, size = kern.n_max, kern.order.gamma_count
    jc = kern.order.j_count
    v = np.tri(n_max, dtype=bool)[..., None].repeat(jc, axis=-1)
    moments = np.zeros(ws.moments.shape, dtype=bool)
    for s in range(n_max - 1):
        rows = moments[s * size:(s + 1) * size]
        rows[:, size:size + (s + 1) * jc] = True
        rows.reshape(-1)[kern.moment_at] = True
    w = np.zeros((n_max, size * size), dtype=bool)
    w[:, kern.pair_at] = True
    partial = [(ws.columns, v), (ws.moments, moments), (ws.w_blocks, w)]
    whole = [(a, np.ones(a.shape, dtype=bool))
             for a in (ws.acc, ws.lags, ws.p_terms, ws.lead, ws.pair_w, ws.a_terms)]
    return partial + whole


def every_call(p, v, s) -> list:
    """Each sweep entry point on (p, v, s), as a call returning its arrays."""
    return [lambda: forward_map(p)[0].table, lambda: forward_map(p)[1].table, lambda: v_from_s(s).table,
            lambda: p_from_v(v).coeffs, lambda: inverse_map(s).coeffs]


@pytest.mark.parametrize("m, n_max", [(1, 1), (1, 16), (2, 32), (3, 12)])
def test_a_nan_poisoned_workspace_gives_the_same_results(m, n_max):
    # a workspace is zeroed once: every entry a sweep writes may hold anything
    # from an earlier call, and every other entry must still read zero
    p = random_potential(Order(m), n_max, np.random.default_rng([m, n_max]))
    v, s = forward_map(p)
    kern = diagonal_kernel(m, n_max)
    for call in every_call(p, v, s):
        want = call()
        assert kern.pool
        for ws in kern.pool:
            for buffer, written in written_entries(kern, ws):
                buffer[written] = complex(np.nan, np.nan)
        assert np.array_equal(call(), want)
        for ws in kern.pool:
            assert not any(buffer[~written].any() for buffer, written in written_entries(kern, ws))


def round_trip(p) -> tuple:
    v, s = forward_map(p)
    return v.table, s.table, inverse_map(s).coeffs


def test_threads_sharing_a_kernel_get_the_serial_results():
    ps = [random_potential(Order(2), 32, np.random.default_rng([2, 32, i])) for i in range(16)]
    serial = [round_trip(p) for p in ps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(round_trip, ps, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_returned_tables_share_no_memory_with_the_workspaces():
    p = random_potential(Order(2), 16, np.random.default_rng(5))
    v, s = forward_map(p)
    results = [v.table, s.table, v_from_s(s).table, p_from_v(v).coeffs, inverse_map(s).coeffs]
    kept = [a.copy() for a in results]
    q = p.scaled(3.0)
    w, t = forward_map(q)
    v_from_s(t)
    p_from_v(w)
    inverse_map(t)
    assert all(np.array_equal(a, b) for a, b in zip(results, kept))
    buffers = workspace_arrays(diagonal_kernel(2, 16))
    assert buffers
    assert not any(np.shares_memory(a, b) for a in results for b in buffers)


def test_sweep_tables_are_frozen_triangular_copies():
    # the sweeps' tables skip VTable's triangle check; a checked VTable accepts them
    p = random_potential(Order(2), 16, np.random.default_rng(6))
    v, s = forward_map(p)
    for table in (v, v_from_s(s)):
        assert not table.table.flags.writeable and table.table.flags.c_contiguous
        assert np.array_equal(VTable(table.order, table.n_max, table.table).table, table.table)

"""The planned pole-recurrence sweeps against their references.

The oracles below are the paper's diagonal relation (diagonal_relation.py),
read as one einsum per column, which the forward map's V and the input p
satisfy to rounding; the earlier v_from_s sweep, one einsum per offset; the
residue recurrence the forward map ran before its mirror sweep, checked entry
by entry; the sweeps that slice the kernel's tables anew at every column,
checked bit for bit; the kernel's tables built entry by entry on separate (n,
j) axes, against which its packed point axis is checked bit for bit; and the
kernel's closed-form lower bound on every divisor of the sweeps.  The last
tests check that the pooled workspaces carry nothing from one call to the next
and are never shared: between calls, across threads, or with a returned table.
"""
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from conftest import kernel_weight, random_potential, random_spectral
from diagonal_relation import p_from_v, relation_tables, term_magnitudes
from invspec import Order, PotentialCoefficients, VTable, forward_map, inverse_map, roots_of_unity, series_q, v_from_s
from invspec.kernel import Workspace, diagonal_kernel

SIZES = [(1, 64), (2, 64), (3, 32), (4, 32)]
PLAN_SIZES = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 8, 32, 64) if m < 4 or n <= 32]


def relative(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def old_left(order: Order, n_max: int) -> np.ndarray:
    """Left factors as [n, alpha, j]."""
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - roots_of_unity(order)[1:])
    return (modes[None, :, None] - c[:, None, :]) ** (2 * order.m) - c[:, None, :] ** (2 * order.m)


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


@pytest.mark.parametrize("m, n_max", SIZES)
def test_sweeps_match_einsum_oracles(m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng(m * 1000 + n_max))
    v, s = forward_map(p)
    # the relation cancels terms far larger than p at m = 4 (about 3e3 times
    # at (4, 32)), so p is compared against the magnitude of what it sums
    assert (np.abs(p_from_v(v) - p.coeffs) / term_magnitudes(v, p.coeffs)).max() <= 1e-14
    assert relative(v_from_s(s).table, einsum_v_from_s(s)) <= 1e-14


@pytest.mark.parametrize("n_max", [1, 2, 16])
def test_order_one_has_no_convolution(n_max):
    # at m = 1 the relation has no moment pairs: p = -sum d_a V, column by column
    assert not relation_tables(1, n_max)[1].any()
    p = random_potential(Order(1), n_max, np.random.default_rng(n_max))
    v, s = forward_map(p)
    assert relative(p_from_v(v), p.coeffs) <= 1e-14
    want = p_from_v(VTable(s.order, n_max, einsum_v_from_s(s)))
    assert relative(inverse_map(s).coeffs, want) <= 1e-14


def test_the_default_kernel_maps_cleanly_after_a_patched_test():
    # a kernel holds only the tables its sweeps read, fixed by (m, N): a round trip on it is clean
    p = random_potential(Order(2), 10, np.random.default_rng(3))
    _, s = forward_map(p)
    assert relative(inverse_map(s).coeffs, p.coeffs) <= 1e-12


def exact_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b for the complex values a and b hold, by Gauss-Jordan elimination
    in exact rational arithmetic on the real form [[Re a, -Im a], [Im a, Re a]], rounded once."""
    n = len(b)
    rows = [[Fraction(v.real) for v in row] + [Fraction(-v.imag) for v in row] + [Fraction(rhs.real)]
            for row, rhs in zip(a, b)]
    rows += [[Fraction(v.imag) for v in row] + [Fraction(v.real) for v in row] + [Fraction(rhs.imag)]
             for row, rhs in zip(a, b)]
    for col in range(2 * n):
        pivot = next(r for r in range(col, 2 * n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(2 * n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    x = [float(row[-1] / row[i]) for i, row in enumerate(rows)]
    return np.array(x[:n]) + 1j * np.array(x[n:])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [8, 32])
def test_response_table_solves_the_diagonal_relation(m, n_max):
    # solve is the inverse sweep's response table, each column's new
    # coefficients as its response to (t, d): at n = alpha the relation is sum_gamma c_alpha j^gamma sq[gamma, alpha] = t - d,
    # with c^gamma the weights g0 of column 0; the refined stacked product solves it
    # to about the rounding of its result, where T_alpha^-1 alone loses cond(T_1) (7e3 at m = 4)
    kern = diagonal_kernel(m, n_max)
    rng = np.random.default_rng(m * 100 + n_max)
    jc = 2 * m - 1
    worst = 0.0
    for k in range(n_max):
        t, d = rng.normal(size=(2, jc)) + 1j * rng.normal(size=(2, jc))
        x0 = kern.solve[k, :, :2 * jc] @ np.concatenate([t, d])
        got = kern.solve[k] @ np.concatenate([t, d, x0])
        want = exact_solve(kern.g0[:, k * jc:(k + 1) * jc].T, t - d)
        worst = max(worst, relative(got, want))
    assert worst <= 1e-13  # measured <= 1.5e-14 at (4, 32), where x0 alone is off by 3.8e-13


def padded_forward_tables(kern) -> tuple:
    """pn_w as [alpha, gamma, n, j], g0 as [gamma, n, j] and t_scale as [alpha, n, j], entry by
    entry: each Q_alpha(k_nj) the product of its 2m factors in l order, the l = j factor at n =
    alpha replaced by its derivative 1 - w_j.  pn_w[alpha] at n < alpha is the weight the residue
    recurrence applies to the residue at k_nj, and the mirror sweep at w_j k_nj."""
    order, n_max = kern.order, kern.n_max
    size = jc = order.j_count
    roots = roots_of_unity(order)
    w = roots[1:]
    modes = np.arange(1, n_max + 1)
    c = modes[:, None] / (1 - w)
    factors = np.empty((n_max, n_max, jc, 2 * order.m), dtype=complex)
    for alpha in modes:
        for n in modes:
            factors[alpha - 1, n - 1] = 1j * alpha + (-1j * c[n - 1])[:, None] * (1 - roots)
            if n == alpha:
                factors[alpha - 1, n - 1, range(jc), range(1, jc + 1)] = 1 - w
    q = np.array([np.prod(row) for row in factors.reshape(-1, 2 * order.m)]).reshape(n_max, n_max, jc)
    gamma = np.arange(size)[:, None, None]
    pn_w = np.stack([(c - alpha) ** gamma * (-1 / q[alpha - 1]) for alpha in modes])
    t_scale = np.stack([-q[alpha - 1, alpha - 1] / (1 - w) for alpha in modes])
    return pn_w, c ** gamma, t_scale


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, signed zeros included."""
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                                 np.ascontiguousarray(b).view(np.uint8))


@pytest.mark.parametrize("m, n_max", PLAN_SIZES)
def test_packed_forward_tables_equal_the_padded_tables_bitwise(m, n_max):
    # the kernel packs each point (n, j) into one flat axis, n-major, poles then mirrors, and
    # keeps of each column's weights only the points it reads: the poles n >= alpha, then the
    # mirrors n <= N - alpha, whose weights are pn_w[n + alpha] at the pole n
    kern = diagonal_kernel(m, n_max)
    pn_w, g0, t_scale = padded_forward_tables(kern)
    size = jc = 2 * m - 1
    modes = np.arange(1, n_max + 1)[:, None]
    mirror_g0 = (modes / (1 - roots_of_unity(Order(m))[1:]) - modes) ** np.arange(size)[:, None, None]
    assert same_bits(kern.g0, np.concatenate([g0, mirror_g0], axis=1).reshape(size, 2 * n_max * jc))
    assert same_bits(kern.t_scale, t_scale)
    for k in range(n_max):
        points = [pn_w[k, :, n] for n in range(k, n_max)]
        points += [pn_w[n + k + 1, :, n] for n in range(n_max - 1 - k)]
        assert same_bits(kern.weights[k], np.stack(points, axis=1).reshape(size, -1))
        assert same_bits(kern.solve[k, :, jc:2 * jc], -kern.solve[k, :, :jc])
    # one table holds every column's weights, N^2 (2m - 1)^2 entries
    assert all(block.base is kern.weights[0].base for block in kern.weights)
    assert kern.weights[0].base.size == n_max ** 2 * jc * size
    for table in (kern.g0, kern.t_scale, kern.solve, *kern.weights):
        assert not table.flags.writeable


def test_mirror_divisors_are_the_guarded_left_factors():
    # every divisor of the sweeps, 1 / |weight| at gamma = 0, meets the kernel's lemma: |Q_alpha(k_nj)|
    # >= |alpha - n| (alpha sin(pi / 2m))^(2m-1) at n != alpha, with equality at m = 1, and |Q'_alpha|
    # >= |1 - w_j| (alpha sin(pi / 2m))^(2m-1) at n = alpha
    for m in range(1, 17):
        n_max = 16 if m <= 4 else 8
        kern = diagonal_kernel(m, n_max)
        one_minus_w = 1 - roots_of_unity(Order(m))[1:]
        ratios = []
        for alpha in range(1, n_max + 1):
            floor = (alpha * np.sin(np.pi / (2 * m))) ** (2 * m - 1)
            for n in range(1, n_max + 1):
                for j in range(1, 2 * m):
                    divisor = 1 / abs(kernel_weight(kern, alpha, n, j)[0])
                    lead = abs(alpha - n) if n != alpha else abs(one_minus_w[j - 1])
                    ratios.append(divisor / (lead * floor))
        assert min(ratios) >= 1 - 1e-14
        if m == 1:
            assert min(ratios) <= 1 + 1e-14
    # at w_j k_nj the forward map divides by Q_beta(w_j k_nj) = Q_{n+beta}(k_nj), whose modulus
    # is the left factor |L[n + beta, n, j]| = |(n + beta - c_nj)^2m - c_nj^2m|.  Q_beta(w_j k_nj)
    # is evaluated here at the mirror point itself, as a product of its own factors (both measured
    # within 2.8e-14 of |L|, at (6, 12)); past m = 8 the difference form of L cancels
    for m, n_max in [(1, 16), (2, 24), (3, 16), (6, 12), (8, 10)]:
        kern = diagonal_kernel(m, n_max)
        roots = roots_of_unity(Order(m))
        lefts = np.abs(old_left(Order(m), n_max))
        for beta in range(1, n_max):
            for n in range(1, n_max - beta + 1):
                for j in range(1, 2 * m):
                    divisor = 1 / abs(kernel_weight(kern, n + beta, n, j)[0])
                    mirror = roots[j] * (-1j * n / (1 - roots[j]))
                    direct = abs(np.prod(1j * beta + mirror * (1 - roots)))
                    left = lefts[n - 1, n + beta - 1, j - 1]
                    assert abs(divisor - left) <= 1e-13 * left
                    assert abs(direct - left) <= 1e-13 * left


def residue_recurrence(p) -> np.ndarray:
    """V[j, n, alpha] by the residue recurrence the forward map ran before the mirror sweep: the
    residues at n < alpha sum the earlier columns' residues, in a table R that stays zero at n > s,
    weighted by pn_w[alpha] at n < alpha."""
    order, n_max = p.order, p.n_max
    kern = diagonal_kernel(order.m, n_max)
    size = jc = order.j_count
    pn_w = padded_forward_tables(kern)[0].reshape(n_max, size, n_max * jc)
    lags = np.ascontiguousarray(series_q(p)[:, ::-1].T).ravel()
    g = np.zeros(((n_max + 1) * size, n_max * jc), dtype=complex)
    g[:size] = kern.g0[:, :n_max * jc]
    res = np.zeros((n_max * size, n_max * jc), dtype=complex)
    acc = np.zeros(n_max * jc, dtype=complex)
    for k in range(n_max):
        lo, hi = k * jc, (k + 1) * jc
        lag = lags[(n_max - 1 - k) * size:]
        acc[:lo] = lag[size:] @ res[:k * size, :lo]
        acc[lo:] = lag @ g[:(k + 1) * size, lo:]
        g[(k + 1) * size:(k + 2) * size] = pn_w[k] * acc
        res[k * size:(k + 1) * size, :hi] = g[(k + 1) * size:(k + 2) * size, :hi]
    return (1 - kern.w)[:, None, None] * res[::size].reshape(n_max, n_max, jc).transpose(2, 1, 0)


@pytest.mark.parametrize("m, n_max", [(1, 64), (2, 64), (3, 32), (4, 24), (6, 24), (8, 20)])
def test_mirror_sweep_equals_the_residue_recurrence_entrywise(m, n_max):
    # measured <= 2.1e-14, at (6, 24), over these three draws of each size
    for seed in range(3):
        p = random_potential(Order(m), n_max, np.random.default_rng([m, n_max, seed]))
        v, _ = forward_map(p)
        want = residue_recurrence(p)
        upper = np.triu(np.ones((n_max, n_max), dtype=bool))
        assert not v.table[:, ~upper].any()
        assert (np.abs(v.table - want)[:, upper] <= 1e-13 * np.abs(want)[:, upper]).all()


def slicing_forward(p) -> tuple[np.ndarray, np.ndarray]:
    """The forward sweep that slices the kernel's tables anew at every column: V[j, n, alpha] and S."""
    order, n_max = p.order, p.n_max
    kern = diagonal_kernel(order.m, n_max)
    size = jc = order.j_count
    poles = n_max * jc
    lags = np.ascontiguousarray(series_q(p)[:, ::-1].T).ravel()
    g = np.zeros(((n_max + 1) * size, 2 * poles), dtype=complex)
    g[:size] = kern.g0
    for k in range(n_max):
        lo, end = k * jc, 2 * poles - (k + 1) * jc
        lag = lags[(n_max - 1 - k) * size:]
        g[(k + 1) * size:(k + 2) * size, lo:end] = kern.weights[k] * (lag @ g[:(k + 1) * size, lo:end])
    s = np.stack([(1 - kern.w) * g[n * size, (n - 1) * jc:n * jc] for n in range(1, n_max + 1)])
    v = np.zeros((jc, n_max, n_max), dtype=complex)
    for n in range(n_max):
        # V[j, n, n + beta] = S_nj a_beta(w_j k_nj)
        v[:, n, n:] = s[n][:, None] * g[:(n_max - n) * size:size, poles + n * jc:poles + (n + 1) * jc].T
    return v, s


def slicing_inverse(s) -> np.ndarray:
    """The inverse sweep that slices the kernel's tables anew at every column: p[gamma, n]."""
    order, n_max = s.order, s.n_max
    kern = diagonal_kernel(order.m, n_max)
    size = jc = order.j_count
    t = s.table * kern.t_scale
    lags = np.zeros(n_max * size, dtype=complex)
    g = np.zeros(((n_max + 1) * size, n_max * jc), dtype=complex)
    g[:size] = kern.g0[:, :n_max * jc]
    for k in range(n_max):
        lo, hi = k * jc, (k + 1) * jc
        lag = lags[(n_max - 1 - k) * size:]
        d = lag[size:] @ g[size:(k + 1) * size, lo:hi]
        x0 = kern.solve[k, :, :2 * jc] @ np.concatenate([t[k], d])
        lag[:size] = kern.solve[k] @ np.concatenate([t[k], d, x0])
        weights = kern.weights[k][:, jc:(n_max - k) * jc]
        g[(k + 1) * size:(k + 2) * size, hi:] = weights * (lag @ g[:(k + 1) * size, hi:])
    return lags.reshape(n_max, size)[::-1].T / (-1j) ** np.arange(size)[:, None]


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
        data = random_spectral(order, n_max, rng)
        assert np.array_equal(inverse_map(data).coeffs, slicing_inverse(data))
        assert np.array_equal(inverse_map(s).coeffs, slicing_inverse(s))


def written_entries(kern, ws) -> list:
    """(buffer, mask) for each buffer of ws: the entries some sweep writes.

    Every buffer is written whole except G, whose first block holds g0 and
    whose row s >= 1 is written at the poles n >= s and the mirrors n <= N - s.
    """
    n_max, size, jc = kern.n_max, kern.order.gamma_count, kern.order.j_count
    g = np.zeros((n_max + 1, size, 2, n_max, jc), dtype=bool)
    for s in range(1, n_max + 1):
        g[s, :, 0, s - 1:] = True
        g[s, :, 1, :n_max - s] = True
    whole = [(a, np.ones(a.shape, dtype=bool)) for a in (ws.lags, ws.acc, ws.u)]
    return [(ws.g, g.reshape(ws.g.shape))] + whole


def every_call(p, s) -> list:
    """Each sweep entry point on (p, s), as a call returning its arrays."""
    return [lambda: forward_map(p)[0].table, lambda: forward_map(p)[1].table, lambda: inverse_map(s).coeffs]


@pytest.mark.parametrize("m, n_max", [(1, 1), (1, 16), (2, 32), (3, 12)])
def test_a_nan_poisoned_workspace_gives_the_same_results(m, n_max):
    # a workspace is set once: every entry a sweep writes may hold anything
    # from an earlier call, and every other entry must still read as it was set
    p = random_potential(Order(m), n_max, np.random.default_rng([m, n_max]))
    _, s = forward_map(p)
    kern = diagonal_kernel(m, n_max)
    fresh = written_entries(kern, Workspace(kern))
    for call in every_call(p, s):
        want = call()
        assert kern.pool
        for ws in kern.pool:
            for buffer, written in written_entries(kern, ws):
                buffer[written] = complex(np.nan, np.nan)
        assert np.array_equal(call(), want)
        for ws in kern.pool:
            for (buffer, written), (initial, _) in zip(written_entries(kern, ws), fresh):
                assert np.array_equal(buffer[~written], initial[~written])


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
    results = [v.table, s.table, v_from_s(s).table, inverse_map(s).coeffs]
    kept = [a.copy() for a in results]
    q = PotentialCoefficients(p.order, p.n_max, 3.0 * p.coeffs)
    _, t = forward_map(q)
    inverse_map(t)
    assert all(np.array_equal(a, b) for a, b in zip(results, kept))
    buffers = [a for ws in diagonal_kernel(2, 16).pool for a in vars(ws).values() if isinstance(a, np.ndarray)]
    assert buffers
    assert not any(np.shares_memory(a, b) for a in results for b in buffers)


def test_sweep_tables_are_frozen_triangular_copies():
    # the sweeps' tables skip VTable's triangle check; a checked VTable accepts them, and
    # below the triangle they hold +0.0, as VTable stores it
    p = random_potential(Order(2), 16, np.random.default_rng(6))
    v, s = forward_map(p)
    below = np.tri(16, k=-1, dtype=bool)
    for table in (v, v_from_s(s)):
        assert not table.table.flags.writeable and table.table.flags.c_contiguous
        assert same_bits(VTable(table.order, table.n_max, table.table).table, table.table)
        assert same_bits(table.table[:, below], np.zeros((3, below.sum()), dtype=complex))

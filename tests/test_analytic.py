import tracemalloc

import numpy as np
import pytest

from conftest import random_potential, random_spectral
from diagonal_relation import k_pole
from invspec import (Order, PotentialCoefficients, SpectralData, VTable, forward_map, jump_residual,
                     marchenko_residual, ode_mode_residual, q0_from_kernel, q_from_p, roots_of_unity,
                     shift_spectral, v_from_s)
from invspec import analytic
from invspec.cli import build_parser
from invspec.errors import InputError
from series_oracle import (NearPoleError, eval_f, kernel_term_q0, kernel_terms, ode_residual,
                           product_marchenko, product_modes, transition_terms)


# The kernel, transformation operator and transition function in closed form,
# over the kernel's term tables: oracles for the identities below.

def kernel_K(v: VTable, t: float, u: float) -> complex:
    """Transformation kernel K(t, u) for u >= t >= 0."""
    if u < t:
        raise InputError(f"kernel requires u >= t, got t={t}, u={u}")
    kc, ka, kb, *_ = kernel_terms(v)
    if kc.size == 0:
        return 0j
    return complex(np.sum(kc * np.exp(ka * t + kb * u)))


def transform_lhs(v: VTable, t: float, k: complex) -> complex:
    """e^{i k t} + int_t^inf K(t, u) e^{i k u} du, integral in closed form.

    Converges for Im k > -1/2 where every u-rate keeps a negative real part;
    this is an independent route to the same value as eval_f.
    """
    kc, ka, kb, *_ = kernel_terms(v)
    val = np.exp(1j * k * t)
    if kc.size == 0:
        return complex(val)
    rates = kb + 1j * k
    if np.any(rates.real >= 0):
        raise InputError(f"transform integral diverges at Im k = {k.imag}; need Im k > -1/2")
    val += np.sum(kc * np.exp(ka * t) * (-np.exp(rates * t) / rates))
    return complex(val)


def transition(s: SpectralData, t: float, u: float) -> complex:
    """Transition function of the data, evaluated through its (t, u) term structure."""
    fc, fg, fh, _ = transition_terms(s)
    if fc.size == 0:
        return 0j
    return complex(np.sum(fc * np.exp(fg * t + fh * u)))


def kernel_diagonal(v: VTable, x: float) -> complex:
    """K(x, x), summed term by term."""
    kc, ka, kb, *_ = kernel_terms(v)
    return complex(np.sum(kc * np.exp((ka + kb) * x)))


def test_q0_is_2m_times_the_derivative_of_the_kernel_diagonal(rng):
    for m in (1, 2, 3):
        p = random_potential(Order(m), 6, rng)
        v, _ = forward_map(p)
        modes = q0_from_kernel(v)
        h = 1e-4
        for x in (0.2, 0.9):
            series = sum(q * np.exp(-alpha * x) for alpha, q in modes.items())
            # fourth-order central difference of K(x, x)
            diff = (8 * (kernel_diagonal(v, x + h) - kernel_diagonal(v, x - h))
                    - (kernel_diagonal(v, x + 2 * h) - kernel_diagonal(v, x - 2 * h))) / (12 * h)
            assert abs(series - 2 * m * diff) <= 1e-9 * abs(series)


def test_q0_matches_the_kernel_term_oracle():
    # every kernel term's diagonal rate is -alpha up to rounding, and the closed form, which
    # multiplies by -alpha exactly, matches the oracle's rate-sorted term sum mode by mode
    rng = np.random.default_rng(45)
    for m, n_max in [(1, 64), (2, 32), (3, 12), (4, 16), (6, 10), (6, 24)]:
        for scale in (0.05, 0.5):
            v, _ = forward_map(random_potential(Order(m), n_max, rng, scale=scale))
            _, ka, kb, kcol, _ = kernel_terms(v)
            assert np.abs(ka + kb + kcol).max() <= 1e-12 * n_max
            got, want = q0_from_kernel(v), kernel_term_q0(v)
            assert sorted(got) == sorted(want)
            top = max(map(abs, want.values()))
            assert all(abs(got[alpha] - want[alpha]) <= 1e-15 * top for alpha in want)


def test_q0_merges_the_terms_of_each_column():
    # columns 1 and 3 hold several terms at rates -alpha up to rounding; column 2 holds none
    order = Order(2)
    table = np.zeros((3, 3, 3), dtype=complex)
    table[:, 0, 0] = [0.1, 0.2j, -0.3]
    table[0, 1, 2] = 0.05
    table[2, 0, 2] = 0.07j
    table[1, 2, 2] = -0.02 + 0.01j
    v = VTable(order, 3, table)
    modes = q0_from_kernel(v)
    assert sorted(modes) == [1, 3]
    w = roots_of_unity(order)[1:]
    for alpha in (1, 3):
        terms = table[:, :, alpha - 1] / (1j * (1 - w))[:, None]
        assert modes[alpha] == pytest.approx(-2 * order.m * alpha * terms.sum(), rel=1e-14, abs=0)


def test_eval_series_free_case():
    v = VTable(Order(2), 3, np.zeros((3, 3, 3)))
    t, k = 0.9, 0.7 - 0.2j
    assert eval_f(v, t, k) == pytest.approx(np.exp(1j * k * t))
    assert eval_f(v, t, k, deriv=2) == pytest.approx((1j * k) ** 2 * np.exp(1j * k * t))


def test_eval_phi_lambda_zero_is_regular(rng):
    # phi(x, lam) is eval_f(t = -i x, k = i lam), so lam = 0 is k = 0, where no pole lies
    p = random_potential(Order(1), 4, rng)
    v, _ = forward_map(p)
    value = eval_f(v, -0.3j, 0.0)
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    assert value == pytest.approx(scalar_eval_phi(v, 0.3, 0.0), rel=1e-13)


def test_eval_phi_pole_guard(rng):
    p = random_potential(Order(1), 4, rng)
    v, _ = forward_map(p)
    with pytest.raises(NearPoleError) as info:
        eval_f(v, -0.3j, 1j * (-0.5 + 1e-12))  # lambda_11 = -1/2 at m = 1, at k = i lambda
    assert info.value.indices == (1, 1)


def test_substitution_identity(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 5, rng)
        v, _ = forward_map(p)
        for (t, k) in [(0.5, 0.8), (1.2, 0.3 + 0.4j), (0.1, -1.1 + 0.2j)]:
            lhs = scalar_eval_phi(v, 1j * t, -1j * k)
            rhs = eval_f(v, t, k)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_f_asymptotics_large_t(rng):
    p = random_potential(Order(2), 4, rng)
    v, _ = forward_map(p)
    k = 0.6 + 0.1j
    rel = [abs(eval_f(v, t, k) / np.exp(1j * k * t) - 1.0) for t in (1.0, 3.0, 6.0)]
    assert rel[1] < rel[0] and rel[2] < rel[1]


def test_kernel_zero_and_single_entry():
    order = Order(1)
    assert kernel_K(VTable(order, 2, np.zeros((1, 2, 2))), 0.5, 1.0) == 0
    arr = np.zeros((1, 2, 2), dtype=complex)
    arr[0, 0, 1] = 3.0  # V_{12}
    v = VTable(order, 2, arr)
    w1 = roots_of_unity(order)[1]
    c = 1 / (1 - w1)
    t, u = 0.4, 0.9
    expected = 3.0 / (1j * (1 - w1)) * np.exp((-2 + c) * t - c * u)
    assert kernel_K(v, t, u) == pytest.approx(expected)
    with pytest.raises(InputError):
        kernel_K(v, 1.0, 0.5)


def test_transform_identity_independent_paths(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        v, _ = forward_map(p)
        for k in (0.9, 0.4 + 0.6j, 1.5 - 0.3j):
            for t in (0.0, 0.8, 2.0):
                lhs = transform_lhs(v, t, k)
                rhs = eval_f(v, t, k)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    with pytest.raises(InputError):
        transform_lhs(v, 0.5, -0.7j)  # Im k below the convergence strip


def test_transition_m1_single_entry():
    s_val = 0.3 + 0.1j
    table = np.zeros((2, 1), dtype=complex)
    table[0, 0] = s_val
    s = SpectralData(Order(1), 2, table)
    t, u = 0.6, 1.1
    expected = s_val / (2j) * np.exp(-(t + u) / 2)
    assert transition(s, t, u) == pytest.approx(expected)


def test_transition_m2_single_entry_rate():
    order = Order(2)
    table = np.zeros((1, 3), dtype=complex)
    table[0, 0] = 1.0
    s = SpectralData(order, 1, table)
    w1 = roots_of_unity(order)[1]
    expected = 1.0 / (1j * (1 - w1)) * np.exp((1 / (1 - w1)) * (0.5 * w1 - 1.2))
    assert transition(s, 0.5, 1.2) == pytest.approx(expected)


def test_marchenko_residual_zero_tables():
    order = Order(2)
    v, s = VTable(order, 3, np.zeros((3, 3, 3))), SpectralData(order, 3, np.zeros((3, 3)))
    assert marchenko_residual(v, s, 0.1, 0.4) == 0


def test_marchenko_residual_consistent_pairs(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        v, s = forward_map(p)
        grid = np.linspace(0.0, 3.0, 5)
        worst = max(abs(marchenko_residual(v, s, t, u)) for t in grid for u in grid if u >= t)
        assert worst <= 1e-9


def test_marchenko_residual_detects_perturbation(rng):
    order = Order(1)
    coeffs = np.zeros((1, 4), dtype=complex)
    coeffs[0, 0] = 0.05
    p = PotentialCoefficients(order, 4, coeffs)
    v, s = forward_map(p)
    bumped = np.array(s.table)
    bumped[0, 0] *= 1.1
    s_bad = SpectralData(order, 4, bumped)
    assert abs(marchenko_residual(v, s_bad, 0.0, 0.0)) > 1e-4


def test_marchenko_raw_residual_shrinks_with_depth(rng):
    order = Order(1)
    raws = []
    for n_max in (4, 6, 8):
        p = random_potential(order, n_max, np.random.default_rng(5))
        v, s = forward_map(p)
        raws.append(abs(product_marchenko(v, s, 0.0, 0.0, projected=False)[0]))
    assert raws[2] < raws[1] < raws[0]


def test_jump_relation_consistent_and_broken(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        v, s = forward_map(p)
        assert jump_residual(v, s) <= 1e-14
    # zeroing a diagonal entry removes the residue's leading term: the beta = 0 entry
    # reads |S_11| against the gap |S_11|, and every later entry of the row goes too
    broken = np.array(v.table)
    broken[0, 0, 0] = 0.0
    assert jump_residual(VTable(Order(2), 6, broken), s) == 1.0
    # an entry of the last row, n = N - 1, which the sampled check at n <= N / 2 never read
    broken = np.array(v.table)
    broken[1, 4, 5] *= 1 + 1e-6
    assert jump_residual(VTable(Order(2), 6, broken), s) > 1e-8


def test_ode_mode_residual_consistent_and_broken(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 8, rng)
        v, _ = forward_map(p)
        assert ode_mode_residual(p, v) <= 1e-14
        # only the last mode reads the last potential coefficients
        coeffs = np.array(p.coeffs)
        coeffs[0, 7] *= 1 + 1e-3
        assert ode_mode_residual(PotentialCoefficients(Order(m), 8, coeffs), v) > 1e-9
    # a mode whose terms are all zero reads 0, not 0 / 0
    assert ode_mode_residual(PotentialCoefficients(Order(2), 4, np.zeros((3, 4))),
                             VTable(Order(2), 4, np.zeros((3, 4, 4)))) == 0.0


def test_shift_spectral_rules(rng):
    s = SpectralData(Order(1), 3, np.array([[0.1], [0.2j], [0.3]], dtype=complex))
    assert np.array_equal(shift_spectral(s, 0.0).table, s.table)
    assert np.abs(shift_spectral(s, 2 * np.pi).table - s.table).max() < 1e-14
    damped = shift_spectral(s, 1j)
    for n in (1, 2, 3):
        assert damped.table[n - 1, 0] == pytest.approx(np.exp(-n) * s.table[n - 1, 0])
    both = shift_spectral(shift_spectral(s, 0.3 + 0.1j), 0.4)
    once = shift_spectral(s, 0.7 + 0.1j)
    assert np.abs(both.table - once.table).max() < 1e-15
    with pytest.raises(InputError):
        shift_spectral(s, -1j)


def test_q0_trace_zero_table():
    modes = q0_from_kernel(VTable(Order(1), 3, np.zeros((1, 3, 3))))
    assert modes == {}


def test_q0_trace_leading_mode(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        v, _ = forward_map(p)
        modes = q0_from_kernel(v)
        target = q_from_p(p)[2 * m - 2, 0]
        assert abs(modes[1] - target) <= 1e-8


def test_q0_leading_modes_stable_in_depth(rng):
    order = Order(2)
    p = random_potential(order, 8, rng)
    v8, _ = forward_map(p)
    v5, _ = forward_map(PotentialCoefficients(order, 5, p.coeffs[:, :5]))
    m8 = q0_from_kernel(v8)
    m5 = q0_from_kernel(v5)
    for n in (1, 2, 3):
        assert abs(m8[n] - m5[n]) <= 1e-12 * max(1.0, abs(m8[n]))


def test_ode_residual_halving(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 8, rng)
        v, _ = forward_map(p)
        for (t, k) in [(0.5, 0.9), (1.1, 0.4 + 0.3j)]:
            res = [abs(ode_residual(p, v, t, k, depth=d)) for d in (4, 6, 8)]
            assert res[1] <= 0.6 * res[0]
            assert res[2] <= 0.6 * res[1]


def test_periodic_equation_residual_m2(rng):
    # at even order parameter the series solves the periodic-variable equation
    # with the potential itself; check the residual through the derivatives of phi
    order = Order(2)
    p = random_potential(order, 8, rng)
    v, _ = forward_map(p)
    x, lam = 0.4, 0.45 + 0.15j
    res = []
    for depth in (4, 6, 8):
        val = (scalar_eval_phi(v, x, lam, deriv=4, depth=depth)
               - lam ** 4 * scalar_eval_phi(v, x, lam, depth=depth))
        for gamma in range(3):
            pg = sum(p.coeffs[gamma, n - 1] * np.exp(1j * n * x) for n in range(1, 9))
            val += pg * scalar_eval_phi(v, x, lam, deriv=gamma, depth=depth)
        res.append(abs(val))
    assert res[1] <= 0.6 * res[0]
    assert res[2] <= 0.6 * res[1]


# Scalar reference loops: the term-by-term sums the vectorised code replaces,
# and the same solution in the periodic variable, phi(x, lam) = eval_f(-i x, i lam),
# whose terms carry V_na / (i [n + lam (1 - w_j)]).

def scalar_eval_f(v, t, k, deriv=0, depth=None, pole_tol=1e-9):
    w = roots_of_unity(v.order)
    n_cap = v.n_max if depth is None else depth
    val = (1j * k) ** deriv * np.exp(1j * k * t)
    for j in range(1, v.order.j_count + 1):
        for alpha in range(1, n_cap + 1):
            rate = 1j * k - alpha
            for n in range(1, alpha + 1):
                den = 1j * n + k * (1 - w[j])
                if abs(den) <= pole_tol:
                    raise NearPoleError("pole", (n, j))
                val += v.table[j - 1, n - 1, alpha - 1] / den * rate ** deriv * np.exp(rate * t)
    return complex(val)


def scalar_eval_phi(v, x, lam, deriv=0, depth=None, pole_tol=1e-9):
    w = roots_of_unity(v.order)
    n_cap = v.n_max if depth is None else depth
    val = (1j * lam) ** deriv * np.exp(1j * lam * x)
    for j in range(1, v.order.j_count + 1):
        for alpha in range(1, n_cap + 1):
            rate = 1j * (lam + alpha)
            for n in range(1, alpha + 1):
                den = n + lam * (1 - w[j])
                if abs(den) <= pole_tol:
                    raise NearPoleError("pole", (n, j))
                val += v.table[j - 1, n - 1, alpha - 1] / (1j * den) * rate ** deriv * np.exp(rate * x)
    return complex(val)


def scalar_marchenko(v, s, t, u):
    """Projected Marchenko residual summed pair by pair, and the sum of the magnitudes of its terms."""
    w = roots_of_unity(v.order)
    jc = v.order.j_count
    kernel = [(v.table[j - 1, n - 1, a - 1] / (1j * (1 - w[j])), n / (1 - w[j]), a)
              for j in range(1, jc + 1) for a in range(1, v.n_max + 1) for n in range(1, a + 1)]
    trans = [(s.table[n - 1, j - 1] / (1j * (1 - w[j])), n / (1 - w[j]), w[j], n)
             for j in range(1, jc + 1) for n in range(1, s.n_max + 1)]
    terms = [kc * np.exp((c - a) * t - c * u) for kc, c, a in kernel]
    terms += [-fc * np.exp(d * wj * t - d * u) for fc, d, wj, _ in trans]
    for kc, c, a in kernel:
        for fc, d, wj, n in trans:
            if a + n <= min(v.n_max, s.n_max):
                rate = -c + d * wj
                terms.append(kc * fc * np.exp((-a + d * wj) * t - d * u) / rate)
    return complex(sum(terms)), sum(abs(x) for x in terms)


def test_series_match_scalar_loops(rng):
    for m in (1, 2, 3):
        p = random_potential(Order(m), 10, rng, scale=0.3)
        v, _ = forward_map(p)
        for deriv in (0, 1, 2 * m):
            for depth in (None, 4, 0):
                for t, k in [(0.5, 0.8), (1.2, 0.3 + 0.4j), (0.0, -1.1 + 0.2j)]:
                    want = scalar_eval_f(v, t, k, deriv, depth)
                    assert abs(eval_f(v, t, k, deriv, depth) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("k, pole_tol, first", [
    (k_pole(Order(2), 3, 2), 1e-9, (3, 2)),
    (k_pole(Order(2), 3, 2), 1.2, (2, 2)),  # catches the j = 2 poles n = 2, 3, 4
    (k_pole(Order(2), 3, 2), 2.0, (1, 1)),  # also poles of every other j
    (-0.5 - 1.5j, 1.6, (2, 2)),  # catches (n=1, j=3) too: j orders before n
])
def test_pole_guard_reports_the_scalar_loops_first_pole(rng, k, pole_tol, first):
    # phi(i t, -i k) is eval_f(t, k), with the same distances to the poles
    v, _ = forward_map(random_potential(Order(2), 6, rng))
    for scalar, args in [(scalar_eval_f, (0.4, k)), (scalar_eval_phi, (0.4j, -1j * k))]:
        for depth in (None, 3, 1):
            try:
                want = scalar(v, *args, depth=depth, pole_tol=pole_tol)
            except NearPoleError as exc:
                with pytest.raises(NearPoleError) as got:
                    eval_f(v, 0.4, k, depth=depth, pole_tol=pole_tol)
                assert got.value.indices == exc.indices
            else:
                assert eval_f(v, 0.4, k, depth=depth, pole_tol=pole_tol) == pytest.approx(want, rel=1e-13)
    with pytest.raises(NearPoleError) as full:
        eval_f(v, 0.4, k, pole_tol=pole_tol)
    assert full.value.indices == first


@pytest.mark.parametrize("m, n_max", [(2, 24), (3, 12)])
def test_marchenko_bilinear_form_matches_pairwise_sum(m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng(17))
    v, s = forward_map(p)
    bumped = SpectralData(Order(m), n_max, s.table * 1.01)
    for data in (s, bumped):
        for t, u in [(0.0, 0.0), (0.4, 1.1), (1.5, 3.0)]:
            want, scale = scalar_marchenko(v, data, t, u)
            assert abs(marchenko_residual(v, data, t, u) - want) <= 1e-13 * scale


@pytest.mark.parametrize("m, n_max", [(1, 8), (2, 16), (2, 24), (3, 12)])
def test_marchenko_point_arrays_match_scalar_calls_bitwise(m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng(23))
    v, s = forward_map(p)
    bumped = SpectralData(Order(m), n_max, s.table * 1.01)
    grid = np.linspace(0.0, 3.0, 5)
    t_idx, u_idx = np.triu_indices(grid.size)
    t, u = grid[t_idx], grid[u_idx]
    for data in (s, bumped):
        got = marchenko_residual(v, data, t, u)
        assert got.shape == (15,)
        # the gap series against the product form's own rounding
        for value, ti, ui in zip(got, t, u):
            want, scale = product_marchenko(v, data, ti, ui)
            assert abs(value - want) <= 4 * np.finfo(float).eps * scale
        assert np.array_equal(got, [marchenko_residual(v, data, ti, ui) for ti, ui in zip(t, u)])
    scalar = marchenko_residual(v, s, 0.4, 1.1)
    assert type(scalar) is complex
    # t and u broadcast: a column of t against a row of u
    cols = marchenko_residual(v, s, np.array([[0.0], [0.5]]), np.array([1.0, 2.0, 3.0]))
    assert cols.shape == (2, 3)
    assert cols[1, 2] == marchenko_residual(v, s, 0.5, 3.0)


@pytest.mark.parametrize("m, n_max", [(1, 8), (2, 10), (3, 10)])
def test_marchenko_residual_is_the_jump_gap_series(m, n_max):
    # every V entry perturbed by 1e-3 relative, so that no gap is at rounding
    rng = np.random.default_rng(31)
    v, s = forward_map(random_potential(Order(m), n_max, rng))
    noise = rng.normal(size=v.table.shape) + 1j * rng.normal(size=v.table.shape)
    v = VTable(Order(m), n_max, np.triu(v.table * (1 + 1e-3 * noise)))
    # entry by entry: the product form's coefficient of each mode (measured <= 2.7e-12 relative)
    gap, _ = analytic._jump_gaps(v, s)
    want, scale = product_modes(v, s)
    inside = scale > 0
    assert inside.sum() == n_max * (n_max + 1) // 2 * (2 * m - 1)
    assert not gap[~inside].any()
    got = (gap / (1j * (1 - roots_of_unity(Order(m))[1:])))[inside]
    assert (np.abs(got - want[inside]) <= 1e-11 * np.abs(want[inside])).all()
    # and the values at verify's 15 points (measured <= 4.4e-13 relative)
    grid = np.linspace(0.0, 3.0, 5)
    t_idx, u_idx = np.triu_indices(grid.size)
    for value, t, u in zip(marchenko_residual(v, s, grid[t_idx], grid[u_idx]), grid[t_idx], grid[u_idx]):
        want_value, _ = product_marchenko(v, s, t, u)
        assert abs(value - want_value) <= 1e-11 * abs(want_value)


def test_marchenko_reads_the_jump_gaps_more_weakly_than_the_jump_check():
    # V = v_from_s(S) for random S has every gap at rounding; a 1e-6 relative change to
    # V[1, 2, 24], an entry of size 8.2e-9, reads 5.8e-15 in the Marchenko residual and
    # 2.0e-7 in the jump check: the Marchenko check passes it at its default tolerance
    order, n_max = Order(2), 24
    s = random_spectral(order, n_max, np.random.default_rng(0), scale=1.0)
    table = np.array(v_from_s(s).table)
    table[0, 1, 23] *= 1 + 1e-6
    v = VTable(order, n_max, table)
    grid = np.linspace(0.0, 3.0, 5)
    t_idx, u_idx = np.triu_indices(grid.size)
    march = np.abs(marchenko_residual(v, s, grid[t_idx], grid[u_idx])).max()
    defaults = build_parser().parse_args(["verify", "--input", "unused.json"])
    assert march <= defaults.marchenko_tol
    assert jump_residual(v, s) > defaults.jump_tol


@pytest.mark.parametrize("m, n_max, limit_mb", [(2, 64, 4.0), (3, 32, 2.0)])
def test_marchenko_memory_grows_with_poles_not_term_pairs(m, n_max, limit_mb):
    # a table of every (kernel term, transition term) pair peaks at 30.3 MB at
    # (2, 64) and 10.7 MB at (3, 32) here; the gap table and its Cauchy factors
    # (1.8 and 0.9 MB) hold O(((2m - 1) N)^2) entries
    v, s = forward_map(random_potential(Order(m), n_max, np.random.default_rng(29)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        marchenko_residual(v, s, np.array([0.0, 0.7, 1.5]), np.array([0.5, 1.2, 3.0]))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


def test_gap_checks_refuse_tables_of_different_order_or_depth():
    v, s = forward_map(random_potential(Order(2), 6, np.random.default_rng(3)))
    for other in (SpectralData(Order(2), 5, s.table[:5]), SpectralData(Order(1), 6, np.zeros((6, 1)))):
        with pytest.raises(InputError, match="differ in order or depth"):
            marchenko_residual(v, other, 0.0, 1.0)
        with pytest.raises(InputError, match="differ in order or depth"):
            jump_residual(v, other)


def test_marchenko_point_arrays_refuse_u_below_t():
    p = random_potential(Order(2), 6, np.random.default_rng(3))
    v, s = forward_map(p)
    # the first offending point in C order is named
    with pytest.raises(InputError, match=r"t=2\.0, u=1\.5"):
        marchenko_residual(v, s, np.array([0.0, 2.0, 3.0]), np.array([1.0, 1.5, 0.5]))
    with pytest.raises(InputError, match=r"t=0\.4, u=0\.1"):
        marchenko_residual(v, s, 0.4, 0.1)

import numpy as np
import pytest

from conftest import random_potential, random_spectral
from diagonal_relation import p_from_v, term_magnitudes
from invspec import (Order, PotentialCoefficients, SpectralData, contraction_conditions, first_moment,
                     forward_map, inverse_map, roots_of_unity, shift_spectral, v_from_s)
from invspec.core import cauchy_denominators


def single_entry_spectral(m: int, value: complex, n: int = 1, j: int = 1,
                          n_max: int = 4) -> SpectralData:
    order = Order(m)
    table = np.zeros((n_max, order.j_count), dtype=complex)
    table[n - 1, j - 1] = value
    return SpectralData(order, n_max, table)


def test_zero_spectral_maps_to_zero():
    s = SpectralData(Order(2), 4, np.zeros((4, 3)))
    assert np.all(v_from_s(s).table == 0)
    assert np.all(inverse_map(s).coeffs == 0)


def test_v_from_s_single_term_m1():
    s_val = 0.2 + 0.05j
    s = single_entry_spectral(1, s_val, n_max=2)
    v = v_from_s(s)
    # the derived column recurrence gives -i s^2 / 2; the forward map below
    # adjudicates the reading
    assert v.table[0, 0, 1] == pytest.approx(-1j * s_val ** 2 / 2)
    p = inverse_map(s)
    v_fwd, s_fwd = forward_map(p)
    assert np.abs(v_fwd.table - v.table).max() < 1e-14
    assert np.abs(s_fwd.table - s.table).max() < 1e-14


def test_inverse_map_first_order_m1():
    s = single_entry_spectral(1, 0.3j, n_max=1)
    p = inverse_map(s)
    assert p.coeffs[0, 0] == pytest.approx(-1j * 0.3j)


def test_p_from_v_first_order_m1():
    # the diagonal relation the sweep tests read p back through has the same first-order anchor
    s = single_entry_spectral(1, 0.3j, n_max=1)
    assert p_from_v(v_from_s(s))[0, 0] == pytest.approx(-1j * 0.3j)


def test_v_from_s_matches_forward_table(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        v_fwd, s = forward_map(p)
        v_inv = v_from_s(s)
        scale = max(np.abs(v_fwd.table).max(), 1e-30)
        assert np.abs(v_inv.table - v_fwd.table).max() <= 1e-9 * scale


def test_diagonal_preserved_exactly(rng):
    s = random_spectral(Order(2), 5, rng)
    v = v_from_s(s)
    assert np.array_equal(v.diagonal().table, s.table)


def test_round_trip_both_orders(rng):
    for m in (1, 2):
        for n_max in (4, 6, 8):
            p = random_potential(Order(m), n_max, rng)
            _, s = forward_map(p)
            back = inverse_map(s)
            assert np.abs(back.coeffs - p.coeffs).max() <= 1e-8


def test_reverse_round_trip(rng):
    for m in (1, 2):
        s = random_spectral(Order(m), 6, rng)
        p = inverse_map(s)
        _, s_back = forward_map(p)
        assert np.abs(s_back.table - s.table).max() <= 1e-8


def test_translation_equivariance(rng):
    p = random_potential(Order(2), 5, rng)
    _, s = forward_map(p)
    a = 0.4 + 0.3j
    lhs = inverse_map(shift_spectral(s, a))
    rhs = inverse_map(s).shifted(a)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-9


def test_first_order_homogeneity(rng):
    s = random_spectral(Order(2), 4, rng)
    p1 = inverse_map(s)
    p2 = inverse_map(SpectralData(s.order, s.n_max, 3.0 * s.table))
    assert np.allclose(p2.coeffs[:, 0], 3.0 * p1.coeffs[:, 0], rtol=1e-13, atol=0)


def test_first_moment_zero_data():
    report = first_moment(SpectralData(Order(1), 5, np.zeros((5, 1))))
    assert report.total == 0.0


def test_first_moment_geometric_partial_sums():
    # sum n 2^-n = 2; partial sums increase toward the limit
    totals = []
    for n_max in (4, 8, 16, 32):
        table = (2.0 ** -np.arange(1, n_max + 1))[:, None].astype(complex)
        totals.append(first_moment(SpectralData(Order(1), n_max, table)).total)
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[-1] == pytest.approx(2.0, abs=1e-7)
    assert all(t < 2.0 for t in totals)


def test_first_moment_single_entry():
    report = first_moment(single_entry_spectral(1, 0.5, n=3, n_max=4))
    assert report.total == pytest.approx(1.5)


def test_first_moment_tail_exponent_geometric():
    table = (2.0 ** -np.arange(1, 17))[:, None].astype(complex)
    report = first_moment(SpectralData(Order(1), 16, table))
    # terms n 2^-n decay roughly geometrically; log-decrement near ln 2
    assert report.tail_decay_exponent == pytest.approx(np.log(2), abs=0.1)


@pytest.mark.parametrize("m", [1, 2])
def test_first_moment_tail_exponent_is_per_mode_when_odd_terms_vanish(m):
    # even modes only: the potential has period pi and S_n = 0 exactly at odd n
    coeffs = np.array(random_potential(Order(m), 16, np.random.default_rng(3)).coeffs)
    coeffs[:, ::2] = 0
    _, s = forward_map(PotentialCoefficients(Order(m), 16, coeffs))
    terms = np.arange(1, 17) * s.s_tilde()
    assert (terms[::2] == 0).all() and (terms[1::2] > 0).all()
    # the odd terms filled in as geometric means of their neighbours: no term
    # vanishes, and the mean log-decrement from mode 14 to 16, the last
    # quarter's positive terms, is the decay per mode
    filled = terms.copy()
    filled[2::2] = np.sqrt(terms[1:-1:2] * terms[3::2])
    want = -np.mean(np.diff(np.log(filled[-3:])))
    assert first_moment(s).tail_decay_exponent == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m, n_max", [(1, 16), (2, 24), (3, 12)])
def test_first_moment_tail_exponent_is_the_mean_log_decrement_without_zero_terms(m, n_max):
    s = random_spectral(Order(m), n_max, np.random.default_rng(m + n_max))
    tail = (np.arange(1, n_max + 1) * s.s_tilde())[-(n_max // 4):]
    assert first_moment(s).tail_decay_exponent == float(-np.mean(np.diff(np.log(tail))))


def test_contraction_verdicts():
    zero = contraction_conditions(SpectralData(Order(1), 3, np.zeros((3, 1))))
    assert zero.condition_ii_p == 0.0 and zero.contraction

    small = contraction_conditions(single_entry_spectral(1, 1.0))
    assert small.condition_ii_p == pytest.approx(0.5)
    assert small.contraction

    big = contraction_conditions(single_entry_spectral(1, 3.0))
    assert big.condition_ii_p == pytest.approx(1.5)
    assert not big.contraction


def test_contraction_threshold_flip():
    under = contraction_conditions(single_entry_spectral(1, 2.0 - 1e-9))
    over = contraction_conditions(single_entry_spectral(1, 2.0 + 1e-9))
    assert under.contraction and not over.contraction


def scattered_v_from_s(s: SpectralData) -> np.ndarray:
    """The V columns [alpha, n, j] with each diagonal offset written by a fancy-index scatter."""
    n_max, jc = s.n_max, s.order.j_count
    lead = (1j * (1 - roots_of_unity(s.order)[1:]) * s.table).ravel()
    inv_den = (1 / cauchy_denominators(s.order, n_max)).transpose(2, 3, 0, 1).reshape(n_max * jc, -1)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    rows = np.arange(n_max)
    v[rows, rows] = s.table
    for beta in range(1, n_max):
        head = (n_max - beta) * jc
        acc = cols[beta - 1, :beta * jc] @ inv_den[:beta * jc, :head]
        v[rows[beta:], rows[:n_max - beta]] = (lead[:head] * acc).reshape(-1, jc)
    return v


@pytest.mark.parametrize("m, n_max", [(1, 1), (1, 16), (2, 9), (3, 12), (4, 8)])
def test_strided_diagonal_writes_match_the_scatter(m, n_max):
    s = random_spectral(Order(m), n_max, np.random.default_rng(m * 31 + n_max))
    assert np.array_equal(v_from_s(s).table, scattered_v_from_s(s).transpose(2, 1, 0))


@pytest.mark.parametrize("m, n_max", [(1, 16), (2, 24), (3, 12), (4, 8)])
def test_inverse_map_is_p_from_v_of_v_from_s(m, n_max):
    # the recurrence read backwards gives the potential that the diagonal relation
    # (diagonal_relation.p_from_v) reads off the closed-form V table, to the rounding
    # of the terms the relation sums
    s = random_spectral(Order(m), n_max, np.random.default_rng(m * 17 + n_max))
    v = v_from_s(s)
    want = p_from_v(v)
    assert (np.abs(inverse_map(s).coeffs - want) / term_magnitudes(v, want)).max() <= 5e-14  # measured <= 9.2e-15

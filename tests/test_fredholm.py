import tracemalloc

import numpy as np
import pytest

from conftest import random_potential, random_spectral
from invspec import (Order, PotentialCoefficients, SpectralData, forward_map, fredholm, inverse_map,
                     q0_from_kernel, roots_of_unity, scan_halfplane, v_from_s)
from invspec.core import cauchy_denominators
from invspec.errors import DegenerateDenominatorError, InputError


def prefactor(s: SpectralData, n_blocks: int) -> np.ndarray:
    """The z-independent part of the data operator F in its own form,
    i (1 - w_l) S_nj / (r w_l (1 - w_j) - n (1 - w_l)), rows (r, l) and columns (n, j).

    Blocks n > s.n_max carry no data and stay zero.  The scan takes its
    determinant of the similar operator J, which carries i (1 - w_j) in place
    of i (1 - w_l); this form is the oracle it is checked against.
    """
    jc = s.order.j_count
    w = roots_of_unity(s.order)[1:]
    cols = min(n_blocks, s.n_max)
    den = cauchy_denominators(s.order, n_blocks)[:, :, :cols]
    out = np.zeros((n_blocks, jc, n_blocks, jc), dtype=complex)
    out[:, :, :cols] = (1j * (1 - w))[None, :, None, None] * s.table[:cols] / den
    return out.reshape(n_blocks * jc, n_blocks * jc)


def f_matrix(s: SpectralData, z: complex, n_blocks: int) -> np.ndarray:
    """The operator matrix F(z) at truncation n_blocks: the z-independent
    prefactor times e^{i n z}, n the column block."""
    col = np.repeat(np.exp(1j * np.arange(1, n_blocks + 1) * z), s.order.j_count)
    return prefactor(s, n_blocks) * col[None, :]


def det_at(s: SpectralData, z: complex, n_max: int | None = None) -> complex:
    """The scan's determinant det(E - F_n0(z)) at one point, n0 = min(n_max, data depth)."""
    return complex(fredholm._determinants(s, n_max)[1](np.array([complex(z)]))[0])


def uniform_sums(s: SpectralData, n0: int) -> tuple[float, float]:
    """(b, t): the column 2-norms of the full-depth J(0) = D^-1 F(0) D, D = diag(1 - w_l),
    taken by numpy and summed over the blocks n <= n0 and over the rest."""
    d = np.tile(1 - roots_of_unity(s.order)[1:], s.n_max)
    norms = np.linalg.norm(prefactor(s, s.n_max) * d[None, :] / d[:, None], axis=0)
    return norms[:n0 * s.order.j_count].sum(), norms[n0 * s.order.j_count:].sum()


def uniform_bound(s: SpectralData, n0: int) -> float:
    """t exp(1 + a + b), a = b + t the sum over all columns (uniform_sums)."""
    head, tail = uniform_sums(s, n0)
    return float(tail * np.exp(1 + (head + tail) + head))


def cofactor_det(a: np.ndarray) -> complex:
    """Determinant by cofactor expansion along the first row."""
    if a.shape[0] == 1:
        return complex(a[0, 0])
    return sum((-1) ** col * a[0, col] * cofactor_det(np.delete(a[1:], col, axis=1))
               for col in range(a.shape[0]))


def rank_one_m1(value: complex) -> SpectralData:
    return SpectralData(Order(1), 1, np.array([[value]], dtype=complex))


def closed_form_m1(value: complex, z: complex) -> complex:
    return 1 + 1j * value / 2 * np.exp(1j * z)


def test_zero_data_determinant_is_one():
    s = SpectralData(Order(2), 6, np.zeros((6, 3)))
    for z in (0.0, 1.0 + 2j, 5.5j):
        assert det_at(s, z) == pytest.approx(1.0)


def test_f_matrix_m1_entry_formula():
    s = SpectralData(Order(1), 2, np.array([[0.2], [0.1j]], dtype=complex))
    z = 0.3 + 0.4j
    f = f_matrix(s, z, 2)
    for r in (1, 2):
        for n in (1, 2):
            expected = -1j * s.table[n - 1, 0] * np.exp(1j * n * z) / (n + r)
            assert f[r - 1, n - 1] == pytest.approx(expected)


def test_determinants_match_the_cofactor_oracle(rng):
    for m, n_max in [(1, 5), (2, 2), (3, 1)]:
        s = random_spectral(Order(m), n_max, rng, scale=2.0)
        for z in (0.3, 1.1 + 0.2j, 2.5 + 0.05j):
            for n in range(1, n_max + 1):
                value = det_at(s, z, n_max=n)
                side = n * (2 * m - 1)
                expected = cofactor_det(np.eye(side) - f_matrix(s, z, n))
                assert abs(value - expected) <= 1e-12 * abs(expected)


def test_rank_one_closed_form_and_truncation_stability():
    value = 0.4 - 0.2j
    s = rank_one_m1(value)
    for z in (0.0, 1.2 + 0.5j, 4.0 + 3j):
        assert abs(det_at(s, z) - closed_form_m1(value, z)) <= 1e-12
        # blocks past the data depth are zero: a larger cap changes nothing
        assert det_at(s, z, n_max=8) == det_at(s, z)


def test_determinant_approaches_one_high_in_the_plane():
    s = rank_one_m1(1.0)
    assert abs(det_at(s, 30j) - 1.0) < 1e-8


def test_determinant_rejects_lower_half_plane():
    with pytest.raises(InputError, match="closed upper half plane"):
        scan_halfplane(rank_one_m1(0.1), np.linspace(0, 2 * np.pi, 5), [-1.0, 0.0])
    # and a grid without the real axis, which carries the count
    with pytest.raises(InputError, match="closed upper half plane, one of them 0"):
        scan_halfplane(rank_one_m1(0.1), np.linspace(0, 2 * np.pi, 5), [0.5, 1.0])


@pytest.mark.parametrize("im_grid", [[0.0, 0.0, 0.0], [0.0, -0.0]])
def test_scan_refuses_a_rectangle_of_zero_height(im_grid):
    # criterion 7's planted zero at pi + i: a zero-height grid is the real axis, which counts it
    # (the rectangle walk wound 0 around it, and so refused such a grid)
    s = rank_one_m1(-2 * np.e * 1j)
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 33), im_grid)
    assert (report.winding, report.zero_free) == (1, False)


def test_scan_refuses_a_rectangle_of_zero_width():
    # the count is the winding over one period of the real axis: a re_grid that spans less, or
    # more, walks no closed loop
    s = rank_one_m1(-2 * np.e * 1j)
    for re_grid in ([2.0, 2.0, 2.0], [0.0, 1.0], [1.0], [], np.linspace(0, 2 * np.pi, 17)[:-1],
                    np.linspace(0, 4 * np.pi, 33), [0.0, np.nan, 2 * np.pi]):
        with pytest.raises(InputError, match="span one period"):
            scan_halfplane(s, re_grid, np.linspace(0, 10, 21))


@pytest.mark.parametrize("re_steps, im_steps", [(17, 11), (33, 21), (257, 161), (17, 1)])
def test_a_zero_on_the_imaginary_axis_is_counted(re_steps, im_steps):
    # S_11 = 4i at (1, 4): D = 1 - 2 e^{iz} vanishes at z = i ln 2, on the rectangle's Re z = 0
    # edge, where the rectangle walk counted 0 on every grid; 17 x 1 is verify's grid
    table = np.zeros((4, 1), dtype=complex)
    table[0, 0] = 4j
    s = SpectralData(Order(1), 4, table)
    assert abs(det_at(s, 1j * np.log(2))) <= 1e-15
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, re_steps), np.linspace(0, 10, im_steps))
    assert (report.winding, report.zero_free) == (1, False)


def test_a_two_point_grid_walks_verifys_points():
    # the same zero: re_grid = [0, 2 pi] samples one point of the circle, which wound 0; the walk
    # merges in the 16 points of verify's scan, where 17 points and 33 add none
    table = np.zeros((4, 1), dtype=complex)
    table[0, 0] = 4j
    s = SpectralData(Order(1), 4, table)
    report = scan_halfplane(s, [0.0, 2 * np.pi], [0.0, 1.0])
    assert (report.winding, report.zero_free) == (1, False)
    assert report.values.shape == (2, 2)


def test_a_zero_above_the_grid_is_counted():
    # S_11 = 2i e^12: D = 1 - e^{12} e^{iz} vanishes at z = 12i, above the grid's top at Im z = 10,
    # whose edge subtracted it from the rectangle's count
    s = rank_one_m1(2j * np.exp(12))
    assert abs(closed_form_m1(s.table[0, 0], 12j)) <= 1e-12
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 17), np.linspace(0, 10, 11))
    assert (report.winding, report.zero_free) == (1, False)


@pytest.mark.parametrize("m, n_max", [(1, 8), (2, 16), (3, 12)])
def test_the_real_axis_holds_the_minimum_modulus_of_zero_free_data(m, n_max):
    # with no zero in the upper half plane, |D| takes its smallest value over the closed half
    # plane on the real axis (the minimum modulus principle): verify's one row floors the grid
    _, s = forward_map(random_potential(Order(m), n_max, np.random.default_rng(m * n_max)))
    re_grid = np.linspace(0, 2 * np.pi, 17)
    axis = scan_halfplane(s, re_grid, [0.0])
    grid = scan_halfplane(s, re_grid, np.linspace(0, 10.0, 11))
    assert axis.winding == grid.winding == 0
    assert axis.min_modulus == grid.min_modulus
    assert axis.argmin == grid.argmin


def test_determinant_periodicity(rng):
    s = random_spectral(Order(2), 5, rng)
    for z in (0.3 + 0.2j, 1.7 + 1j):
        d1 = det_at(s, z)
        d2 = det_at(s, z + 2 * np.pi)
        assert abs(d1 - d2) <= 1e-10


def test_truncation_trace_decreases_for_geometric_data():
    table = (0.5 * 2.0 ** -np.arange(1, 33))[:, None].astype(complex)
    s = SpectralData(Order(1), 32, table)
    gaps = np.abs(np.diff([det_at(s, 0.4 + 0.1j, n_max=n) for n in range(4, 33)]))
    assert gaps[-1] <= 1e-10
    assert gaps[-1] < gaps[0]


def test_scan_zero_data():
    s = SpectralData(Order(1), 4, np.zeros((4, 1)))
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 9), np.linspace(0, 5, 6))
    assert report.min_modulus == pytest.approx(1.0)
    assert report.zero_free
    assert report.winding == 0


def test_scan_small_rank_one_zero_free():
    value = 0.8
    s = rank_one_m1(value)
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 17), np.linspace(0, 8, 9))
    assert report.zero_free
    # |1 + i s e^{iz}/2| >= 1 - |s|/2 on the closed half plane
    assert report.min_modulus >= 1 - abs(value) / 2 - 1e-12


def test_scan_planted_zero_has_winding_one():
    # data chosen so 1 + i S e^{iz}/2 vanishes at z = pi + i, inside det's window; verify's one
    # row on the real axis counts it too
    s = rank_one_m1(-2 * np.e * 1j)
    for re_steps, im_grid in ((33, np.linspace(0, 10, 21)), (17, [0.0])):
        report = scan_halfplane(s, np.linspace(0, 2 * np.pi, re_steps), im_grid)
        assert report.values.shape == (len(im_grid), re_steps)
        assert report.winding == 1
        assert not report.zero_free


def test_scan_flags_forced_truncation():
    table = (0.8 ** np.arange(1, 21))[:, None].astype(complex)
    s = SpectralData(Order(1), 20, table)
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 5), np.linspace(0, 2, 3)
    report = scan_halfplane(s, re_grid, im_grid, n_max=5, det_tol=1e-12)
    gap = np.abs(scan_halfplane(s, re_grid, im_grid).values - report.values)
    assert report.truncation_bound >= gap.max()
    assert len(report.flagged) == report.values.size


def test_solve_mirrors_vanishing_determinant():
    # rank-one data with D(0) = 0: 1 + i s/2 = 0 at s = 2i
    s = rank_one_m1(2j)
    assert abs(det_at(s, 0.0)) < 1e-14


def depth_four_m1() -> SpectralData:
    # S_11 = 0.3 + 0.1i and S_31 = 0.1: D_1 is 1 + i S_11 e^{iz} / 2, up to 0.158
    # from D_0 = 1 and 0.017 from the full-depth value on the real axis
    table = np.zeros((4, 1), dtype=complex)
    table[0, 0], table[2, 0] = 0.3 + 0.1j, 0.1
    return SpectralData(Order(1), 4, table)


@pytest.mark.parametrize("n_max", [0, -1])
def test_block_cap_below_one_is_rejected(n_max):
    s = depth_four_m1()
    with pytest.raises(InputError, match="n_max must be >= 1"):
        fredholm._determinants(s, n_max)
    with pytest.raises(InputError, match="n_max must be >= 1"):
        scan_halfplane(s, np.linspace(0, 2 * np.pi, 5), np.linspace(0, 2, 3), n_max=n_max)


def test_one_block_is_bounded_by_the_tail_columns():
    # D_1 = 1 + i S_11 e^{iz} / 2 stands for D_4; its bound reads the tail block S_31 alone
    s = depth_four_m1()
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 9), np.linspace(0, 2, 3)
    report = scan_halfplane(s, re_grid, im_grid, n_max=1)
    values, _, _, flagged, _ = scalar_scan(s, re_grid, im_grid, n_max=1)
    assert list(report.flagged) == flagged
    assert len(flagged) == values.size
    assert report.truncation_bound == pytest.approx(uniform_bound(s, 1), rel=1e-13)
    assert report.truncation_bound >= np.abs(scan_halfplane(s, re_grid, im_grid).values - values).max()
    z = 0.5 + 0.2j
    assert abs(det_at(s, z, n_max=1) - closed_form_m1(s.table[0, 0], z)) <= 1e-15


def test_report_holds_a_truncation_bound_only_when_n_max_cuts_the_data():
    s = random_spectral(Order(2), 6, np.random.default_rng(3), scale=0.3)
    re_grid, im_grid = [0.0, 0.7, 1.0, 2 * np.pi], [0.0, 0.3, 1.0]
    for n_max in (None, 6, 9):
        assert fredholm._determinants(s, n_max)[0] == 6
        report = scan_halfplane(s, re_grid, im_grid, n_max=n_max, det_tol=1e-300)
        assert (report.flagged, report.truncation_bound) == ((), None)
    assert fredholm._determinants(s, 4)[0] == 4
    report = scan_halfplane(s, re_grid, im_grid, n_max=4)
    z = 0.7 + 0.3j
    d4, d6 = det_at(s, z, n_max=4), det_at(s, z)
    assert d4 == report.values[1, 1]
    bound = report.truncation_bound
    assert bound == pytest.approx(uniform_bound(s, 4), rel=1e-13)
    assert bound >= abs(d6 - d4)
    # the bound is one number; whether a point is flagged depends on its |D|
    for det_tol in (0.5 * bound / (1 + abs(d4)), 2 * bound / (1 + abs(d4))):
        report = scan_halfplane(s, re_grid, im_grid, n_max=4, det_tol=det_tol)
        assert (z in report.flagged) == (bound >= det_tol * (1 + abs(d4)))


def test_scan_consistency_with_round_trip_data(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        _, s = forward_map(p)
        report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 13), np.linspace(0, 10, 9))
        assert report.zero_free
        assert report.min_modulus > 0.5


def scalar_scan(s, re_grid, im_grid, tol=1e-6, n_max=None, det_tol=1e-10):
    """Point-by-point reference scan: one np.linalg.det per grid and real-axis point."""
    jc = s.order.j_count
    n_cap = min(n_max or s.n_max, s.n_max)
    pre = f_matrix(s, 0.0, n_cap)
    block_n = np.repeat(np.arange(1, n_cap + 1), jc)

    def det_at(z):
        return np.linalg.det(np.eye(n_cap * jc) - pre * np.exp(1j * block_n * z))

    values = np.array([[det_at(complex(x, y)) for x in re_grid] for y in im_grid])
    bound = uniform_bound(s, n_cap)
    flagged = [complex(x, y) for y in im_grid for x in re_grid
               if n_cap < s.n_max and bound >= det_tol * (1 + abs(det_at(complex(x, y))))]
    # the real axis in order of re, closed around the period: x_last -> x_first + 2 pi
    path = sorted(float(x) for x in re_grid)
    refined = min(abs(det_at(x)) for x in path) < 0.3
    if refined:
        path = [a + (b - a) * f for a, b in zip(path, path[1:] + [path[0] + 2 * np.pi])
                for f in np.linspace(0.0, 1.0, 9)[:-1]]
    vals = [det_at(x) for x in path]
    if min(abs(d) for d in vals) < 1e-13:
        raise DegenerateDenominatorError("determinant vanishes on the real axis")
    turns = sum(np.angle(b / a) for a, b in zip(vals, vals[1:] + vals[:1]))
    winding = int(round(turns / (2 * np.pi)))
    zero_free = np.abs(values).min() > tol and winding == 0
    return values, winding, zero_free, flagged, refined


@pytest.mark.parametrize("fixture", ["zero_at_pi_plus_i", "zero_near_boundary", "truncated",
                                     "round_trip_m2", "zero_on_refined_boundary"])
def test_batched_scan_matches_pointwise_determinants(fixture):
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 17), np.linspace(0, 10, 11)
    n_max, det_tol = None, 1e-10
    if fixture == "zero_at_pi_plus_i":
        s = rank_one_m1(-2 * np.e * 1j)
    elif fixture == "zero_near_boundary":
        # 1 + i S e^{iz} / 2 vanishes at z = pi + 0.05 i, 0.05 above the real axis
        s = rank_one_m1(-2j * np.exp(0.05))
    elif fixture == "truncated":
        s = SpectralData(Order(1), 20, (0.8 ** np.arange(1, 21))[:, None].astype(complex))
        n_max = 5
        # the bound is one number, so a det_tol at the widest gap of the sorted |D_5| flags the
        # points below the gap alone
        modulus = np.sort(np.abs(scalar_scan(s, re_grid, im_grid, n_max=n_max)[0]).ravel())
        k = np.argmax(np.diff(modulus))
        det_tol = uniform_bound(s, n_max) / (1 + (modulus[k] + modulus[k + 1]) / 2)
    elif fixture == "zero_on_refined_boundary":
        # a real zero at pi/16, between two grid points of the real axis and
        # on its refined path: the scan must refuse to count
        s = rank_one_m1(2j * np.exp(-1j * np.pi / 16))
        with pytest.raises(DegenerateDenominatorError):
            scalar_scan(s, re_grid, im_grid)
        with pytest.raises(DegenerateDenominatorError):
            scan_halfplane(s, re_grid, im_grid)
        return
    else:
        _, s = forward_map(random_potential(Order(2), 12, np.random.default_rng(8), scale=0.5))
    values, winding, zero_free, flagged, refined = scalar_scan(s, re_grid, im_grid, n_max=n_max,
                                                               det_tol=det_tol)
    report = scan_halfplane(s, re_grid, im_grid, n_max=n_max, det_tol=det_tol)
    assert np.all(np.abs(report.values - values) <= 1e-12 * np.abs(values))
    assert (report.winding, report.zero_free, list(report.flagged)) == (winding, zero_free, flagged)
    assert refined == (fixture == "zero_near_boundary")
    assert (0 < len(flagged) < values.size) == (fixture == "truncated")
    assert winding == (0 if fixture in ("truncated", "round_trip_m2") else 1)


def loop_prefactor(s, n_blocks, w):
    """The operator prefactor as one scalar loop over (r, l, n, j)."""
    jc = s.order.j_count
    out = np.zeros((n_blocks * jc, n_blocks * jc), dtype=complex)
    for r in range(1, n_blocks + 1):
        for l in range(1, jc + 1):
            for n in range(1, min(n_blocks, s.n_max) + 1):
                for j in range(1, jc + 1):
                    den = r * w[l] * (1 - w[j]) - n * (1 - w[l])
                    out[(r - 1) * jc + l - 1, (n - 1) * jc + j - 1] = (
                        1j * (1 - w[l]) * s.table[n - 1, j - 1] / den)
    return out


@pytest.mark.parametrize("m, n_max, n_blocks", [(1, 6, 6), (2, 6, 4), (2, 4, 7), (3, 5, 5), (4, 3, 5)])
def test_prefactor_matches_scalar_loop(m, n_max, n_blocks):
    s = random_spectral(Order(m), n_max, np.random.default_rng(m + n_blocks))
    want = loop_prefactor(s, n_blocks, roots_of_unity(Order(m)))
    got = prefactor(s, n_blocks)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # blocks past the data depth stay zero
    assert not got[:, n_max * (2 * m - 1):].any()


@pytest.mark.parametrize("m, n_max", [(1, 8), (2, 8), (2, 16), (2, 24), (3, 12), (2, 64)])
def test_determinants_match_the_prefactor_oracle(m, n_max):
    # det(E - J) against det(E - F) from the operator's own form, F = D J D^-1, on verify's grid
    _, s = forward_map(random_potential(Order(m), n_max, np.random.default_rng(m * n_max)))
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 17), np.linspace(0, 10.0, 11)
    zs = (re_grid[None, :] + 1j * im_grid[:, None]).ravel()
    _, dets = fredholm._determinants(s, None)
    side = n_max * (2 * m - 1)
    want = np.array([np.linalg.det(np.eye(side) - f_matrix(s, z, n_max)) for z in zs])
    assert np.all(np.abs(dets(zs) - want) <= 1e-14 * np.abs(want))


def log_det_series(s: SpectralData) -> np.ndarray:
    """l_1..l_N, where log P(q) = sum_n l_n q^n and det(E - F(z)) = P(e^{iz}).

    P has degree at most deg = (2m - 1) N (N + 1) / 2, so one FFT of its values at
    K = 2^ceil(log2(deg + 1)) points of |q| = 1 gives its coefficients c_n exactly,
    and the log series follows from n l_n = n c_n - sum_{k<n} k l_k c_{n-k}.
    """
    m, n_max = s.order.m, s.n_max
    points = 1 << ((2 * m - 1) * n_max * (n_max + 1) // 2).bit_length()
    _, dets = fredholm._determinants(s, None)
    c = np.fft.fft(dets(2 * np.pi * np.arange(points) / points)) / points
    l = np.zeros(n_max + 1, dtype=complex)
    for n in range(1, n_max + 1):
        l[n] = c[n] - np.dot(np.arange(1, n) * l[1:n], c[n - 1:0:-1]) / n
    return l[1:]


LOG_SERIES_CASES = [
    ("forward", 1, 8), ("forward", 2, 8), ("forward", 3, 5),
    ("random", 1, 8), ("random", 2, 8), ("random", 3, 5),
    # S_11 = 4i puts a zero of P inside |q| < 1 (at q = 1/2 for m = 1); the recurrence is formal
    ("zero", 1, 8), ("zero", 2, 8),
]


def log_series_case(data: str, m: int, n_max: int) -> tuple[SpectralData, PotentialCoefficients]:
    """The spectral data of one LOG_SERIES_CASES entry and its potential: the one it was made
    from (forward data) or the inverse map's (random data and S_11 = 4i)."""
    order = Order(m)
    rng = np.random.default_rng(m + n_max)
    if data == "forward":
        p = random_potential(order, n_max, rng)
        return forward_map(p)[1], p
    if data == "random":
        s = random_spectral(order, n_max, rng)
    else:
        table = np.zeros((n_max, order.j_count), dtype=complex)
        table[0, 0] = 4j
        s = SpectralData(order, n_max, table)
    return s, inverse_map(s)


@pytest.mark.parametrize("data, m, n_max", LOG_SERIES_CASES)
def test_determinant_log_series_gives_the_top_coefficient(data, m, n_max):
    # p_{2m-2, n} = -2m n^2 l_n: the top coefficient function of the potential is read off the
    # Taylor series of the log of the Fredholm determinant
    s, p = log_series_case(data, m, n_max)
    top = p.coeffs[2 * m - 2]
    n = np.arange(1, n_max + 1)
    assert np.abs(-2 * m * n ** 2 * log_det_series(s) - top).max() <= 1e-10 * np.abs(top).max()


@pytest.mark.parametrize("data, m, n_max", LOG_SERIES_CASES)
def test_the_v_sum_is_the_log_series_of_the_determinant(data, m, n_max):
    # sum_{j, n} V[j, n, alpha] / (i (1 - w_j)) = -alpha l_alpha for V = v_from_s(S), derived in
    # q0_from_kernel's docstring; the trace there reads it as q[alpha] = 2m alpha^2 l_alpha
    s, _ = log_series_case(data, m, n_max)
    v = v_from_s(s)
    v_sum = (v.table / (1j * (1 - roots_of_unity(s.order)[1:]))[:, None, None]).sum(axis=(0, 1))
    alpha = np.arange(1, n_max + 1)
    l = log_det_series(s)
    tol = 1e-11 * np.abs(alpha * l).max()
    assert np.abs(v_sum + alpha * l).max() <= tol
    modes = q0_from_kernel(v)
    assert sorted(modes) == list(alpha)
    assert all(abs(modes[a] - 2 * m * a ** 2 * l[a - 1]) <= 2 * m * a * tol for a in alpha)


def sweep_cases():
    """Forward data at the five cli_cold sizes and three potential scales, then S_11 = 4i, whose
    determinant vanishes in the upper half plane, under a random tail, at m = 1 and 2."""
    for m, n_max in [(1, 8), (2, 8), (2, 16), (2, 24), (3, 12)]:
        for scale in (0.05, 0.5, 2.0):
            rng = np.random.default_rng([m, n_max, int(100 * scale)])
            yield forward_map(random_potential(Order(m), n_max, rng, scale=scale))[1]
    for m in (1, 2):
        table = random_spectral(Order(m), 8, np.random.default_rng(m), scale=0.05).table.copy()
        table[0, 0] = 4j
        yield SpectralData(Order(m), 8, table)


def test_the_truncation_bound_holds_at_every_grid_point():
    # |D_N - D_n0| <= t exp(1 + a + b) at each point of det's 33 x 21 grid, for n0 = 1, 2, 4, N/2, N-1
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 33), np.linspace(0, 10, 21)
    cases = 0
    for s in sweep_cases():
        full = scan_halfplane(s, re_grid, im_grid)
        assert full.truncation_bound is None
        for n0 in sorted({1, 2, 4, s.n_max // 2, s.n_max - 1}):
            report = scan_halfplane(s, re_grid, im_grid, n_max=n0)
            assert report.truncation_bound >= np.abs(full.values - report.values).max()
            cases += 1
    assert cases == 77


def counted_dets(monkeypatch) -> list:
    """Patch np.linalg.det to record how many determinants each call takes."""
    counts, det = [], np.linalg.det

    def counting(a):
        counts.append(a[..., 0, 0].size)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting)
    return counts


def test_a_cut_scan_takes_one_determinant_per_grid_point(monkeypatch):
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 33), np.linspace(0, 10, 21)
    _, s = forward_map(random_potential(Order(2), 16, np.random.default_rng(4), scale=0.5))
    counts = counted_dets(monkeypatch)
    report = scan_halfplane(s, re_grid, im_grid, n_max=8)
    assert report.truncation_bound is not None
    # the real axis stays above 0.3, so the winding refines nothing
    assert np.abs(report.values[0]).min() >= 0.3
    assert sum(counts) == re_grid.size * im_grid.size
    # near a zero the winding refines the real axis eightfold, and only that adds determinants
    counts.clear()
    s = SpectralData(Order(1), 2, np.array([[-2j * np.exp(0.05)], [0.01]]))
    report = scan_halfplane(s, re_grid, im_grid, n_max=1)
    assert report.truncation_bound is not None
    assert sum(counts) == re_grid.size * im_grid.size + 8 * re_grid.size


def test_a_scan_past_the_block_cap_never_forms_its_full_depth_operator():
    # depth 2000 > HARD_BLOCK_CAP: the operator at full depth takes 2000^2 complex entries, 64 MB
    depth = 2000
    assert depth > fredholm.HARD_BLOCK_CAP
    s = SpectralData(Order(1), depth, (0.05 / np.arange(1, depth + 1) ** 2)[:, None].astype(complex))
    tracemalloc.start()
    try:
        report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 5), [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert report.truncation_bound > 0
    assert len(report.flagged) == 5


def test_the_bound_log10_is_finite_where_the_bound_overflows():
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 9), [0.0, 1.0]
    s = random_spectral(Order(2), 6, np.random.default_rng(3), scale=0.3)
    assert scan_halfplane(s, re_grid, im_grid).truncation_bound_log10 is None
    report = scan_halfplane(s, re_grid, im_grid, n_max=4)
    assert report.truncation_bound_log10 == pytest.approx(np.log10(report.truncation_bound), abs=1e-13)
    # column-norm sums past about 350: exp overflows, log10 t + (1 + a + b) / ln 10 does not
    s = SpectralData(Order(1), 2, np.array([[3e5], [3e5]], dtype=complex))
    head, tail = uniform_sums(s, 1)
    report = scan_halfplane(s, re_grid, im_grid, n_max=1)
    assert report.truncation_bound == np.inf
    assert report.truncation_bound_log10 == pytest.approx(
        np.log10(tail) + (1 + (head + tail) + head) / np.log(10), rel=1e-13)
    assert report.truncation_bound_log10 > 308
    # a zero tail: the bound is 0, its log10 -inf
    s = SpectralData(Order(1), 2, np.array([[3e5], [0.0]], dtype=complex))
    assert scan_halfplane(s, re_grid, im_grid, n_max=1).truncation_bound_log10 == -np.inf


def test_an_overflowing_bound_flags_every_point():
    # column-norm sums past about 350 overflow exp(1 + a + b): the bound is inf, without a warning
    re_grid, im_grid = np.linspace(0, 2 * np.pi, 9), [0.0, 1.0]
    s = SpectralData(Order(1), 2, np.array([[3e5], [3e5]], dtype=complex))
    report = scan_halfplane(s, re_grid, im_grid, n_max=1)
    assert report.truncation_bound == np.inf
    assert len(report.flagged) == report.values.size
    # a zero tail cuts nothing from D_N, however large the head: the bound is 0, not 0 * inf
    s = SpectralData(Order(1), 2, np.array([[3e5], [0.0]], dtype=complex))
    report = scan_halfplane(s, re_grid, im_grid, n_max=1)
    assert (report.truncation_bound, report.flagged) == (0.0, ())

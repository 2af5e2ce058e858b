import numpy as np
import pytest

from conftest import random_potential, random_spectral
from invspec import (Order, SpectralData, det_truncated, f_matrix, forward_map, scan_halfplane,
                     solve_system)
from invspec.analytic import e_vector, k_vector
from invspec.errors import DegenerateDenominatorError, InputError, SingularMatrixError


def rank_one_m1(value: complex) -> SpectralData:
    return SpectralData(Order(1), 1, np.array([[value]], dtype=complex))


def closed_form_m1(value: complex, z: complex) -> complex:
    return 1 + 1j * value / 2 * np.exp(1j * z)


def test_zero_data_determinant_is_one():
    s = SpectralData.zeros(Order(2), 6)
    for z in (0.0, 1.0 + 2j, 5.5j):
        report = det_truncated(s, z)
        assert report.final == pytest.approx(1.0)
        assert report.converged


def test_f_matrix_m1_entry_formula():
    s = SpectralData(Order(1), 2, np.array([[0.2], [0.1j]], dtype=complex))
    z = 0.3 + 0.4j
    f = f_matrix(s, z, 2, mode="z")
    for r in (1, 2):
        for n in (1, 2):
            expected = -1j * s.entry(n, 1) * np.exp(1j * n * z) / (n + r)
            assert f[r - 1, n - 1] == pytest.approx(expected)


def test_rank_one_closed_form_and_truncation_stability():
    value = 0.4 - 0.2j
    s = rank_one_m1(value)
    for z in (0.0, 1.2 + 0.5j, 4.0 + 3j):
        report = det_truncated(s, z)
        assert abs(report.final - closed_form_m1(value, z)) <= 1e-12
        assert report.converged
        assert len(set(np.round(report.values, 14))) == 1


def test_determinant_approaches_one_high_in_the_plane():
    s = rank_one_m1(1.0)
    report = det_truncated(s, 30j)
    assert abs(report.final - 1.0) < 1e-8


def test_determinant_rejects_lower_half_plane():
    with pytest.raises(InputError):
        det_truncated(rank_one_m1(0.1), -1j)


def test_t_and_z_modes_share_determinants(rng):
    for m in (1, 2):
        s = random_spectral(Order(m), 4, rng, scale=0.3)
        for t in (0.0, 0.7, 1.4):
            side = 4 * (2 * m - 1)
            dt = np.linalg.det(np.eye(side) - f_matrix(s, t, 4, mode="t"))
            dz = np.linalg.det(np.eye(side) - f_matrix(s, 1j * t, 4, mode="z"))
            assert abs(dt - dz) <= 1e-12 * max(1.0, abs(dz))


def test_determinant_periodicity(rng):
    s = random_spectral(Order(2), 5, rng)
    for z in (0.3 + 0.2j, 1.7 + 1j):
        d1 = det_truncated(s, z).final
        d2 = det_truncated(s, z + 2 * np.pi).final
        assert abs(d1 - d2) <= 1e-10


def test_truncation_trace_decreases_for_geometric_data():
    table = (0.5 * 2.0 ** -np.arange(1, 33))[:, None].astype(complex)
    s = SpectralData(Order(1), 32, table)
    report = det_truncated(s, 0.4 + 0.1j, n_max=32, dense_trace=True)
    gaps = np.abs(np.diff(report.values))
    assert gaps[-1] <= 1e-10
    assert gaps[-1] < gaps[0]
    assert report.converged


def test_scan_zero_data():
    s = SpectralData.zeros(Order(1), 4)
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
    # data chosen so 1 + i S e^{iz}/2 vanishes at z = pi + i, inside the window
    s = rank_one_m1(-2 * np.e * 1j)
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 33), np.linspace(0, 10, 21))
    assert report.winding == 1
    assert not report.zero_free


def test_scan_flags_forced_truncation():
    table = (0.8 ** np.arange(1, 21))[:, None].astype(complex)
    s = SpectralData(Order(1), 20, table)
    report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 5), np.linspace(0, 2, 3),
                            n_max=5, det_tol=1e-12)
    assert len(report.flagged) > 0


def test_solve_system_trivial_cases():
    s = SpectralData.zeros(Order(1), 3)
    assert np.allclose(solve_system(s, np.zeros(3)), 0.0)
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert np.allclose(solve_system(s, e1), e1)


def test_solve_system_reproduces_moment_vector(rng):
    # two routes to the t = 0 moment vector agree up to the truncation tail
    from invspec.fredholm import f_matrix as fmat

    for m in (1, 2):
        p = random_potential(Order(m), 8, rng, scale=0.02)
        v, s = forward_map(p)
        f0 = fmat(s, 0.0, 8, mode="z")
        g = solve_system(s, f0 @ e_vector(Order(m), 8, 0.0))
        k0 = k_vector(v, 0.0, 8)
        assert np.abs(g - k0).max() <= 1e-9


def test_solve_mirrors_vanishing_determinant():
    # rank-one data with D(0) = 0: 1 + i s/2 = 0 at s = 2i
    s = rank_one_m1(2j)
    assert abs(det_truncated(s, 0.0).final) < 1e-14
    with pytest.raises(SingularMatrixError):
        solve_system(s, np.ones(1), tol=1e-10)


def test_scan_consistency_with_round_trip_data(rng):
    for m in (1, 2):
        p = random_potential(Order(m), 6, rng)
        _, s = forward_map(p)
        report = scan_halfplane(s, np.linspace(0, 2 * np.pi, 13), np.linspace(0, 10, 9))
        assert report.zero_free
        assert report.min_modulus > 0.5


def scalar_scan(s, re_grid, im_grid, tol=1e-6, n_max=None, det_tol=1e-10):
    """Point-by-point reference scan: one np.linalg.det per grid and boundary point."""
    jc = s.order.j_count
    n_cap = min(n_max or s.n_max, s.n_max)
    pre = f_matrix(s, 0.0, n_cap, mode="z")
    block_n = np.repeat(np.arange(1, n_cap + 1), jc)

    def det_at(z, blocks=n_cap):
        side = blocks * jc
        return np.linalg.det(np.eye(side) - pre[:side, :side] * np.exp(1j * block_n[:side] * z))

    values = np.array([[det_at(complex(x, y)) for x in re_grid] for y in im_grid])
    flagged = [complex(x, y) for y in im_grid for x in re_grid
               if n_cap < s.n_max and n_cap > 1
               and abs(det_at(complex(x, y)) - det_at(complex(x, y), n_cap - 1))
               >= det_tol * (1 + abs(det_at(complex(x, y))))]
    re0, re1, im0, im1 = re_grid[0], re_grid[-1], im_grid[0], im_grid[-1]
    path = [complex(x, im0) for x in re_grid] + [complex(re1, y) for y in im_grid[1:]]
    path += [complex(x, im1) for x in re_grid[::-1][1:]] + [complex(re0, y) for y in im_grid[::-1][1:]]
    refined = min(abs(det_at(z)) for z in path) < 0.3
    if refined:
        path = [a + (b - a) * f for a, b in zip(path, path[1:] + path[:1])
                for f in np.linspace(0.0, 1.0, 9)[:-1]]
    vals = [det_at(z) for z in path]
    if min(abs(d) for d in vals) < 1e-13:
        raise DegenerateDenominatorError("determinant vanishes on the scan boundary")
    turns = sum(np.angle(b / a) for a, b in zip(vals, vals[1:] + vals[:1]))
    winding = int(round(turns / (2 * np.pi)))
    zero_free = np.abs(values).min() > tol and winding == 0
    return values, winding, zero_free, flagged, refined


@pytest.mark.parametrize("fixture", ["zero_at_pi_plus_i", "zero_near_boundary", "truncated",
                                     "round_trip_m2", "zero_on_refined_boundary"])
def test_batched_scan_matches_pointwise_determinants(fixture):
    re_grid, im_grid, n_max = np.linspace(0, 2 * np.pi, 17), np.linspace(0, 10, 11), None
    if fixture == "zero_at_pi_plus_i":
        s = rank_one_m1(-2 * np.e * 1j)
    elif fixture == "zero_near_boundary":
        # 1 + i S e^{iz} / 2 vanishes at z = pi + 0.05 i, 0.05 above the bottom edge
        s = rank_one_m1(-2j * np.exp(0.05))
    elif fixture == "truncated":
        s = SpectralData(Order(1), 20, (0.8 ** np.arange(1, 21))[:, None].astype(complex))
        n_max = 5
    elif fixture == "zero_on_refined_boundary":
        # a real zero at pi/16, between two grid points of the bottom edge and
        # on its refined path: the scan must refuse to count
        s = rank_one_m1(2j * np.exp(-1j * np.pi / 16))
        with pytest.raises(DegenerateDenominatorError):
            scalar_scan(s, re_grid, im_grid)
        with pytest.raises(DegenerateDenominatorError):
            scan_halfplane(s, re_grid, im_grid)
        return
    else:
        _, s = forward_map(random_potential(Order(2), 12, np.random.default_rng(8), scale=0.5))
    values, winding, zero_free, flagged, refined = scalar_scan(s, re_grid, im_grid, n_max=n_max)
    report = scan_halfplane(s, re_grid, im_grid, n_max=n_max)
    assert np.all(np.abs(report.values - values) <= 1e-12 * np.abs(values))
    assert (report.winding, report.zero_free, list(report.flagged)) == (winding, zero_free, flagged)
    assert refined == (fixture == "zero_near_boundary")
    assert (0 < len(flagged) < values.size) == (fixture == "truncated")
    assert winding == (0 if fixture in ("truncated", "round_trip_m2") else 1)

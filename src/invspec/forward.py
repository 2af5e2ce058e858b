"""Forward spectral map: potential coefficients to the V table and spectral data.

For each column alpha the off-diagonal entries are filled first from earlier
columns of the same row, then one joint (2m-1)-dimensional solve produces the
diagonal entries V_aa^(j); these diagonals are the spectral data.  The column
sweep is lower triangular, so entries with alpha <= N never depend on deeper
potential modes.

Both steps read the tables of the shared kernel (``kernel.py``): the
off-diagonal entries of a column are one contraction over (j, n, s) with the
precomputed weights, and the diagonal relation's convolution is one
contraction with the column moments of the finished columns.  A sweep is
O(m^2 N^2) small contractions plus N diagonal solves.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .core import Order, PotentialCoefficients, SpectralData, VTable
from .errors import InputError, ResonantIndexError, SingularSystemError
from .kernel import DiagonalKernel, diagonal_kernel

LEFT_FACTOR_RTOL = 1e-12
COND_LIMIT = 1e12


def left_factor(order: Order, n: int, alpha: int, j: int) -> complex:
    """(alpha - c)^2m - c^2m with c = n / (1 - omega_j); nonzero for alpha > n."""
    c = n / (1 - order.root(j))
    return (alpha - c) ** (2 * order.m) - c ** (2 * order.m)


def _resonant(kern: DiagonalKernel, alpha: int, left_tol: float) -> np.ndarray:
    """Mask [n-1, j-1], n < alpha, of left factors that vanish relative to their scale."""
    # the relative scale keeps the resonance guard meaningful at large alpha
    return np.abs(kern.left[:alpha - 1, alpha - 1]) <= left_tol * kern.left_scale[alpha - 1]


def _resonance_error(n: int, alpha: int, j: int) -> ResonantIndexError:
    return ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                              indices=(n, alpha, j))


def _offdiag_values(kern: DiagonalKernel, pc: np.ndarray, v: np.ndarray, alpha: int) -> np.ndarray:
    """V[j, n, alpha] for n < alpha, as a (j, n) array, from columns 1..alpha-1 of v."""
    k = alpha - 1
    # p[gamma, alpha - s] for s = 1..alpha-1
    p_lag = pc[:, :k][:, ::-1]
    acc = np.einsum("njsg,gs,jns->jn", kern.weights[:k, :, :k], p_lag, v[:, :k, :k])
    return (-1) ** (kern.order.m + 1) * acc / kern.left[:k, k].T


def offdiag_step(p: PotentialCoefficients, v: VTable, n: int, alpha: int, j: int,
                 left_tol: float = LEFT_FACTOR_RTOL) -> complex:
    """One off-diagonal recurrence step; requires V(n, s) present for n <= s < alpha."""
    if not 1 <= n < alpha <= v.n_max:
        raise InputError(f"off-diagonal step needs 1 <= n < alpha <= {v.n_max}, got n={n}, alpha={alpha}")
    missing = np.flatnonzero(np.isnan(v.table[j - 1, n - 1, n - 1:alpha - 1]))
    if missing.size:
        raise InputError(f"missing prerequisite entry V(n={n}, s={n + missing[0]}, j={j})")
    kern = diagonal_kernel(p.order.m, v.n_max)
    if _resonant(kern, alpha, left_tol)[n - 1, j - 1]:
        raise _resonance_error(n, alpha, j)
    return complex(_offdiag_values(kern, p.coeffs, v.table, alpha)[j - 1, n - 1])


def _diag_values(kern: DiagonalKernel, pc: np.ndarray, v: np.ndarray, w: np.ndarray, alpha: int,
                 cond_limit: float) -> np.ndarray:
    """Solve the diagonal relation at column alpha for V[., alpha, alpha].

    v holds zeros at the unknown diagonal entries, and w the column moments of
    columns 1..alpha-1.
    """
    kern.check_remainders(alpha, diag_first=True)
    rhs = -pc[:, alpha - 1] - kern.convolution(pc, w, alpha) - kern.a_terms(v, alpha - 1, alpha)[0]
    if kern.diag_ratio[alpha - 1] > cond_limit:
        raise SingularSystemError(f"diagonal system at alpha={alpha} is numerically singular", alpha=alpha)
    return linalg.solve_factored(kern.diag_lu[alpha - 1], kern.diag_piv[alpha - 1], rhs)


def diag_solve(p: PotentialCoefficients, v: VTable, alpha: int,
               cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Solve the coupled diagonal relation at column alpha for the 2m-1 values V_aa^(j)."""
    if not 1 <= alpha <= v.n_max:
        raise InputError(f"alpha={alpha} outside 1..{v.n_max}")
    kern = diagonal_kernel(p.order.m, v.n_max)
    table = np.array(v.table)
    table[:, alpha - 1, alpha - 1] = 0.0
    return _diag_values(kern, p.coeffs, table, kern.moments(table, 0, alpha - 1), alpha, cond_limit)


def forward_map(p: PotentialCoefficients, left_tol: float = LEFT_FACTOR_RTOL,
                cond_limit: float = COND_LIMIT) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    kern = diagonal_kernel(order.m, n_max)
    v = np.zeros((order.j_count, n_max, n_max), dtype=complex)
    w = np.zeros((n_max, order.gamma_count, order.gamma_count), dtype=complex)
    for alpha in range(1, n_max + 1):
        if alpha > 1:
            small = _resonant(kern, alpha, left_tol)
            if small.any():
                n, j = np.argwhere(small)[0] + 1
                raise _resonance_error(int(n), alpha, int(j))
            v[:, :alpha - 1, alpha - 1] = _offdiag_values(kern, p.coeffs, v, alpha)
        v[:, alpha - 1, alpha - 1] = _diag_values(kern, p.coeffs, v, w, alpha, cond_limit)
        w[alpha - 1] = kern.moments(v, alpha - 1, alpha)[0]
    vt = VTable(order, n_max, v)
    return vt, vt.diagonal()


def series_q(p: PotentialCoefficients) -> np.ndarray:
    """Half-line coefficient table carried by the V recurrences: (-i)^gamma p_{gamma n}.

    This is the table for which the recurrence-built series solves the
    half-line equation; it differs from q_from_p by the factor (-1)^m.
    """
    g = np.arange(p.order.gamma_count)
    return (-1j) ** g[:, None] * p.coeffs


def q_from_p(p: PotentialCoefficients) -> np.ndarray:
    """Classical half-line rescaling q_{gamma n} = (-1)^m (-i)^gamma p_{gamma n}."""
    return (-1) ** p.order.m * series_q(p)

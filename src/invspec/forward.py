"""Forward spectral map: potential coefficients to the V table and spectral data.

For each column alpha the off-diagonal entries are filled first from earlier
columns of the same row, then one joint (2m-1)-dimensional solve produces the
diagonal entries V_aa^(j); these diagonals are the spectral data.  The column
sweep is lower triangular, so entries with alpha <= N never depend on deeper
potential modes.

The sweep reads the tables of the shared kernel (``kernel.py``) and holds V
as V[alpha, n, j], transposed to the VTable layout once at the end.  Column
alpha costs one BLAS matvec of the lagged potential p[., alpha - s] against
the running moment tensor of the finished columns, which yields the column's
accumulator; one multiply by the signed reciprocal left factors turns its
tail into the off-diagonal entries; one matvec against the kernel's response
table, plus the potential's share formed for every column before the sweep,
solves the diagonal relation for the diagonal entries; and a matvec and a
multiply append the column's moments.  A sweep is N such steps.  Every guard
depends only on (m, N) and the tolerances, never on p, so all of them are
checked in one vectorised pass before the sweep starts.

The maps are deterministic on one machine and BLAS build and agree to
rounding across BLAS builds.  The response table is a precomputed inverse, so
the diagonal entries are not backward stable as an LU substitution per
column would be: the round trip keeps about 0.1 fewer digits, at rounding
level (median 14.16 digits at the benchmark's sizes).
"""
from __future__ import annotations

import numpy as np

from . import linalg, polyalg
from .core import Order, PotentialCoefficients, SpectralData, VTable
from .errors import InputError, ResonantIndexError, SingularSystemError
from .kernel import DiagonalKernel, diagonal_kernel

LEFT_FACTOR_RTOL = 1e-12
COND_LIMIT = 1e12


def left_factor(order: Order, n: int, alpha: int, j: int) -> complex:
    """(alpha - c)^2m - c^2m with c = n / (1 - omega_j); nonzero for alpha > n."""
    c = n / (1 - order.root(j))
    return (alpha - c) ** (2 * order.m) - c ** (2 * order.m)


def _resonance_error(n: int, alpha: int, j: int) -> ResonantIndexError:
    return ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                              indices=(n, alpha, j))


def _check_columns(kern: DiagonalKernel, columns: slice, left_tol: float | None,
                   cond_limit: float) -> None:
    """Raise the error the column sweep over columns would meet first, if any.

    Within a column the sweep meets, in this order, a resonant left factor
    (skipped when left_tol is None), a division remainder, the pivot ratio
    and a zero pivot of the diagonal solve.
    """
    trips = [kern.read_remainder[columns] > polyalg.REMAINDER_RTOL,
             kern.diag_ratio[columns] > cond_limit,
             linalg.negligible_pivots(kern.diag_lu[columns]).any(axis=-1)]
    resonant = None
    # the relative scale keeps the resonance guard meaningful at large alpha
    if left_tol is not None and (kern.left_floor[columns] <= left_tol * kern.left_scale[columns]).any():
        lower = np.tri(kern.abs_left.shape[0], k=-1, dtype=bool)[columns, :, None]
        resonant = (kern.abs_left[columns] <= left_tol * kern.left_scale[columns, None, :]) & lower
        trips.append(resonant.any(axis=(1, 2)))
    hit = np.flatnonzero(np.logical_or.reduce(trips))
    if not hit.size:
        return
    first = hit[0]
    alpha = columns.start + int(first) + 1
    if resonant is not None and resonant[first].any():
        n, j = np.argwhere(resonant[first])[0] + 1
        raise _resonance_error(int(n), alpha, int(j))
    kern.check_remainders(alpha, diag_first=True)
    if kern.diag_ratio[alpha - 1] > cond_limit:
        raise SingularSystemError(f"diagonal system at alpha={alpha} is numerically singular", alpha=alpha)
    linalg.check_pivots(kern.diag_lu[alpha - 1])


def _lags(pc: np.ndarray) -> np.ndarray:
    """p[., c] for c = N-1..0, flattened in (c, gamma) order; at alpha = k + 1 the
    last k rows are the lagged potential p[., alpha - s], s = 1..k."""
    return np.ascontiguousarray(pc[:, ::-1].T).ravel()


def _p_terms(kern: DiagonalKernel, pc: np.ndarray) -> np.ndarray:
    """The potential's share p[., alpha] @ response[alpha, :size] of every diagonal."""
    n_max, size = kern.response.shape[0], pc.shape[0]
    return (pc[:, :n_max].T[:, None] @ kern.response[:, :size])[:, 0]


def _column(kern: DiagonalKernel, lags: np.ndarray, moments: np.ndarray, p_terms: np.ndarray,
            k: int, col: np.ndarray) -> None:
    """Fill column alpha = k + 1 of V, an (n, j) vector, from the moments of columns 1..k."""
    size, jc = moments.shape[1], kern.response.shape[2]
    off = k * jc
    acc = lags[lags.size - k * size:] @ moments[:k, :, :size + off].reshape(k * size, size + off)
    np.multiply(acc[size:], kern.left_recip[k, :off], out=col[:off])
    col[off:off + jc] = acc @ kern.response[k, :size + off] + p_terms[k]


def _column_from(p: PotentialCoefficients, v: VTable, kern: DiagonalKernel, alpha: int) -> np.ndarray:
    """Column alpha as the sweep computes it from the earlier columns of v, as an (n, j) vector."""
    table = v.table.transpose(2, 1, 0)
    col = np.zeros(table[0].size, dtype=complex)
    _column(kern, _lags(p.coeffs), kern.moments(table, alpha - 1), _p_terms(kern, p.coeffs), alpha - 1, col)
    return col


def offdiag_step(p: PotentialCoefficients, v: VTable, n: int, alpha: int, j: int,
                 left_tol: float = LEFT_FACTOR_RTOL) -> complex:
    """One off-diagonal recurrence step; requires V(n, s) present for n <= s < alpha."""
    if not 1 <= n < alpha <= v.n_max:
        raise InputError(f"off-diagonal step needs 1 <= n < alpha <= {v.n_max}, got n={n}, alpha={alpha}")
    missing = np.flatnonzero(np.isnan(v.table[j - 1, n - 1, n - 1:alpha - 1]))
    if missing.size:
        raise InputError(f"missing prerequisite entry V(n={n}, s={n + missing[0]}, j={j})")
    kern = diagonal_kernel(p.order.m, v.n_max)
    if kern.abs_left[alpha - 1, n - 1, j - 1] <= left_tol * kern.left_scale[alpha - 1, j - 1]:
        raise _resonance_error(n, alpha, j)
    return complex(_column_from(p, v, kern, alpha)[(n - 1) * p.order.j_count + j - 1])


def diag_solve(p: PotentialCoefficients, v: VTable, alpha: int,
               cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Solve the coupled diagonal relation at column alpha for the 2m-1 values V_aa^(j)."""
    if not 1 <= alpha <= v.n_max:
        raise InputError(f"alpha={alpha} outside 1..{v.n_max}")
    kern = diagonal_kernel(p.order.m, v.n_max)
    _check_columns(kern, slice(alpha - 1, alpha), None, cond_limit)
    jc = p.order.j_count
    return _column_from(p, v, kern, alpha)[(alpha - 1) * jc:alpha * jc]


def forward_map(p: PotentialCoefficients, left_tol: float = LEFT_FACTOR_RTOL,
                cond_limit: float = COND_LIMIT) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    jc = order.j_count
    kern = diagonal_kernel(order.m, n_max)
    _check_columns(kern, slice(0, n_max), left_tol, cond_limit)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    moments = kern.moments(v, 0)
    lags = _lags(p.coeffs)
    p_terms = _p_terms(kern, p.coeffs)
    for k in range(n_max):
        _column(kern, lags, moments, p_terms, k, cols[k])
        kern.moment_row(cols[k], k, moments[k])
    diag = SpectralData(order, n_max, v.reshape(n_max * n_max, jc)[::n_max + 1])
    return VTable(order, n_max, v.transpose(2, 1, 0)), diag


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

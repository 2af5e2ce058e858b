"""Forward spectral map: potential coefficients to the V table and spectral data.

For each column alpha the off-diagonal entries are filled first from earlier
columns of the same row, then one joint (2m-1)-dimensional solve produces the
diagonal entries V_aa^(j); these diagonals are the spectral data.  The column
sweep is lower triangular, so entries with alpha <= N never depend on deeper
potential modes.

The sweep reads the tables of the shared kernel (``kernel.py``) and holds V
as V[alpha, n, j], transposed to the VTable layout once at the end.  Column
alpha costs one BLAS matvec of the lagged potential p[., alpha - s] against
the running moment tensor of the finished columns, which yields the
diagonal relation's convolution term and, times the signed reciprocal left
factors, every off-diagonal entry of the column; then a matvec for the d_a
term, one in-house (2m-1)-square substitution with the LU factors the kernel
stores, and a matvec that appends the column's moments.  A sweep is N such
steps.  Every guard depends only on (m, N) and the tolerances, never on p, so
all of them are checked in one vectorised pass before the sweep starts.

The maps are deterministic on one machine and BLAS build and agree to
rounding across BLAS builds; the diagonal solves use no BLAS at all.
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


def _lagged(pc: np.ndarray, alpha: int) -> np.ndarray:
    """p[gamma, alpha - s] for s = 1..alpha-1, flattened in (s, gamma) order."""
    return pc[:, :alpha - 1][:, ::-1].T.ravel()


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
    size = p.order.gamma_count
    at = size + (n - 1) * p.order.j_count + j - 1
    rows = kern.moments(v.table.transpose(2, 1, 0)[:alpha - 1])
    acc = _lagged(p.coeffs, alpha) @ rows[:, :, at].ravel()
    return complex(acc * kern.left_recip[alpha - 1, at - size])


def _diag_values(kern: DiagonalKernel, pc: np.ndarray, col: np.ndarray, conv: np.ndarray,
                 alpha: int) -> np.ndarray:
    """Solve the diagonal relation at column alpha for V[., alpha, alpha].

    col holds the column's entries as an (n, j) vector, of which the
    off-diagonal ones (n < alpha) are read, and conv the convolution term
    sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, .].
    """
    k = alpha - 1
    size = k * kern.order.j_count
    rhs = -pc[:, k] - conv - col[:size] @ kern.d_a[k, :k].reshape(size, pc.shape[0])
    return linalg.substitute(kern.diag_lu[k], kern.diag_piv[k], rhs)


def diag_solve(p: PotentialCoefficients, v: VTable, alpha: int,
               cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Solve the coupled diagonal relation at column alpha for the 2m-1 values V_aa^(j)."""
    if not 1 <= alpha <= v.n_max:
        raise InputError(f"alpha={alpha} outside 1..{v.n_max}")
    kern = diagonal_kernel(p.order.m, v.n_max)
    _check_columns(kern, slice(alpha - 1, alpha), None, cond_limit)
    size = p.order.gamma_count
    table = v.table.transpose(2, 1, 0)
    w = kern.moments(table[:alpha - 1])[:, :, :size]
    conv = _lagged(p.coeffs, alpha) @ w.reshape(-1, size)
    return _diag_values(kern, p.coeffs, table[alpha - 1].ravel(), conv, alpha)


def forward_map(p: PotentialCoefficients, left_tol: float = LEFT_FACTOR_RTOL,
                cond_limit: float = COND_LIMIT) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    size = order.gamma_count
    jc = order.j_count
    kern = diagonal_kernel(order.m, n_max)
    _check_columns(kern, slice(0, n_max), left_tol, cond_limit)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    moments = np.zeros((n_max, size, size + n_max * jc), dtype=complex)
    # at alpha = k + 1, lags[(n_max - k) * size:] is _lagged(p.coeffs, alpha)
    lags = np.ascontiguousarray(p.coeffs[:, ::-1].T).ravel()
    for k in range(n_max):
        # M[:k] restricted to its W part and the rows n < k of its weighted part
        acc = lags[(n_max - k) * size:] @ moments[:k, :, :size + k * jc].reshape(k * size, size + k * jc)
        cols[k, :k * jc] = acc[size:] * kern.left_recip[k, :k * jc]
        v[k, k] = _diag_values(kern, p.coeffs, cols[k], acc[:size], k + 1)
        kern.moments(v[k:k + 1], k, out=moments[k:k + 1])
    vt = VTable(order, n_max, v.transpose(2, 1, 0))
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

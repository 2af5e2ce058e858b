"""Forward spectral map: potential coefficients to the V table and spectral data.

For each column alpha the off-diagonal entries are filled first from earlier
columns of the same row, then one joint (2m-1)-dimensional solve produces the
diagonal entries V_aa^(j); these diagonals are the spectral data.  The column
sweep is lower triangular, so entries with alpha <= N never depend on deeper
potential modes.

The sweep reads the tables of the shared kernel (``kernel.py``) and holds V
as V[alpha, n, j] in a pooled workspace, copied to the VTable layout once at
the end.  A step has two halves, each a fixed run of numpy calls over the
views the kernel planned for its column.  Filling column alpha costs one
BLAS matvec of the lagged potential p[., alpha - s] against the running
moment tensor of the finished columns, which yields the column's
accumulator; one multiply by the signed reciprocal left factors turns its
tail into the off-diagonal entries; one matvec against the kernel's response
table, plus the potential's share formed for every column before the sweep,
solves the diagonal relation for the diagonal entries.  Appending the
column's moments costs a matvec, a scatter of its (2m-1)(m-1) moment pairs
into the moment rows and a multiply; at m = 1 there are no pairs, and it is
the multiply alone.  A sweep is N fills and N - 1 appends, as no column
reads the moments of column N.  Every guard depends only on (m, N) and the
tolerance constants, never on p, so the kernel settles them when it is
built: a forward map on a kernel that refuses no column runs no guard, and
on one that does, raises the refused column's error before the sweep starts.

The maps are deterministic on one machine, BLAS build and BLAS thread count,
and agree to rounding across BLAS builds and thread counts (OpenBLAS splits
a large enough matvec across its threads, which reorders its sum).  The
response table is a precomputed inverse, so the diagonal entries are not
backward stable as an LU substitution per column would be: the round trip
keeps about 0.1 fewer digits, at rounding level (median 14.16 digits at the
benchmark's sizes).
"""
from __future__ import annotations

import numpy as np

from . import kernel
from .core import PotentialCoefficients, SpectralData, VTable
from .errors import ResonantIndexError, SingularMatrixError, SingularSystemError
from .kernel import DiagonalKernel, Workspace, diagonal_kernel


def _check_column(kern: DiagonalKernel, alpha: int) -> None:
    """Raise the error the column sweep would meet first at column alpha, if any.

    Within a column the sweep meets, in this order, a resonant left factor
    (the first in n, then j), a division remainder, the pivot ratio and a
    zero pivot of the diagonal solve.
    """
    resonant = kern.abs_left(alpha) <= kernel.LEFT_FACTOR_RTOL * kern.left_scale[alpha - 1]
    if resonant.any():
        n, j = (int(i) + 1 for i in np.argwhere(resonant)[0])
        raise ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                                 indices=(n, alpha, j))
    kern.check_remainders(alpha, diag_first=True)
    if kern.diag_ratio[alpha - 1] > kernel.COND_LIMIT:
        raise SingularSystemError(f"diagonal system at alpha={alpha} is numerically singular", alpha=alpha)
    small = np.flatnonzero(kernel.negligible(kern.diag_pivots[alpha - 1]))
    if small.size:
        # back substitution meets the last negligible pivot first
        i = int(small[-1])
        raise SingularMatrixError(f"negligible pivot at index {i}", pivot_index=i)


def _load(kern: DiagonalKernel, ws: Workspace, pc: np.ndarray) -> None:
    """Write the potential's lags and its share p[., alpha] @ p_share[alpha] of every diagonal to ws."""
    n_max = ws.v.shape[0]
    np.copyto(ws.lag_rows, pc[:, n_max - 1::-1].T)
    np.matmul(pc[:, :n_max].T[:, None], kern.p_share, out=ws.p_terms)


def _fill_column(step: tuple) -> None:
    """Fill column alpha = k + 1 of V from the moments of columns 1..k (a fills[k] step)."""
    lag, moments, acc, tail, left_recip, offdiag, response, diag, p_term = step
    np.matmul(lag, moments, out=acc)
    np.multiply(tail, left_recip, out=offdiag)
    np.matmul(acc, response, out=diag)
    diag += p_term


def _append_moments(step: tuple) -> None:
    """Write the moment row (W[s, nu, :], weights[s, nu] * V[s]) of column s + 1 (an appends[s] step).

    Only W's pairs (nu, gamma < nu) are written; its other entries stay zero.
    """
    col, weights, weighted, moment = step
    np.multiply(weights, col, out=weighted)
    if moment is not None:
        d_b, w, rows, at = moment
        np.matmul(col, d_b, out=w)
        rows[at] = w


def forward_map(p: PotentialCoefficients) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    kern = diagonal_kernel(order.m, n_max)
    if kern.forward_refusal is not None:
        _check_column(kern, kern.forward_refusal)
    with kern.workspace() as ws:
        _load(kern, ws, p.coeffs)
        for fill, append in zip(ws.fills, ws.appends):
            _fill_column(fill)
            _append_moments(append)
        _fill_column(ws.fills[-1])
        return (VTable._from_sweep(order, n_max, ws.columns.transpose(2, 1, 0)),
                SpectralData(order, n_max, ws.diagonal))


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

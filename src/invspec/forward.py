"""Forward spectral map: potential coefficients to the V table and spectral data.

The map runs the pole recurrence of the shared kernel (``kernel.py``) forward:
given the coefficients sq = series_q(p), each column alpha's residues at its
poles follow from the earlier columns, and the V table is the residues
scaled by 1 - w_j; its diagonal is the spectral data.  The column sweep is
lower triangular, so entries with alpha <= N never depend on deeper
potential modes.

A column costs four numpy calls over the views the kernel planned for it in a
pooled workspace: one matvec of the lagged coefficients against the earlier
residues, for the poles n < alpha; one against the earlier weighted values,
for the poles n >= alpha; one multiply by the column's weights, which gives
its weighted row; and one copy of that row's residues, at n <= alpha, into
the residue table.  The one guard, the resonance guard, depends only on (m,
N), never on p, so the kernel settles it when it is built: a forward map on a
kernel that refuses no column runs no guard, and on one that does, raises
the refused column's error before the sweep starts.

The maps are deterministic on one machine, BLAS build and BLAS thread count,
and agree to rounding across BLAS builds and thread counts (OpenBLAS splits
a large enough matvec across its threads, which reorders its sum).
"""
from __future__ import annotations

import numpy as np

from . import kernel
from .core import PotentialCoefficients, SpectralData, VTable
from .errors import ResonantIndexError
from .kernel import DiagonalKernel, diagonal_kernel


def _check_column(kern: DiagonalKernel, alpha: int) -> None:
    """Raise the resonance error at column alpha, at its first resonant left factor in n, then j, if any."""
    resonant = kern.abs_left(alpha) <= kernel.LEFT_FACTOR_RTOL * kern.left_scale[alpha - 1]
    if resonant.any():
        n, j = (int(i) + 1 for i in np.argwhere(resonant)[0])
        raise ResonantIndexError(f"resonant left factor at (n={n}, alpha={alpha}, j={j})",
                                 indices=(n, alpha, j))


def forward_map(p: PotentialCoefficients) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    kern = diagonal_kernel(order.m, n_max)
    if kern.forward_refusal is not None:
        _check_column(kern, kern.forward_refusal)
    with kern.workspace() as ws:
        np.copyto(ws.lag_rows, series_q(p)[:, ::-1].T)
        for lag_res, residues, acc_res, lag, values, acc_val, weights, row, res_row, res_src in ws.forward:
            np.matmul(lag_res, residues, out=acc_res)
            np.matmul(lag, values, out=acc_val)
            np.multiply(weights, ws.acc, out=row)
            np.copyto(res_row, res_src)
        # R's gamma = 0 rows are the residues, as [alpha, n, j]
        res = ws.residues[::order.gamma_count].reshape(n_max, n_max, -1).transpose(2, 1, 0)
        v = VTable._from_sweep(order, n_max, np.multiply((1 - kern.w)[:, None, None], res,
                                                         out=np.empty(res.shape, dtype=complex)))
    return v, v.diagonal()


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

"""Forward spectral map: potential coefficients to the V table and spectral data.

The map runs the value recurrence of the shared kernel (``kernel.py``)
forward, given the coefficients sq = series_q(p), at the poles k_nj and at
their mirror points w_j k_nj.  By the jump relation, V[j, n, n + beta] =
S_nj a_beta(w_j k_nj), because Q_beta(w_j k_nj) = Q_{n+beta}(k_nj); so the
map needs no residue recurrence.  Column alpha's sum at the pole n = alpha,
divided by Q'_alpha, is the residue Res a_alpha(k_alpha j) = S_alpha j / (1 -
w_j); at the later poles it gives the values the later columns read, and at
the mirrors n <= N - alpha the values a_alpha(w_j k_nj).  The column sweep is lower triangular, so entries with
alpha <= N never depend on deeper potential modes.

A column costs two numpy calls over the views the kernel planned for it in
a pooled workspace: one matvec of the lagged coefficients against the
earlier weighted rows at the points it reads, the poles n >= alpha and the
mirrors n <= N - alpha, one contiguous slice; and one multiply by the
column's weights, which gives its weighted row.  V is assembled once, after
the sweep, from G's gamma = 0 rows.

The map has no guard: at the mirrors it divides by Q_beta(w_j k_nj) =
Q_{n+beta}(k_nj), whose modulus the lemma of kernel.py bounds below by beta
((n + beta) sin(pi / 2m))^{2m-1}, and at the poles n = alpha by Q'_alpha,
bounded the same way with |1 - w_j| in place of beta.

The maps are deterministic on one machine, BLAS build and BLAS thread count,
and agree to rounding across BLAS builds and thread counts (OpenBLAS splits
a large enough matvec across its threads, which reorders its sum).
"""
from __future__ import annotations

import numpy as np

from .core import PotentialCoefficients, SpectralData, VTable
from .kernel import diagonal_kernel


def forward_map(p: PotentialCoefficients) -> tuple[VTable, SpectralData]:
    """Build the full V table from the potential and read off the spectral data."""
    order = p.order
    n_max = p.n_max
    kern = diagonal_kernel(order.m, n_max)
    size, jc = order.gamma_count, order.j_count
    with kern.workspace() as ws:
        np.copyto(ws.lag_rows, series_q(p)[:, ::-1].T)
        for lag, values, acc, weights, row in ws.forward:
            np.matmul(lag, values, out=acc)
            np.multiply(weights, acc, out=row)
        # G's gamma = 0 rows as [s, poles | mirrors, n, j]: the residue at the pole n = s, and
        # a_s(w_j k_nj) at the mirrors, where a_0 = 1
        g = ws.g[::size].reshape(n_max + 1, 2, n_max, jc)
        s = np.multiply((1 - kern.w)[:, None], np.diagonal(g[1:, 0], axis1=0, axis2=1))
        products = np.multiply(s[:, :, None], g[:n_max, 1].transpose(2, 1, 0))
    # read with a row stride one longer than its rows, V shears: diagonals[j, n, beta] is
    # V[j, n, n + beta], copied where n + beta <= N; the N spare entries hold the view's reach
    flat = np.zeros(jc * n_max * n_max + n_max, dtype=complex)
    item = flat.itemsize
    diagonals = np.ndarray((jc, n_max, n_max), complex, flat,
                           strides=(n_max * n_max * item, (n_max + 1) * item, item))
    np.copyto(diagonals, products, where=kern.in_table)
    v = VTable._from_sweep(order, n_max, flat[:jc * n_max * n_max].reshape(jc, n_max, n_max))
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

"""The diagonal relation that the forward and inverse maps share, as numpy tensors.

At each column alpha both maps read one relation, for gamma = 0..2m-2,

    p[gamma, alpha] + sum_{j, n <= alpha} d_a(n, alpha, j)[gamma] V[j, n, alpha]
        + sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, gamma] = 0,

    W[s, nu, gamma] = sum_{j, n <= s} d_b(n, s, nu, j)[gamma] V[j, n, s].

The forward map solves it for the diagonal entries V[j, alpha, alpha], the
inverse map for the column p[., alpha].  The column moment W is formed once
per finished column, so the convolution at column alpha is a single
contraction over (nu, r) instead of a re-summation of every earlier column.

The sweeps hold V column by column, as V[alpha, n, j], so a column is one
contiguous (n, j) vector and every per-column contraction is one BLAS matvec
against a free reshape of a table: d_a as (alpha, n*j, gamma), d_b as
(s, n*j, nu*gamma) and the inverse denominators as (r*l, n*j).  The forward
map keeps a running moment tensor M[s, nu, :] = (W[s, nu, :], weights[s, nu]
* V[s]): the product of the off-diagonal weights with a finished column does
not depend on the column being filled, so one matvec of the lagged potential
against M gives a column's convolution term and all of its off-diagonal
entries at once (``moments``).

A kernel tabulates, once per (m, N), everything these sweeps read, each table
once and in the layout its sweep reads.  Table axes are 0-based: index i
stands for the mode i + 1 of n, alpha, s or r, and for the root w_{i+1} of j
or l.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg, polyalg
from .core import Order, roots_of_unity


class DiagonalKernel:
    """Read-only tables of the diagonal relation at order m and depth N.

    d_a[alpha, n, j, gamma], d_b[s, n, j, nu, gamma]: the d-coefficients, with
    relative division remainders rem_a[alpha, n, j] and rem_b[s, n, j, nu];
    read_remainder[alpha] is the largest of them among the coefficients column
    alpha reads.  weights[s, gamma, n*j] = (i (s - c_nj))^gamma, c_nj = n /
    (1 - w_j), are the forward off-diagonal weights.  With the left factor
    L[alpha, n, j] = (alpha - c_nj)^2m - c_nj^2m, left_recip[alpha, n*j] =
    (-1)^(m+1) / L is its signed reciprocal, zero where n >= alpha (L vanishes
    at n = alpha), and abs_left = |L| and left_scale[alpha, j] = (alpha /
    |1 - w_j|)^2m feed the resonance guard; left_floor[alpha, j] is the
    smallest |L| at n < alpha.  inv_den[r, l, n, j] = 1 / (n w_j (1 - w_l) -
    r (1 - w_j)) and abs_den = |den| are the inverse map's; den_floor[n, j] is
    the smallest |den| that v_from_s reads (r + n <= N).  diag_lu[alpha],
    diag_piv[alpha] and diag_ratio[alpha] are the in-house LU factors and
    pivot ratio of the forward map's diagonal system d_a(alpha, alpha)^T,
    which depends only on m and alpha.
    """

    def __init__(self, m: int, n_max: int):
        order = Order(m)
        self.order = order
        two_m = 2 * m
        modes = np.arange(1, n_max + 1)
        self.d_a, self.rem_a = polyalg.d_a_table(order, modes, modes)
        self.d_b, self.rem_b = polyalg.d_b_table(order, modes, modes, order.gamma_count - 1)
        w = roots_of_unity(order)[1:]
        c = modes[:, None] / (1 - w)
        shift = 1j * (modes[:, None, None] - c)
        powers = np.arange(order.gamma_count)[None, :, None, None]
        self.weights = (shift[:, None] ** powers).reshape(n_max, order.gamma_count, -1)
        left = (modes[:, None, None] - c) ** two_m - c ** two_m
        self.abs_left = np.abs(left)
        self.left_scale = (modes[:, None] / np.abs(1 - w)) ** two_m
        lower = np.tri(n_max, k=-1, dtype=bool)[..., None]
        self.left_recip = np.divide((-1) ** (m + 1), left, out=np.zeros_like(left),
                                    where=lower).reshape(n_max, -1)
        self.left_floor = np.where(lower, self.abs_left, np.inf).min(axis=1)
        den = (modes[None, None, :, None] * w[None, None, None, :] * (1 - w)[None, :, None, None]
               - modes[:, None, None, None] * (1 - w)[None, None, None, :])
        self.abs_den = np.abs(den)
        self.inv_den = 1 / den
        read = modes[:, None, None, None] + modes[None, None, :, None] <= n_max
        self.den_floor = np.where(read, self.abs_den, np.inf).min(axis=(0, 1))
        factors = [linalg.lu_factor(self.d_a[a, a].T) for a in range(n_max)]
        self.diag_lu = np.array([lu for lu, _, _ in factors])
        self.diag_piv = np.array([piv for _, piv, _ in factors])
        self.diag_ratio = np.array([linalg.factor_ratio(lu) for lu, _, _ in factors])
        # largest remainder among the coefficients column alpha reads: its own
        # d_a entries (n <= alpha) and the d_b entries of every earlier column
        tri = np.tri(n_max, dtype=bool)
        col_a = np.where(tri[..., None], self.rem_a, 0.0).max(axis=(1, 2))
        col_b = np.where(tri[..., None, None], self.rem_b, 0.0).max(axis=(1, 2, 3))
        earlier_b = np.concatenate([[0.0], np.maximum.accumulate(col_b)[:-1]])
        self.read_remainder = np.maximum(col_a, earlier_b)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def moments(self, v: np.ndarray, start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Rows s = start.. of the moment tensor M[s, nu, :] = (W[s, nu, :], weights[s, nu] * V[s]).

        v holds the V columns start+1.. as [s, n, j]; only the entries with
        n <= s are read.  The rows go to out, or to a new zeroed array.
        """
        count, n_max, jc = v.shape
        size = self.order.gamma_count
        if out is None:
            out = np.zeros((count, size, size + n_max * jc), dtype=complex)
        for i in range(count):
            s = start + i
            col = v[i, :s + 1].ravel()
            out[i, :, :size] = (col @ self.d_b[s, :s + 1].reshape(col.size, -1)).reshape(size, size)
            np.multiply(self.weights[s, :, :col.size], col, out=out[i, :, size:size + col.size])
        return out

    def check_remainders(self, alpha: int, diag_first: bool) -> None:
        """Raise DivisionRemainderError at the first coefficient column alpha reads
        whose relative division remainder exceeds polyalg.REMAINDER_RTOL.

        The forward sweep reads d_a(alpha, alpha, .) first, as its system
        matrix; the inverse sweep reads it last, with the other d_a entries.
        """
        tol = polyalg.REMAINDER_RTOL
        if self.read_remainder[alpha - 1] <= tol:
            return
        for rel, n, j in self._reads(alpha, diag_first):
            if rel > tol:
                raise polyalg.remainder_error(rel, n, j)

    def _reads(self, alpha: int, diag_first: bool):
        """(relative remainder, n, j) of each coefficient column alpha reads, in reading order."""
        jc = range(1, self.order.j_count + 1)
        rem_a = self.rem_a[alpha - 1]
        if diag_first:
            yield from ((rem_a[alpha - 1, j - 1], alpha, j) for j in jc)
        for nu in range(1, self.order.gamma_count):
            for s in range(alpha - 1, 0, -1):
                for j in jc:
                    for n in range(1, s + 1):
                        yield self.rem_b[s - 1, n - 1, j - 1, nu], n, j
        last = alpha - 1 if diag_first else alpha
        for j in jc:
            for n in range(1, last + 1):
                yield rem_a[n - 1, j - 1], n, j


@lru_cache(maxsize=8)
def diagonal_kernel(m: int, n_max: int) -> DiagonalKernel:
    """The shared kernel for order m and depth n_max, built on first use."""
    return DiagonalKernel(m, n_max)

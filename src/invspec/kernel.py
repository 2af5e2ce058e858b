"""The diagonal relation that the forward and inverse maps share, as numpy tensors.

At each column alpha both maps read one relation, for gamma = 0..2m-2,

    p[gamma, alpha] + sum_{j, n <= alpha} d_a(n, alpha, j)[gamma] V[j, n, alpha]
        + sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, gamma] = 0,

    W[s, nu, gamma] = sum_{j, n <= s} d_b(n, s, nu, j)[gamma] V[j, n, s].

The forward map solves it for the diagonal entries V[j, alpha, alpha], the
inverse map for the column p[., alpha].  The column moment W is formed once
per finished column, so the convolution at column alpha is a single
contraction over (nu, r) instead of a re-summation of every earlier column.

A kernel tabulates, once per (m, N), everything these sweeps read: the
d-coefficients, the forward off-diagonal weights and left factors, and the
inverse denominators.  Table axes are 0-based: index i stands for the mode
i + 1 of n, alpha, s or r, and for the root w_{i+1} of j or l.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg, polyalg
from .core import Order, roots_of_unity


class DiagonalKernel:
    """Read-only tables of the diagonal relation at order m and depth N.

    d_a[alpha, n, j, gamma], d_b[s, n, j, nu, gamma]: the d-coefficients, with
    relative division remainders rem_a[alpha, n, j] and rem_b[s, n, j, nu].
    weights[n, j, s, gamma] = (i (s - c_nj))^gamma and left[n, alpha, j] =
    (alpha - c_nj)^2m - c_nj^2m, c_nj = n / (1 - w_j), feed the forward
    off-diagonal step; left_scale[alpha, j] = (alpha / |1 - w_j|)^2m is the
    scale its resonance guard measures against.  inv_den[n, j, r, l] =
    1 / (n w_j (1 - w_l) - r (1 - w_j)) and abs_den are the inverse map's.
    diag_lu[alpha], diag_piv[alpha] and diag_ratio[alpha] are the in-house LU
    factors and pivot ratio of the forward map's diagonal system d_a(alpha,
    alpha)^T, which depends only on m and alpha.
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
        shift = 1j * (modes[None, None, :] - c[:, :, None])
        self.weights = shift[..., None] ** np.arange(order.gamma_count)
        self.left = (modes[None, :, None] - c[:, None, :]) ** two_m - c[:, None, :] ** two_m
        self.left_scale = (modes[:, None] / np.abs(1 - w)) ** two_m
        den = (modes[:, None, None, None] * w[None, :, None, None] * (1 - w)[None, None, None, :]
               - modes[None, None, :, None] * (1 - w)[None, :, None, None])
        self.abs_den = np.abs(den)
        self.inv_den = 1 / den
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
        self._read_max = np.maximum(col_a, earlier_b)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def moments(self, v: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Column moments W[s, nu, gamma] of the V columns start+1..stop (all by default)."""
        return np.einsum("snjvg,jns->svg", self.d_b[start:stop], v[:, :, start:stop])

    def a_terms(self, v: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """sum_{j, n} d_a(n, alpha, j)[gamma] V[j, n, alpha] as [alpha, gamma], columns start+1..stop."""
        return np.einsum("anjg,jna->ag", self.d_a[start:stop], v[:, :, start:stop])

    def convolution(self, pc: np.ndarray, w: np.ndarray, alpha: int) -> np.ndarray:
        """The mixed term sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, .] at column alpha."""
        return np.einsum("vr,rvg->g", pc[:, :alpha - 1], w[:alpha - 1][::-1])

    def check_remainders(self, alpha: int, diag_first: bool) -> None:
        """Raise DivisionRemainderError at the first coefficient column alpha reads
        whose relative division remainder exceeds polyalg.REMAINDER_RTOL.

        The forward sweep reads d_a(alpha, alpha, .) first, as its system
        matrix; the inverse sweep reads it last, with the other d_a entries.
        """
        tol = polyalg.REMAINDER_RTOL
        if self._read_max[alpha - 1] <= tol:
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

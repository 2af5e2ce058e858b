"""Inverse spectral map: spectral data to the V table and back to the potential.

The V table is rebuilt from the diagonal outward: V_nn^(j) = S_nj seeds each
column, and an entry at column n + beta is a weighted sum over the full
column beta.  With V held column by column, as V[s, n, j], each diagonal
offset beta is one BLAS matvec of column beta against the kernel's reciprocal
denominators, stored as inv_den[r, l, n, j].  The potential then falls out of
the diagonal relation read as a definition of p_{gamma alpha}: the column
moments and the d_a terms of the finished table are formed in one batched
product each, and a causal sweep over alpha adds the mixed convolution, one
matvec per column against the coefficients already found, kept newest first.
Both stages read the tables of the kernel shared with the forward map
(``kernel.py``); every guard is checked in one vectorised pass before its
stage runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyalg
from .core import DEGENERACY_TOL, PotentialCoefficients, SpectralData, VTable, roots_of_unity
from .errors import DegenerateDenominatorError, InputError
from .kernel import DiagonalKernel, diagonal_kernel


def _check_denominators(kern: DiagonalKernel, table: np.ndarray, tol: float) -> None:
    """Raise at the first denominator below tol that the column sweep would divide by.

    Entry (n, j, r, l) is first read at column n + r, and only when S_nj != 0;
    within a column the sweep runs over n, then j, then l.
    """
    if not ((kern.den_floor <= tol) & (table != 0)).any():
        return
    n_max = table.shape[0]
    modes = np.arange(1, n_max + 1)
    small = ((kern.abs_den <= tol) & (table != 0)[None, None]
             & (modes[:, None, None, None] + modes[None, None, :, None] <= n_max))
    if small.any():
        hit = np.argwhere(small)
        r, l, n, j = hit[np.lexsort((hit[:, 1], hit[:, 3], hit[:, 2], hit[:, 0] + hit[:, 2]))[0]] + 1
        indices = (int(n), int(j), int(r), int(l))
        raise DegenerateDenominatorError(
            "degenerate denominator at (n={}, j={}, r={}, l={})".format(*indices), indices=indices)


def v_from_s(s: SpectralData, tol: float = DEGENERACY_TOL) -> VTable:
    """Fill the triangular V table from spectral data, one diagonal offset at a time."""
    order = s.order
    n_max = s.n_max
    jc = order.j_count
    kern = diagonal_kernel(order.m, n_max)
    _check_denominators(kern, s.table, tol)
    lead = (1j * (1 - roots_of_unity(order)[1:]) * s.table).ravel()
    inv_den = kern.inv_den.reshape(n_max * jc, -1)
    v = np.zeros((n_max, n_max, jc), dtype=complex)
    cols = v.reshape(n_max, -1)
    rows = np.arange(n_max)
    v[rows, rows] = s.table
    for beta in range(1, n_max):
        head = (n_max - beta) * jc
        # column beta holds rows r <= beta; row n of the result lands in column n + beta
        acc = cols[beta - 1, :beta * jc] @ inv_den[:beta * jc, :head]
        v[rows[beta:], rows[:n_max - beta]] = (lead[:head] * acc).reshape(-1, jc)
    return VTable(order, n_max, v.transpose(2, 1, 0))


def p_from_v(v: VTable) -> PotentialCoefficients:
    """Read the diagonal relation backwards to recover the potential coefficients."""
    order = v.order
    n_max = v.n_max
    size = order.gamma_count
    kern = diagonal_kernel(order.m, n_max)
    hit = np.flatnonzero(kern.read_remainder > polyalg.REMAINDER_RTOL)
    if hit.size:
        kern.check_remainders(int(hit[0]) + 1, diag_first=False)
    cols = np.ascontiguousarray(v.table.transpose(2, 1, 0)).reshape(n_max, 1, -1)
    w = (cols @ kern.d_b.reshape(n_max, cols.shape[-1], -1)).reshape(n_max * size, size)
    a_terms = (cols @ kern.d_a.reshape(n_max, cols.shape[-1], -1))[:, 0]
    # p column c is row n_max - 1 - c of lags, so at column k the suffix
    # lags[(n_max - k) * size:] is p[., k - 1 - s] for s = 0..k-1, in (s, gamma) order
    lags = np.zeros(n_max * size, dtype=complex)
    for k in range(n_max):
        at = (n_max - k) * size
        lags[at - size:at] = -(lags[at:] @ w[:k * size] + a_terms[k])
    return PotentialCoefficients(order, n_max, lags.reshape(n_max, size)[::-1].T)


def inverse_map(s: SpectralData, tol: float = DEGENERACY_TOL) -> PotentialCoefficients:
    """Spectral data to potential coefficients."""
    return p_from_v(v_from_s(s, tol=tol))


@dataclass(frozen=True)
class MomentReport:
    """Partial sum of n * S~_n with a geometric tail-decay estimate."""

    total: float
    terms: tuple
    tail_decay_exponent: float | None


def first_moment(s: SpectralData) -> MomentReport:
    """Weighted first-moment sum over the spectral rows; finite at any truncation."""
    terms = np.arange(1, s.n_max + 1, dtype=float) * s.s_tilde()
    tail = terms[-max(1, s.n_max // 4):]
    positive = tail[tail > 0]
    exponent = None
    if positive.size >= 2:
        # mean log-decrement over the last quarter of terms
        exponent = float(-np.mean(np.diff(np.log(positive))))
    return MomentReport(float(terms.sum()), tuple(float(t) for t in terms), exponent)


@dataclass(frozen=True)
class ContractionReport:
    """Summability and contraction sums with the contraction verdict."""

    condition_i: float
    condition_ii_p: float
    contraction: bool


def contraction_conditions(s: SpectralData, a_m: float) -> ContractionReport:
    """Evaluate the two solvability sums; contraction holds when the second is < 1."""
    if a_m <= 0:
        raise InputError(f"a_m must be positive, got {a_m}")
    st = s.s_tilde()
    n = np.arange(1, s.n_max + 1, dtype=float)
    cond_i = float((n * st).sum())
    cond_ii = float(4.0 ** (s.order.m - 1) * a_m * (st / (n + 1)).sum())
    return ContractionReport(cond_i, cond_ii, cond_ii < 1.0)

"""Inverse spectral map: spectral data to the V table and back to the potential.

The V table is rebuilt from the diagonal outward: V_nn^(j) = S_nj seeds each
column, and an entry at column n + beta is a weighted sum over the full
column beta, so each diagonal offset beta is one contraction with the
kernel's reciprocal denominators.  The potential then falls out of the
diagonal relation read as a definition of p_{gamma alpha}: the column moments
and the d_a terms of the finished table are formed in one step, and a short
causal sweep over alpha adds the mixed convolution, which only touches
coefficients that already exist.  Both stages read the tables of the kernel
shared with the forward map (``kernel.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEGENERACY_TOL, PotentialCoefficients, SpectralData, VTable, roots_of_unity
from .errors import DegenerateDenominatorError, InputError
from .kernel import DiagonalKernel, diagonal_kernel


def _check_denominators(kern: DiagonalKernel, table: np.ndarray, tol: float) -> None:
    """Raise at the first denominator below tol that the column sweep would divide by.

    Entry (n, j, r, l) is first read at column n + r, and only when S_nj != 0;
    within a column the sweep runs over n, then j, then l.
    """
    n_max = table.shape[0]
    modes = np.arange(1, n_max + 1)
    small = ((kern.abs_den <= tol) & (table != 0)[:, :, None, None]
             & (modes[:, None, None, None] + modes[None, None, :, None] <= n_max))
    if small.any():
        hit = np.argwhere(small)
        n, j, r, l = hit[np.lexsort((hit[:, 3], hit[:, 1], hit[:, 0], hit[:, 0] + hit[:, 2]))[0]] + 1
        indices = (int(n), int(j), int(r), int(l))
        raise DegenerateDenominatorError(
            "degenerate denominator at (n={}, j={}, r={}, l={})".format(*indices), indices=indices)


def v_from_s(s: SpectralData, tol: float = DEGENERACY_TOL) -> VTable:
    """Fill the triangular V table from spectral data, one diagonal offset at a time."""
    order = s.order
    n_max = s.n_max
    kern = diagonal_kernel(order.m, n_max)
    _check_denominators(kern, s.table, tol)
    lead = 1j * (1 - roots_of_unity(order)[1:]) * s.table
    v = np.zeros((order.j_count, n_max, n_max), dtype=complex)
    rows = np.arange(n_max)
    v[:, rows, rows] = s.table.T
    for beta in range(1, n_max):
        head = rows[:n_max - beta]
        acc = np.einsum("njrl,lr->nj", kern.inv_den[:n_max - beta, :, :beta], v[:, :beta, beta - 1])
        v[:, head, head + beta] = (lead[:n_max - beta] * acc).T
    return VTable(order, n_max, v)


def p_from_v(v: VTable) -> PotentialCoefficients:
    """Read the diagonal relation backwards to recover the potential coefficients."""
    order = v.order
    n_max = v.n_max
    kern = diagonal_kernel(order.m, n_max)
    for alpha in range(1, n_max + 1):
        kern.check_remainders(alpha, diag_first=False)
    w = kern.moments(v.table)
    a_terms = kern.a_terms(v.table)
    p = np.zeros((order.gamma_count, n_max), dtype=complex)
    for alpha in range(1, n_max + 1):
        p[:, alpha - 1] = -(kern.convolution(p, w, alpha) + a_terms[alpha - 1])
    return PotentialCoefficients(order, n_max, p)


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

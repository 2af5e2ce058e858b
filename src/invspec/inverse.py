"""Inverse spectral map: spectral data to potential coefficients, and the V table in closed form.

inverse_map runs the pole recurrence of the shared kernel (``kernel.py``)
backward: at column alpha the residues at the new poles, n = alpha, are the
data S_alpha, and the relation there is a (2m-1) x (2m-1) Vandermonde system
for the column's new coefficients sq[., alpha].  A column costs five numpy
calls over the views the kernel planned for it in a pooled workspace: the
earlier columns' share d, one matvec; the solution x0 and its refinement,
two stacked products with the kernel's solve tables; and the column's
weighted values at the later poles, one matvec and one multiply.  The map
divides only at poles n >= alpha, where |Q_alpha| is bounded away from zero
in closed form (kernel.py), so it has no guard.

v_from_s is the Cauchy closed form of the V table: V_nn^(j) = S_nj seeds
each column, and an entry at column n + beta is a weighted sum over the full
column beta.  Every denominator it divides by has modulus at least 2
sin^2(pi/2m) (n + r) (core.cauchy_denominators), so it needs no guard either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PotentialCoefficients, SpectralData, VTable, a_m_constant, jump_factors
from .kernel import diagonal_kernel


def v_from_s(s: SpectralData) -> VTable:
    """Fill the triangular V table from spectral data, one diagonal offset at a time."""
    order, n_max, jc = s.order, s.n_max, s.order.j_count
    lead, inv_den = jump_factors(s)
    cols = np.zeros((n_max, n_max, jc), dtype=complex)
    flat = cols.reshape(n_max * n_max, jc)
    flat[::n_max + 1] = s.table
    for beta in range(1, n_max):
        head = (n_max - beta) * jc
        # column beta holds rows r <= beta; row n of the result lands in column n + beta
        acc = cols[beta - 1].reshape(-1)[:beta * jc] @ inv_den[:beta * jc, :head]
        flat[beta * n_max::n_max + 1] = (lead[:head] * acc).reshape(-1, jc)
    return VTable._from_sweep(order, n_max, cols.transpose(2, 1, 0).copy())


def inverse_map(s: SpectralData) -> PotentialCoefficients:
    """Spectral data to potential coefficients."""
    order, n_max = s.order, s.n_max
    kern = diagonal_kernel(order.m, n_max)
    with kern.workspace() as ws:
        np.multiply(s.table, kern.t_scale, out=ws.u[:, :order.j_count])
        for lag_d, values_d, d, first, td, x0, solve, u, slot, lag, values, acc, weights, row in ws.inverse:
            np.matmul(lag_d, values_d, out=d)
            np.matmul(first, td, out=x0)
            np.matmul(solve, u, out=slot)
            np.matmul(lag, values, out=acc)
            np.multiply(weights, acc, out=row)
        # p = sq / (-i)^gamma, the inverse of forward.series_q
        g = np.arange(order.gamma_count)
        return PotentialCoefficients(order, n_max, ws.lag_rows[::-1].T / (-1j) ** g[:, None])


@dataclass(frozen=True)
class MomentReport:
    """Partial sum of n * S~_n with a geometric tail-decay estimate."""

    total: float
    tail_decay_exponent: float | None


def first_moment(s: SpectralData) -> MomentReport:
    """Weighted first-moment sum over the spectral rows; finite at any truncation."""
    terms = np.arange(1, s.n_max + 1, dtype=float) * s.s_tilde()
    tail = terms[-max(1, s.n_max // 4):]
    modes = np.flatnonzero(tail > 0)
    exponent = None
    if modes.size >= 2:
        # log-decrement per mode over the last quarter of terms: a zero term
        # between two positive ones widens the step, it is not skipped
        drop = np.sum(np.diff(np.log(tail[modes])))
        exponent = float(-(drop / (modes[-1] - modes[0])))
    return MomentReport(float(terms.sum()), exponent)


@dataclass(frozen=True)
class ContractionReport:
    """Summability and contraction sums with the contraction verdict."""

    condition_i: float
    condition_ii_p: float
    contraction: bool


def contraction_conditions(s: SpectralData) -> ContractionReport:
    """Evaluate the two solvability sums, the second with a_m = a_m_constant(s.order);
    contraction holds when the second is < 1."""
    a_m = a_m_constant(s.order)
    st = s.s_tilde()
    n = np.arange(1, s.n_max + 1, dtype=float)
    cond_i = float((n * st).sum())
    cond_ii = float(4.0 ** (s.order.m - 1) * a_m * (st / (n + 1)).sum())
    return ContractionReport(cond_i, cond_ii, cond_ii < 1.0)

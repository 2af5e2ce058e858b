"""Inverse spectral map: spectral data to the V table and back to the potential.

The V table is rebuilt from the diagonal outward: V_nn^(j) = S_nj seeds each
column, and an entry at column n + beta is a weighted sum over the full
column beta.  With V held column by column, as V[s, n, j], each diagonal
offset beta is one BLAS matvec of column beta against the kernel's reciprocal
denominators, stored as inv_den[r, l, n, j].  The potential then falls out of
the diagonal relation read as a definition of p_{gamma alpha}: the column
moments' pairs (nu, gamma < nu) and the d_a terms of the finished table are
formed in one batched product each, the pairs placed into the moment blocks
through the kernel's index set, and a causal sweep over alpha adds the mixed
convolution, one matvec per column against the coefficients already found,
kept newest first.  At m = 1 there are no pairs, so no moment product and
no causal sweep: p is minus the d_a terms.
Both stages read the tables of the kernel shared with the forward map
(``kernel.py``) and write the buffers of one pooled workspace through the
views the kernel planned for each offset and column; inverse_map runs both
in the same workspace.  v_from_s needs no guard: every denominator it
divides by has modulus at least 2 sin^2(pi/2m) (n + r) (the lemma of
core.a_m_constant).  p_from_v reads the verdict of its remainder guard that
the kernel settled when it was built, so no guard depends on the data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PotentialCoefficients, SpectralData, VTable, roots_of_unity
from .errors import InputError
from .kernel import DiagonalKernel, Workspace, diagonal_kernel


def _v_columns(ws: Workspace, s: SpectralData) -> None:
    """Write the triangular V table to ws as columns V[alpha, n, j], one diagonal offset at a time."""
    np.copyto(ws.diagonal, s.table)
    np.multiply(1j * (1 - roots_of_unity(s.order)[1:]), s.table, out=ws.lead)
    for col, inv_den, acc, lead, acc_rows, offset_rows in ws.offsets:
        # column beta holds rows r <= beta; row n of the result lands in column n + beta
        np.matmul(col, inv_den, out=acc)
        np.multiply(lead, acc_rows, out=offset_rows)


def v_from_s(s: SpectralData) -> VTable:
    """Fill the triangular V table from spectral data, one diagonal offset at a time."""
    kern = diagonal_kernel(s.order.m, s.n_max)
    with kern.workspace() as ws:
        _v_columns(ws, s)
        return VTable._from_sweep(s.order, s.n_max, ws.columns.transpose(2, 1, 0))


def _p_from_columns(kern: DiagonalKernel, ws: Workspace) -> PotentialCoefficients:
    """The potential from the V table held in ws as columns V[alpha, n, j]."""
    order, n_max = kern.order, ws.v.shape[0]
    if kern.inverse_refusal is not None:
        kern.check_remainders(kern.inverse_refusal, diag_first=False)
    cols = ws.v.reshape(n_max, 1, -1)
    np.matmul(cols, kern.d_a.reshape(n_max, cols.shape[-1], -1), out=ws.a_terms)
    if ws.causal:
        # the negated moments: p = -(conv + a_term) is then one matvec and one subtraction
        np.matmul(cols, kern.d_b.reshape(n_max, cols.shape[-1], -1), out=ws.pair_w)
        np.negative(ws.pair_w, out=ws.pair_w)
        ws.w_blocks[:, kern.pair_at] = ws.pair_w[:, 0]
        # at column k the found coefficients p[., k - 1 - s], s = 0..k-1, are a suffix of lags
        for found, w, p_k, a_term in ws.causal:
            np.matmul(found, w, out=p_k)
            p_k -= a_term
    else:
        # m = 1 has no moment pairs, so no convolution: p = 0 - a_term (+0, not -0, where a_term is 0)
        np.subtract(0, ws.a_terms[::-1, 0], out=ws.lag_rows)
    return PotentialCoefficients(order, n_max, ws.lag_rows[::-1].T)


def p_from_v(v: VTable) -> PotentialCoefficients:
    """Read the diagonal relation backwards to recover the potential coefficients."""
    kern = diagonal_kernel(v.order.m, v.n_max)
    with kern.workspace() as ws:
        np.copyto(ws.columns, v.table.transpose(2, 1, 0))
        return _p_from_columns(kern, ws)


def inverse_map(s: SpectralData) -> PotentialCoefficients:
    """Spectral data to potential coefficients."""
    kern = diagonal_kernel(s.order.m, s.n_max)
    with kern.workspace() as ws:
        _v_columns(ws, s)
        return _p_from_columns(kern, ws)


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
    modes = np.flatnonzero(tail > 0)
    exponent = None
    if modes.size >= 2:
        # log-decrement per mode over the last quarter of terms: a zero term
        # between two positive ones widens the step, it is not skipped
        drop = np.sum(np.diff(np.log(tail[modes])))
        exponent = float(-(drop / (modes[-1] - modes[0])))
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

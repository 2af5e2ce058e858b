"""The diagonal relation that the forward and inverse maps share, as numpy tensors.

At each column alpha both maps read one relation, for gamma = 0..2m-2,

    p[gamma, alpha] + sum_{j, n <= alpha} d_a(n, alpha, j)[gamma] V[j, n, alpha]
        + sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, gamma] = 0,

    W[s, nu, gamma] = sum_{j, n <= s} d_b(n, s, nu, j)[gamma] V[j, n, s].

The forward map solves it for the diagonal entries V[j, alpha, alpha], the
inverse map for the column p[., alpha].  The column moment W is formed once
per finished column, so the convolution at column alpha is a single
contraction over (nu, r) instead of a re-summation of every earlier column.

d_b(n, s, nu, j) has nu coefficients, so W[s, nu, gamma] vanishes for
gamma >= nu: only its (2m-1)(m-1) pairs (nu, gamma < nu) are formed, and the
kernel's index sets place them in the dense blocks the sweeps multiply by.
At m = 1 there are no pairs, and the convolution vanishes.

The sweeps hold V column by column, as V[alpha, n, j], so a column is one
contiguous (n, j) vector and every per-column contraction is one BLAS matvec
against a free reshape of a table: d_b as (s, n*j, pair) and the inverse
denominators as (r*l, n*j).  The forward map keeps a running moment tensor
M[s, nu, :] = (W[s, nu, :], weights[s, nu] * V[s]), which does not depend on
the column being filled, so one matvec of the lagged potential against M
gives column alpha's accumulator acc: its convolution term, then its
off-diagonal entries before the left factor.
The diagonal relation makes V[., alpha, alpha] linear in acc and p[., alpha];
response[alpha] = -(I; left_recip[alpha] * d_a[alpha]) d_a(alpha, alpha)^-1
tabulates it, its first rows the potential's share.

A kernel tabulates, once per (m, N), everything these sweeps read, each table
once and in the layout its sweep reads.  A forward table is a list of
per-column blocks in one flat buffer, each block only the entries its column
reads, so none is padded to the widest column.  The guards keep only the
floors they compare with the tolerance constants, and the build settles
every guard, as none depends on the data.  Table axes are 0-based: index i
stands for the mode i + 1 of n, alpha, s or r, and for the root w_{i+1} of j
or l.

Each sweep is also planned once: a Workspace holds the buffers one call
writes and, per column, the table slices and buffer views its numpy calls
take, so a column costs only those calls.  A kernel pools its workspaces,
one per concurrent call.  The maps are deterministic on one machine, BLAS
build and BLAS thread count; a different thread count can split a matvec's
sum differently and move V in the last bits.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import polyalg
from .core import Order, roots_of_unity

# the forward sweep refuses a column with a left factor |L| <= LEFT_FACTOR_RTOL
# times its scale, a diagonal system whose pivot ratio exceeds COND_LIMIT, or
# one with a pivot at most PIVOT_TOL times the largest (or 1), a zero pivot
LEFT_FACTOR_RTOL = 1e-12
COND_LIMIT = 1e12
PIVOT_TOL = 1e-300


def pivot_moduli(systems: np.ndarray) -> np.ndarray:
    """|U_ii| of the partial-pivot LU of each matrix of a stack [batch, size, size].

    One elimination runs over the whole stack: each matrix gets the row swaps,
    divisions and rank-1 updates that eliminating it alone would make, in the
    same order, so its pivots are bit for bit that elimination's.  A step
    whose pivot is exactly zero leaves its matrix unchanged.
    """
    lu = np.array(systems, dtype=complex)
    batch, size = lu.shape[:2]
    at = np.arange(batch)
    for k in range(size - 1):
        p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        lu[at, k], lu[at, p] = lu[at, p], lu[at, k]
        live = lu[:, k, k] != 0
        below = lu[live, k + 1:, k] / lu[live, k, k, None]
        lu[live, k + 1:, k + 1:] -= below[:, :, None] * lu[live, k, None, k + 1:]
    return np.abs(np.diagonal(lu, axis1=1, axis2=2))


def negligible(pivots: np.ndarray) -> np.ndarray:
    """Mask of the pivot moduli [..., size] a solve treats as zero."""
    return (pivots <= PIVOT_TOL * np.maximum(pivots.max(axis=-1, keepdims=True), 1.0)) | (pivots == 0)


class DiagonalKernel:
    """Read-only tables of the diagonal relation at order m and depth N.

    d_a[alpha, n, j, gamma], d_b[s, n, j, pair]: the d-coefficients, d_b over
    the pairs (nu, gamma < nu) in (nu, gamma) C order; read_remainder[alpha] is
    the largest relative division remainder among the coefficients column
    alpha reads.  w[j] is the root w_{j+1}, c[n, j] = n / (1 - w_j), and the
    left factor L[alpha, n, j] = (alpha - c_nj)^2m - c_nj^2m vanishes at n =
    alpha.

    The forward sweep's tables are lists of per-column blocks, consecutive in
    one flat buffer per table, each holding only the entries its column reads.
    left_recip[k] = (-1)^(m+1) / L[alpha, n*j] over n < alpha = k + 1 is the
    signed reciprocal left factor; weights[k][gamma, n*j] = (i (alpha -
    c_nj))^gamma over n <= alpha are the off-diagonal weights, for alpha < N
    only, as no column reads the moments of column N; response[k] maps column
    alpha's accumulator (its size + k jc entries) to V[j, alpha, alpha], and
    its first rows, stacked as p_share[k], also map p[., alpha]; where a pivot
    is negligible, a column the guards refuse, it holds the identity's image.
    inv_den[r, l, n, j] = 1 / den, den = n w_j (1 - w_l) - r (1 - w_j), is the
    inverse map's; |den| >= 2 sin^2(pi/2m) (n + r) (core.a_m_constant), so it
    needs no guard.  diag_pivots[alpha] are the pivot moduli |U_ii| of the
    partial-pivot elimination of the forward map's diagonal system d_a(alpha,
    alpha)^T, which depends only on m and alpha, and diag_ratio[alpha] is
    their ratio max / min (inf at a zero pivot).  pair_at and moment_at place
    the pairs in a flat (nu, gamma) block and in the flat moment rows of one
    forward column.

    The guards read floors: read_remainder; left_floor[alpha, j], the smallest
    |L| at n < alpha, against left_scale[alpha, j] = (alpha / |1 - w_j|)^2m.
    Only where a floor trips do check_remainders and abs_left recompute, as
    the build computed them, the entries they report.

    Every guard depends only on (m, N) and the tolerance constants, so the
    build settles them all: forward_refusal is the first column alpha
    (1-based) the forward sweep refuses, inverse_refusal the first whose
    remainders p_from_v refuses, None where there is none.
    A kernel keeps the verdict of the constants it was built under: changing
    LEFT_FACTOR_RTOL, COND_LIMIT, PIVOT_TOL or polyalg.REMAINDER_RTOL
    at run time takes diagonal_kernel.cache_clear().
    """

    def __init__(self, m: int, n_max: int):
        order = Order(m)
        self.order = order
        self.n_max = n_max
        size = jc = order.gamma_count
        modes = np.arange(1, n_max + 1)
        self.d_a, rem_a = polyalg.d_a_table(order, modes, modes)
        self.d_b, rem_b = polyalg.d_b_table(order, modes, modes, size - 1)
        nu, gamma = np.tril_indices(size, -1)
        self.pair_at = nu * size + gamma
        self.moment_at = nu * (size + n_max * jc) + gamma
        self.w = roots_of_unity(order)[1:]
        self.c = modes[:, None] / (1 - self.w)
        self.left_scale = (modes[:, None] / np.abs(1 - self.w)) ** (2 * m)
        self.inv_den = 1 / (modes[:, None] * self.w * (1 - self.w)[:, None, None]
                            - modes[:, None, None, None] * (1 - self.w))
        system = np.array(self.d_a[modes - 1, modes - 1].transpose(0, 2, 1))
        self.diag_pivots = pivot_moduli(system)
        lo = self.diag_pivots.min(axis=1)
        self.diag_ratio = np.divide(self.diag_pivots.max(axis=1), lo, out=np.full(n_max, np.inf), where=lo > 0)
        singular = negligible(self.diag_pivots).any(axis=1)
        system[singular] = np.eye(size)
        inv = np.linalg.inv(system)
        # every diagonal entry is a product with the inverse: one refinement step with
        # an extended-precision residual (where the platform has one) rounds it closely
        wide = np.clongdouble
        inv = inv + inv @ (np.eye(size) - system.astype(wide) @ inv.astype(wide)).astype(complex)
        self.left_recip = _blocks([(k * jc,) for k in range(n_max)])
        self.weights = _blocks([(size, (k + 1) * jc) for k in range(n_max - 1)])
        self.response = _blocks([(size + k * jc, jc) for k in range(n_max)])
        self.left_floor = np.full((n_max, jc), np.inf)
        # column k's (I; left_recip[k] * d_a[k]) in its first size + k jc rows
        rows = np.empty((size + (n_max - 1) * jc, size), dtype=complex)
        rows[:size] = np.eye(size)
        powers = np.arange(size)[:, None, None]
        for k, (left_recip, response) in enumerate(zip(self.left_recip, self.response)):
            off = k * jc
            left = self._left(k)
            np.divide((-1) ** (m + 1), left.reshape(-1), out=left_recip)
            if k:
                self.left_floor[k] = np.abs(left).min(axis=0)
            np.multiply(left_recip[:, None], self.d_a[k, :k].reshape(off, size), out=rows[size:size + off])
            np.matmul(rows[:size + off], inv[k].T, out=response)
            np.negative(response, out=response)
            if k < n_max - 1:
                np.copyto(self.weights[k], ((1j * (k + 1 - self.c[:k + 1])) ** powers).reshape(size, -1))
        self.p_share = np.array([response[:size] for response in self.response])
        # largest remainder among the coefficients column alpha reads: its own
        # d_a entries (n <= alpha) and the d_b entries of every earlier column
        tri = np.tri(n_max, dtype=bool)
        col_a = np.where(tri[..., None], rem_a, 0.0).max(axis=(1, 2))
        col_b = np.where(tri[..., None, None], rem_b, 0.0).max(axis=(1, 2, 3))
        earlier_b = np.concatenate([[0.0], np.maximum.accumulate(col_b)[:-1]])
        self.read_remainder = np.maximum(col_a, earlier_b)
        remainders = self.read_remainder > polyalg.REMAINDER_RTOL
        # the relative scale keeps the resonance guard meaningful at large alpha
        resonant = (self.left_floor <= LEFT_FACTOR_RTOL * self.left_scale).any(axis=-1)
        refused = resonant | remainders | (self.diag_ratio > COND_LIMIT) | singular
        self.forward_refusal, self.inverse_refusal = (
            int(np.argmax(trips)) + 1 if trips.any() else None for trips in (refused, remainders))
        blocks = self.left_recip + self.weights + self.response
        for table in [t for t in vars(self).values() if isinstance(t, np.ndarray)] + blocks:
            table.setflags(write=False)
        for block in blocks:
            block.base.setflags(write=False)
        self.pool: list[Workspace] = []

    def _left(self, k: int) -> np.ndarray:
        """The left factors L[alpha, n, j] of column alpha = k + 1 at n <= k, as [n, j]."""
        c, two_m = self.c[:k], 2 * self.order.m
        return (k + 1 - c) ** two_m - c ** two_m

    def abs_left(self, alpha: int) -> np.ndarray:
        """|L[alpha, n, j]| at n < alpha, as [n, j], as the build computed it."""
        return np.abs(self._left(alpha - 1))

    @contextmanager
    def workspace(self):
        """A Workspace from this kernel's pool, built when the pool is empty, and
        returned to the pool on exit; no two calls hold the same one at once."""
        try:
            ws = self.pool.pop()
        except IndexError:
            ws = Workspace(self)
        try:
            yield ws
        finally:
            self.pool.append(ws)

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
        """(relative remainder, n, j) of each coefficient column alpha reads, in reading order.

        The remainders are divided anew, entry for entry as the build divided them.
        """
        jc = range(1, self.order.j_count + 1)
        modes = np.arange(1, alpha + 1)
        rem_a = polyalg.d_a_table(self.order, modes[-1:], modes)[1][0]
        if diag_first:
            yield from ((rem_a[alpha - 1, j - 1], alpha, j) for j in jc)
        if alpha > 1:
            rem_b = polyalg.d_b_table(self.order, modes[:-1], modes[:-1], self.order.gamma_count - 1)[1]
            for nu in range(1, self.order.gamma_count):
                for s in range(alpha - 1, 0, -1):
                    for j in jc:
                        for n in range(1, s + 1):
                            yield rem_b[s - 1, n - 1, j - 1, nu], n, j
        last = alpha - 1 if diag_first else alpha
        for j in jc:
            for n in range(1, last + 1):
                yield rem_a[n - 1, j - 1], n, j


def _blocks(shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive blocks of the given shapes in one flat complex buffer."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    flat = np.empty(ends[-1], dtype=complex)
    return [flat[a:b].reshape(shape) for a, b, shape in zip(ends[:-1], ends[1:], shapes)]


class Workspace:
    """The buffers one sweep call writes, and each column's step over them.

    v holds V as columns V[alpha, n*j] (``columns`` as [alpha, n, j],
    ``diagonal`` its diagonal rows V[alpha, alpha, .]); moments is the forward
    map's moment tensor as rows (s, nu); acc is a column's accumulator and lags
    the potential newest column first, p[., N - 1 - c] at row c, read by the
    forward sweep and written by the causal one.  A step is a tuple of the
    table slices and buffer views one column reads and writes, in the order
    its sweep passes them to numpy:

    - fills[k] for alpha = k + 1: (lagged potential, moments of columns
      1..k, acc, acc's off-diagonal tail, left_recip[k], V[alpha, :alpha - 1],
      response[k], V[alpha, alpha], potential's share p_terms[k]).
    - appends[k] for alpha = k + 1 < N: (V[alpha, :alpha], weights[k], the
      weighted column's rows in moments, and, where there are pairs, (d_b
      rows, the moment W's pairs, the column's moment rows flat, moment_at)).
      No column reads the moments of column N, so the sweep never forms them.
    - offsets[beta - 1] = (column beta, inv_den block, acc, lead rows, acc as
      rows, V at diagonal offset beta as strided rows).
    - causal[k] = (the coefficients found, newest first; the negated moments
      of as many columns; the slot of p[., k]; a_terms[k]), empty at m = 1.

    pair_w holds each column's moment pairs, and w (as w_blocks, one flat (nu,
    gamma) block per column) the inverse's negated moments.

    The buffers are zeroed once, when the Workspace is built.  A call reads
    only entries it wrote itself, or entries no sweep ever writes, which stay
    zero: V's n > alpha triangle, returned and read as zeros (a VTable copied
    in holds zeros there too), the moment rows past their own columns and at
    gamma >= nu, and w outside the pairs.  Each sweep rewrites the whole n <=
    alpha triangle of V, and always the same moment and pair positions.
    """

    def __init__(self, kern: DiagonalKernel):
        n_max, size = kern.n_max, kern.order.gamma_count
        jc = kern.order.j_count
        self.v = np.zeros((n_max, n_max * jc), dtype=complex)
        self.moments = np.zeros(((n_max - 1) * size, size + n_max * jc), dtype=complex)
        self.acc = np.empty(size + n_max * jc, dtype=complex)
        self.lags = np.empty(n_max * size, dtype=complex)
        self.p_terms = np.empty((n_max, 1, jc), dtype=complex)
        self.lead = np.empty((n_max, jc), dtype=complex)
        self.pair_w = np.empty((n_max, 1, kern.pair_at.size), dtype=complex)
        self.w = np.zeros((n_max, size, size), dtype=complex)
        self.a_terms = np.empty((n_max, 1, size), dtype=complex)
        self.columns = self.v.reshape(n_max, n_max, jc)
        flat = self.v.reshape(n_max * n_max, jc)
        self.diagonal = flat[::n_max + 1]
        self.lag_rows = self.lags.reshape(n_max, size)
        self.w_blocks = self.w.reshape(n_max, size * size)
        self.fills, self.appends = [], []
        for k in range(n_max):
            col, off, n = self.v[k], k * jc, (k + 1) * jc
            self.fills.append((self.lags[(n_max - k) * size:], self.moments[:k * size, :size + off],
                               self.acc[:size + off], self.acc[size:size + off], kern.left_recip[k],
                               col[:off], kern.response[k], col[off:n], self.p_terms[k, 0]))
            if k < n_max - 1:
                rows = self.moments[k * size:(k + 1) * size]
                moment = (kern.d_b[k, :k + 1].reshape(n, -1), self.pair_w[k, 0], rows.reshape(-1),
                          kern.moment_at) if kern.pair_at.size else None
                self.appends.append((col[:n], kern.weights[k], rows[:, size:size + n], moment))
        inv_den = kern.inv_den.reshape(n_max * jc, -1)
        self.offsets = []
        for beta in range(1, n_max):
            head = (n_max - beta) * jc
            acc = self.acc[:head]
            # offset beta is every (N + 1)-th row of the flat (alpha, n) rows from row beta * N
            self.offsets.append((self.v[beta - 1, :beta * jc], inv_den[:beta * jc, :head], acc,
                                 self.lead[:n_max - beta], acc.reshape(-1, jc),
                                 flat[beta * n_max::n_max + 1]))
        w = self.w.reshape(n_max * size, size)
        self.causal = [(self.lags[(n_max - k) * size:], w[:k * size],
                        self.lags[(n_max - k - 1) * size:(n_max - k) * size], self.a_terms[k, 0])
                       for k in range(n_max)] if kern.pair_at.size else []


@lru_cache(maxsize=8)
def diagonal_kernel(m: int, n_max: int) -> DiagonalKernel:
    """The shared kernel for order m and depth n_max, built on first use."""
    return DiagonalKernel(m, n_max)

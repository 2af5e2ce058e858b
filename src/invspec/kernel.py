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
once and in the layout its sweep reads.  Table axes are 0-based: index i
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

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import linalg, polyalg
from .core import Order, roots_of_unity


class DiagonalKernel:
    """Read-only tables of the diagonal relation at order m and depth N.

    d_a[alpha, n, j, gamma], d_b[s, n, j, pair]: the d-coefficients, d_b over
    the pairs (nu, gamma < nu) in (nu, gamma) C order, with relative division
    remainders rem_a[alpha, n, j] and rem_b[s, n, j, nu];
    read_remainder[alpha] is the largest of them among the coefficients column
    alpha reads.  weights[s, gamma, n*j] = (i (s - c_nj))^gamma, c_nj = n /
    (1 - w_j), are the forward off-diagonal weights.  With the left factor
    L[alpha, n, j] = (alpha - c_nj)^2m - c_nj^2m, left_recip[alpha, n*j] =
    (-1)^(m+1) / L is its signed reciprocal, zero where n >= alpha (L vanishes
    at n = alpha), and abs_left = |L| and left_scale[alpha, j] = (alpha /
    |1 - w_j|)^2m feed the resonance guard; left_floor[alpha, j] is the
    smallest |L| at n < alpha.  inv_den[r, l, n, j] = 1 / (n w_j (1 - w_l) -
    r (1 - w_j)) and abs_den = |den| are the inverse map's; den_floor[n, j] is
    the smallest |den| that v_from_s reads (r + n <= N).  diag_lu[alpha] and
    diag_ratio[alpha] are the in-house LU factors and pivot ratio of the
    forward map's diagonal system d_a(alpha, alpha)^T, which depends only on m
    and alpha; the guards read them.  response[alpha, :, j] maps a column's
    accumulator (size + N*jc entries, zero past its own) to V[j, alpha,
    alpha], and response[alpha, :size] also maps p[., alpha]; where a pivot is
    negligible, a column the guards refuse, it holds the identity's image.
    pair_at and moment_at place the pairs in a flat (nu, gamma) block and in
    the flat moment rows of one forward column.

    clean_sweeps holds the (left_tol, cond_limit, polyalg.REMAINDER_RTOL)
    under which the forward map's guard pass over all N columns found nothing;
    the verdict depends on nothing else, so the pass runs once per tolerances.
    """

    def __init__(self, m: int, n_max: int):
        order = Order(m)
        self.order = order
        two_m = 2 * m
        modes = np.arange(1, n_max + 1)
        self.d_a, self.rem_a = polyalg.d_a_table(order, modes, modes)
        self.d_b, self.rem_b = polyalg.d_b_table(order, modes, modes, order.gamma_count - 1)
        nu, gamma = np.tril_indices(order.gamma_count, -1)
        self.pair_at = nu * order.gamma_count + gamma
        self.moment_at = nu * (order.gamma_count + n_max * order.j_count) + gamma
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
        self.diag_lu = np.array([linalg.lu_factor(self.d_a[a, a].T)[0] for a in range(n_max)])
        self.diag_ratio = np.array([linalg.factor_ratio(lu) for lu in self.diag_lu])
        size = order.gamma_count
        system = np.array(self.d_a[modes - 1, modes - 1].transpose(0, 2, 1))
        system[linalg.negligible_pivots(self.diag_lu).any(axis=-1)] = np.eye(size)
        inv = np.linalg.inv(system)
        # every diagonal entry is a product with the inverse: one refinement step with
        # an extended-precision residual (where the platform has one) rounds it closely
        wide = np.clongdouble
        inv = inv + inv @ (np.eye(size) - system.astype(wide) @ inv.astype(wide)).astype(complex)
        rows = np.concatenate([np.broadcast_to(np.eye(size), (n_max, size, size)),
                               self.left_recip[..., None] * self.d_a.reshape(n_max, -1, size)], axis=1)
        self.response = -(rows @ inv.transpose(0, 2, 1))
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
        self.pool: list[Workspace] = []
        self.clean_sweeps: set[tuple] = set()

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
      1..k, acc, acc's off-diagonal tail, left_recip row, V[alpha, :alpha - 1],
      response rows, V[alpha, alpha], potential's share p_terms[k]).
    - appends[k] for alpha = k + 1 < N: (V[alpha, :alpha], weights rows, the
      weighted column's rows in moments, and, where there are pairs, (d_b
      rows, the moment W's pairs, the column's moment rows flat, moment_at)).
      No column reads the moments of column N, so the sweep never forms them.
    - offsets[beta - 1] = (column beta, inv_den block, acc, lead rows, acc as
      rows, V at diagonal offset beta as strided rows).
    - causal[k] = (the coefficients found, newest first; the negated moments
      of as many columns; the slot of p[., k]; a_terms[k]), empty at m = 1.

    pair_w holds each column's moment pairs, and w (as w_blocks, one flat (nu,
    gamma) block per column) the inverse's negated moments.

    A sweep reads only entries it wrote earlier in the same call; the forward
    map and v_from_s zero v first (its n > alpha triangle is returned and read
    as zeros), the forward map zeroes moments (each row reads as zero past its
    own columns and at gamma >= nu), and p_from_v zeroes w.
    """

    def __init__(self, kern: DiagonalKernel):
        n_max, size = kern.response.shape[0], kern.order.gamma_count
        jc = kern.order.j_count
        self.v = np.empty((n_max, n_max * jc), dtype=complex)
        self.moments = np.empty(((n_max - 1) * size, size + n_max * jc), dtype=complex)
        self.acc = np.empty(size + n_max * jc, dtype=complex)
        self.lags = np.empty(n_max * size, dtype=complex)
        self.p_terms = np.empty((n_max, 1, jc), dtype=complex)
        self.lead = np.empty((n_max, jc), dtype=complex)
        self.pair_w = np.empty((n_max, 1, kern.pair_at.size), dtype=complex)
        self.w = np.empty((n_max, size, size), dtype=complex)
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
                               self.acc[:size + off], self.acc[size:size + off], kern.left_recip[k, :off],
                               col[:off], kern.response[k, :size + off], col[off:n], self.p_terms[k, 0]))
            if k < n_max - 1:
                rows = self.moments[k * size:(k + 1) * size]
                moment = (kern.d_b[k, :k + 1].reshape(n, -1), self.pair_w[k, 0], rows.reshape(-1),
                          kern.moment_at) if kern.pair_at.size else None
                self.appends.append((col[:n], kern.weights[k, :, :n], rows[:, size:size + n], moment))
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

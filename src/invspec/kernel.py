"""The pole recurrence that the forward and inverse maps share, as numpy tensors.

The half-line solution is e^{ikt} sum_alpha a_alpha(k) e^{-alpha t}, a_0 = 1,
and the half-line equation reads, column by column,

    Q_alpha(k) a_alpha(k) = -sum_{r=1..alpha} sum_gamma sq[gamma, r] (ik - (alpha - r))^gamma a_{alpha-r}(k),

    Q_alpha(k) = (k + i alpha)^2m - k^2m = prod_{l=0..2m-1} (i alpha + k (1 - w_l)),

with sq = forward.series_q(p).  a_alpha has simple poles at k_nj = -i n /
(1 - w_j), n <= alpha: Q_alpha brings those at n = alpha, a_{alpha-r} the
others.  Its residues are the V table, V[j, n, alpha] = (1 - w_j) Res
a_alpha(k_nj), and the spectral data are its diagonal, S_alpha j = V[j,
alpha, alpha].

At a pole ik = c_nj = n / (1 - w_j), so the relation is a recurrence over the
(2m-1) N poles that keeps one number per pole and column: the value
a_alpha(k_nj) for n > alpha, the residue for n <= alpha.  A residue at n <
alpha sums the residues of the earlier columns s >= n and is divided by
Q_alpha(k_nj); the residue at n = alpha sums values and is divided by
Q'_alpha(k_alpha j).  Both are built as products of the factors above, the
l = j factor at n = alpha replaced by its derivative 1 - w_j: the difference
form of Q cancels.

The forward map is given sq and reads the residues off.  The inverse map is
given S: at n = alpha the relation is a Vandermonde system in the column's
new coefficients sq[., alpha], which pair with a_0 = 1,

    sum_gamma (alpha c_1j)^gamma sq[gamma, alpha] = t_alpha j - d_alpha j,

t_alpha = S_alpha (-Q'_alpha / (1 - w)) and d_alpha the earlier columns'
share.  T_alpha[j, gamma] = (alpha c_1j)^gamma has the inverse diag(alpha^-gamma)
T_1^-1, and one refinement step in working precision, folded into a second
stacked product, recovers the digits its condition number costs (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 12).

Both sweeps hold the weighted rows G[s, gamma, pole] = (c - s)^gamma x_s,
x_s column s's number at the pole, so column alpha's sum over (r, gamma) is
one matvec of the lagged coefficients against G's earlier rows, and
pn_w[alpha] = (c - alpha)^gamma (-1 / Q_alpha) turns it into column alpha's
row in one multiply.  The forward sweep keeps the residues apart, in R, which
stays zero at n > s, so that a residue sum reads R where a value sum reads G
and no row is ever cleared.

A kernel tabulates, once per (m, N), everything the sweeps read.  Its one
guard is the resonance guard: a left factor L[alpha, n, j] = (alpha -
c_nj)^2m - c_nj^2m = (-1)^m Q_alpha(k_nj) near zero at some n < alpha, where
the forward map divides; it depends only on (m, N) and LEFT_FACTOR_RTOL, so
the build settles it.  The inverse map never divides at n < alpha, and at n
> alpha |Q| stays well away from zero.  Table axes are 0-based: index i
stands for the mode i + 1 of n, alpha or s, and for the root w_{i+1} of j;
a pole (n, j) is the flat index (n - 1)(2m - 1) + j - 1.

Each sweep is also planned once: a Workspace holds the buffers one call
writes and, per column, the table slices and buffer views its numpy calls
take, so a column costs only those calls.  A kernel pools its workspaces,
one per concurrent call.  The maps are deterministic on one machine, BLAS
build and BLAS thread count; a different thread count can split a matvec's
sum differently and move the results in the last bits.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .core import Order, roots_of_unity

# the forward sweep refuses a column with a left factor |L| <= LEFT_FACTOR_RTOL times its scale
LEFT_FACTOR_RTOL = 1e-12


class DiagonalKernel:
    """Read-only tables of the pole recurrence at order m and depth N.

    w[j] is the root w_{j+1} and c[n, j] = n / (1 - w_j) the poles, ik at
    k_nj; g0[gamma, pole] = c^gamma is column 0's weighted row, and
    pn_w[alpha - 1, gamma, pole] = (c - alpha)^gamma (-1 / Q_alpha(k_nj)),
    with Q'_alpha at n = alpha, turns column alpha's sum into its weighted
    row.  t_scale[alpha - 1, j] = -Q'_alpha(k_alpha j) / (1 - w_j) scales
    S_alpha to the right side of the inverse's Vandermonde system; solve[alpha
    - 1] = [T^-1, -T^-1, I - T^-1 T] with T = T_alpha maps (t, d, x0) to the
    refined solution, and its first 2 (2m - 1) columns map (t, d) to the
    first, x0.

    The resonance guard reads left_floor[alpha - 1, j], the smallest |L| at n
    < alpha, against left_scale[alpha - 1, j] = (alpha / |1 - w_j|)^2m; only
    where it trips does abs_left recompute, as the build computed them, the
    entries it reports.  forward_refusal is the first column alpha (1-based)
    the forward sweep refuses, None where there is none.  A kernel keeps the
    verdict of the constant it was built under: changing LEFT_FACTOR_RTOL at
    run time takes diagonal_kernel.cache_clear().
    """

    def __init__(self, m: int, n_max: int):
        order = Order(m)
        self.order = order
        self.n_max = n_max
        size = jc = order.gamma_count
        modes = np.arange(1, n_max + 1)
        roots = roots_of_unity(order)
        self.w = roots[1:]
        self.c = modes[:, None] / (1 - self.w)
        self.left_scale = (modes[:, None] / np.abs(1 - self.w)) ** (2 * m)
        self.left_floor = np.full((n_max, jc), np.inf)
        for k in range(1, n_max):
            self.left_floor[k] = np.abs(self._left(k)).min(axis=0)
        resonant = (self.left_floor <= LEFT_FACTOR_RTOL * self.left_scale).any(axis=-1)
        self.forward_refusal = int(np.argmax(resonant)) + 1 if resonant.any() else None

        # the factors i alpha + k_nj (1 - w_l) of Q_alpha(k_nj) as [alpha, n, j, l], where
        # the vanishing l = j factor at n = alpha becomes its derivative 1 - w_j
        k = -1j * self.c
        factors = 1j * modes[:, None, None, None] + k[None, :, :, None] * (1 - roots)
        at, j = np.arange(n_max)[:, None], np.arange(jc)
        factors[at, at, j, j + 1] = 1 - self.w
        q = factors.prod(axis=-1)
        powers = np.arange(size)[:, None]
        c = self.c.reshape(-1)
        self.g0 = c ** powers
        self.pn_w = (c - modes[:, None, None]) ** powers * (-1 / q.reshape(n_max, 1, -1))
        self.t_scale = -q[at, at, j] / (1 - self.w)
        # T_alpha^-1 = diag(alpha^-gamma) T_1^-1, T_alpha[j, gamma] = c_alpha j^gamma
        t = self.c[:, :, None] ** powers.T
        inv = np.linalg.inv(t[0]) / (1.0 * modes[:, None, None]) ** powers
        self.solve = np.concatenate([inv, -inv, np.eye(size) - inv @ t], axis=2)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)
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


class Workspace:
    """The buffers one sweep call writes, and each column's steps over them.

    lags holds the coefficients sq newest first, sq[., N - 1 - r] at row r,
    which the forward sweep loads and the inverse sweep writes; g holds G as
    rows (s, gamma), s = 0..N, its first block column 0's g0; residues holds
    R as rows (s, gamma), s = 1..N, written only at n <= s; acc is a column's
    sum at every pole, and u[alpha - 1] the inverse's (t, d, x0) of column
    alpha.  A step is a tuple of the table slices and buffer views one column
    reads and writes, in the order its sweep passes them to numpy:

    - forward[k] for alpha = k + 1: (lags of s >= 1, R's rows s = 1..k at n
      < alpha, acc there; lags, G's rows s = 0..k at n >= alpha, acc there;
      pn_w[k], G's row alpha; R's row alpha at n <= alpha, G's row there).
    - inverse[k]: (lags of s >= 1, G's rows s = 1..k at n = alpha, d; the
      first columns of solve[k], (t, d), x0; solve[k], u[k], the lag slot of
      sq[., alpha]; lags, G's rows s = 0..k at n > alpha, acc there; pn_w[k]
      there, G's row alpha there).

    The buffers are zeroed once, when the Workspace is built, and g's first
    block set to g0.  A call reads only entries it wrote itself, g0, or R at
    n > s, which no sweep writes and which stays zero.  The forward sweep
    writes all of G's rows s >= 1 and R's n <= s triangle, the inverse G's
    rows at n > s; each writes lags and acc whole, and the inverse u.
    """

    def __init__(self, kern: DiagonalKernel):
        n_max, size = kern.n_max, kern.order.gamma_count
        jc = kern.order.j_count
        poles = n_max * jc
        self.lags = np.zeros(n_max * size, dtype=complex)
        self.acc = np.zeros(poles, dtype=complex)
        self.g = np.zeros(((n_max + 1) * size, poles), dtype=complex)
        self.g[:size] = kern.g0
        self.residues = np.zeros((n_max * size, poles), dtype=complex)
        self.u = np.zeros((n_max, 3 * jc), dtype=complex)
        self.lag_rows = self.lags.reshape(n_max, size)
        rows = self.g.reshape(n_max + 1, size, poles)
        res = self.residues.reshape(n_max, size, poles)
        self.forward, self.inverse = [], []
        for k in range(n_max):
            lo, hi = k * jc, (k + 1) * jc
            lag = self.lags[(n_max - 1 - k) * size:]
            self.forward.append((lag[size:], self.residues[:k * size, :lo], self.acc[:lo],
                                 lag, self.g[:(k + 1) * size, lo:], self.acc[lo:],
                                 kern.pn_w[k], rows[k + 1], res[k, :, :hi], rows[k + 1, :, :hi]))
            u = self.u[k]
            self.inverse.append((lag[size:], self.g[size:(k + 1) * size, lo:hi], u[jc:2 * jc],
                                 kern.solve[k, :, :2 * jc], u[:2 * jc], u[2 * jc:],
                                 kern.solve[k], u, lag[:size],
                                 lag, self.g[:(k + 1) * size, hi:], self.acc[hi:],
                                 kern.pn_w[k, :, hi:], rows[k + 1, :, hi:]))


@lru_cache(maxsize=8)
def diagonal_kernel(m: int, n_max: int) -> DiagonalKernel:
    """The shared kernel for order m and depth n_max, built on first use."""
    return DiagonalKernel(m, n_max)

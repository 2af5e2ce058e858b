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

At a pole ik = c_nj = n / (1 - w_j), and column alpha's relation gives the
value a_alpha(k_nj) at the poles n > alpha and, divided by Q'_alpha(k_alpha
j) in place of Q_alpha, the residue at n = alpha.  Each Q is built as the
product of the factors above, the l = j factor at n = alpha replaced by its
derivative 1 - w_j: the difference form of Q cancels.

The residues at n < alpha need no recurrence of their own.  At the mirror
point k' = w_j k_nj, ik' = c_nj - n, (w_j k)^2m = k^2m gives Q_{n+beta}(k_nj)
= Q_beta(k') exactly, and (ik - (n + beta - r)) = (ik' - (beta - r)), so the
residues of the later columns at k_nj solve the relation at k':

    Res a_{n+beta}(k_nj) = Res a_n(k_nj) a_beta(k'),   V[j, n, n + beta] = S_nj a_beta(w_j k_nj),

the jump relation that analytic.jump_residual checks.  a_beta is regular at
k', since Re ik' = -n/2 < 0 < Re c.  The forward map is given sq and runs
the value recurrence at the poles n >= alpha, which gives S_alpha, and at
the mirror points n <= N - alpha, the entries V[j, n, n + alpha].  The
inverse map is given S: at n = alpha the relation is a Vandermonde system in
the column's new coefficients sq[., alpha], which pair with a_0 = 1,

    sum_gamma (alpha c_1j)^gamma sq[gamma, alpha] = t_alpha j - d_alpha j,

t_alpha = S_alpha (-Q'_alpha / (1 - w)) and d_alpha the earlier columns'
share.  T_alpha[j, gamma] = (alpha c_1j)^gamma has the inverse diag(alpha^-gamma)
T_1^-1, and one refinement step in working precision, folded into a second
stacked product, recovers the digits its condition number costs (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 12).

Both sweeps hold the weighted rows G[s, gamma, point] = (ik - s)^gamma
a_s(k) over the points [poles | mirrors], so column alpha's sum over (r,
gamma) is one matvec of the lagged coefficients against G's earlier rows,
and weights[alpha - 1] = (ik - alpha)^gamma (-1 / Q_alpha(k)), with
Q'_alpha at the pole n = alpha, turns it into column alpha's row in one
multiply.  The points a forward column reads, poles n >= alpha and mirrors
n <= N - alpha, are one contiguous slice of G's columns, and weights[alpha
- 1] holds exactly those; the inverse reads its poles n > alpha.

A kernel tabulates, once per (m, N), everything the sweeps read.  Every Q
it divides by is bounded away from zero in closed form, so neither map has a
guard: the inverse divides by Q_alpha(k_nj) at its poles n > alpha, and the
forward map by Q_beta(w_j k_nj) = Q_{n+beta}(k_nj) at the mirror points.
The lemma: at k_nj each factor of Q_alpha is i (alpha - z_l),
z_l = n (1 - w_l) / (1 - w_j), and 1 - e^{i theta} = 2 sin(theta / 2) e^{i
(theta / 2 - pi / 2)} gives, with theta_l = l pi / m,

    |z_l| = n sin(theta_l / 2) / sin(theta_j / 2),   arg z_l = (l - j) pi / 2m.

So z_l is on the positive real axis only at l = j, where the factor is i
(alpha - n), and z_0 = 0, where it is i alpha.  Every other z_l is at an
angle of at least pi / 2m from that axis, so |alpha - z_l| >= sin(pi / 2m)
max(alpha, |z_l|), and

    |Q_alpha(k_nj)| >= |alpha - n| (alpha sin(pi / 2m))^{2m-1} > 0,   n != alpha,

with equality at m = 1.  The same distances bound each factor's relative
rounding by about 2 eps / sin(pi / 2m), and the l = j factor's absolute
rounding by a few n eps.  At n = alpha that factor vanishes, and the kernel
takes its derivative 1 - w_j in its place: |Q'_alpha(k_alpha j)| >= |1 - w_j|
(alpha sin(pi / 2m))^{2m-1}.  Table axes are 0-based: index i
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


class DiagonalKernel:
    """Read-only tables of the pole recurrence at order m and depth N.

    w[j] is the root w_{j+1} and c[n, j] = n / (1 - w_j) the poles, ik at
    k_nj.  The sweeps' points are [poles | mirrors], each n-major with flat
    index (n - 1)(2m - 1) + j - 1, ik = c at a pole and c - n at its mirror
    point; g0[gamma, point] = (ik)^gamma is column 0's weighted row.
    weights[alpha - 1] holds column alpha's weights (ik - alpha)^gamma (-1 /
    Q_alpha(k)), with Q'_alpha at n = alpha, at the points it reads: the poles
    n >= alpha, then the mirrors n <= N - alpha, whose divisor Q_alpha(w_j
    k_nj) is Q_{n+alpha}(k_nj).  The weights are slices of one table of N^2
    (2m - 1)^2 entries.  t_scale[alpha - 1, j] = -Q'_alpha(k_alpha j) / (1 -
    w_j) scales S_alpha to the right side of the inverse's Vandermonde system;
    solve[alpha - 1] = [T^-1, -T^-1, I - T^-1 T] with T = T_alpha maps (t, d,
    x0) to the refined solution, and its first 2 (2m - 1) columns map (t, d)
    to the first, x0.  in_table[n - 1, beta] marks the entries V[j, n, n +
    beta] inside the table, n + beta <= N.
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
        # the factors i alpha + k_nj (1 - w_l) of Q_alpha(k_nj) as [alpha, n, j, l], where
        # the vanishing l = j factor at n = alpha becomes its derivative 1 - w_j; at n !=
        # alpha, |Q| >= |alpha - n| (alpha sin(pi / 2m))^(2m-1) (the lemma above)
        k = -1j * self.c
        factors = 1j * modes[:, None, None, None] + k[None, :, :, None] * (1 - roots)
        at, j = np.arange(n_max)[:, None], np.arange(jc)
        factors[at, at, j, j + 1] = 1 - self.w
        q = factors.prod(axis=-1)
        del factors
        powers = np.arange(size)[:, None]
        c = self.c.reshape(-1)
        self.g0 = np.concatenate([c ** powers, (self.c - modes[:, None]).reshape(-1) ** powers], axis=1)
        # every column's weight at every pole, as [alpha, gamma, n, j]: those at n >= alpha are
        # the column's pole weights, and the one at n < alpha is the mirror weight of column
        # alpha - n, as Q_{alpha-n}(w_j k_nj) = Q_alpha(k_nj) and c - alpha = (c - n) - (alpha - n)
        full = np.power(c - modes[:, None, None], powers)
        full *= -1 / q.reshape(n_max, 1, -1)
        full = full.reshape(n_max, size, n_max, jc)
        joined = np.empty(n_max * n_max * size * jc, dtype=complex)
        ends = np.cumsum(size * jc * (2 * (n_max - np.arange(n_max)) - 1))
        self.weights = tuple(block.reshape(size, -1) for block in np.split(joined, ends[:-1]))
        for a, block in enumerate(self.weights):
            points = block.reshape(size, -1, jc)
            points[:, :n_max - a] = full[a, :, a:]
            points[:, n_max - a:] = np.diagonal(full, a + 1, axis1=2, axis2=0).transpose(0, 2, 1)
            block.setflags(write=False)
        joined.setflags(write=False)
        del full
        self.t_scale = -q[at, at, j] / (1 - self.w)
        self.in_table = np.add.outer(np.arange(n_max), np.arange(n_max)) < n_max
        # T_alpha^-1 = diag(alpha^-gamma) T_1^-1, T_alpha[j, gamma] = c_alpha j^gamma
        t = self.c[:, :, None] ** powers.T
        inv = np.linalg.inv(t[0]) / (1.0 * modes[:, None, None]) ** powers
        self.solve = np.concatenate([inv, -inv, np.eye(size) - inv @ t], axis=2)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)
        self.pool: list[Workspace] = []

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
    rows (s, gamma), s = 0..N, over the points [poles | mirrors], its first
    block column 0's g0; acc is a column's sum at the points it reads, and
    u[alpha - 1] the inverse's (t, d, x0) of column alpha.  A step is a tuple
    of the table slices and buffer views one column reads and writes, in the
    order its sweep passes them to numpy:

    - forward[k] for alpha = k + 1: (lags, G's rows s = 0..k at the poles n
      >= alpha and the mirrors n <= N - alpha, acc there; weights[k], G's row
      alpha there).
    - inverse[k]: (lags of s >= 1, G's rows s = 1..k at n = alpha, d; the
      first columns of solve[k], (t, d), x0; solve[k], u[k], the lag slot of
      sq[., alpha]; lags, G's rows s = 0..k at the poles n > alpha, acc
      there; the weights of those poles, G's row alpha there).

    The buffers are zeroed once, when the Workspace is built, and g's first
    block set to g0.  A call reads only entries it wrote itself or g0.  Row s
    >= 1 of G is written at the poles n >= s and the mirrors n <= N - s, by
    the forward sweep, and at the poles n > s by the inverse; the rest of it
    stays zero.  The forward sweep writes acc whole, each sweep writes lags
    whole, and the inverse u.
    """

    def __init__(self, kern: DiagonalKernel):
        n_max, size = kern.n_max, kern.order.gamma_count
        jc = kern.order.j_count
        poles = n_max * jc
        self.lags = np.zeros(n_max * size, dtype=complex)
        self.acc = np.zeros(2 * poles - jc, dtype=complex)
        self.g = np.zeros(((n_max + 1) * size, 2 * poles), dtype=complex)
        self.g[:size] = kern.g0
        self.u = np.zeros((n_max, 3 * jc), dtype=complex)
        self.lag_rows = self.lags.reshape(n_max, size)
        rows = self.g.reshape(n_max + 1, size, 2 * poles)
        self.forward, self.inverse = [], []
        for k in range(n_max):
            # column alpha = k + 1 reads the poles n >= alpha and the mirrors n <= N - alpha
            lo, hi = k * jc, (k + 1) * jc
            end = 2 * poles - hi
            lag = self.lags[(n_max - 1 - k) * size:]
            self.forward.append((lag, self.g[:(k + 1) * size, lo:end], self.acc[lo:end],
                                 kern.weights[k], rows[k + 1, :, lo:end]))
            u = self.u[k]
            self.inverse.append((lag[size:], self.g[size:(k + 1) * size, lo:hi], u[jc:2 * jc],
                                 kern.solve[k, :, :2 * jc], u[:2 * jc], u[2 * jc:],
                                 kern.solve[k], u, lag[:size],
                                 lag, self.g[:(k + 1) * size, hi:poles], self.acc[hi:poles],
                                 kern.weights[k][:, jc:poles - lo], rows[k + 1, :, hi:poles]))


@lru_cache(maxsize=8)
def diagonal_kernel(m: int, n_max: int) -> DiagonalKernel:
    """The shared kernel for order m and depth n_max, built on first use."""
    return DiagonalKernel(m, n_max)

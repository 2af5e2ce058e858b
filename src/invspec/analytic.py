"""Closed-form evaluation of the analytic objects built from the data tables.

Everything here is a finite exponential sum.  Tail integrals over [t, inf)
are done symbolically, int_t^inf c e^(a s) ds = -c e^(a t) / a with
Re a < 0, so no quadrature error enters any of the checks.  Normalization
conventions:

* ``eval_f`` is the half-line series whose coefficients are V_na / (i n + k (1 - w_j)).
  In the periodic variable x = i t, lam = -i k its terms carry
  V_na / (i [n + lam (1 - w_j)]).
* The half-line equation solved by the series carries the coefficient table
  ``forward.series_q`` (equal to (-1)^m times the classical rescaling).
"""
from __future__ import annotations

import numpy as np

from .core import PotentialCoefficients, SpectralData, VTable, roots_of_unity
from .errors import InputError, PoleProximityError, TruncationError
from .forward import series_q
from .inverse import jump_factors

POLE_TOL = 1e-9  # eval_f refuses a point this close to a pole


def eval_f(v: VTable, t: complex, k: complex, deriv: int = 0, depth: int | None = None) -> complex:
    """Half-line solution series (or its t-derivative) at (t, k), truncated at depth:
    (i k)^d e^{i k t} + sum over j and n <= alpha <= depth of
    V[j, n, alpha] / (i n + k (1 - w_j)) * (i k - alpha)^d e^{(i k - alpha) t}.

    The first denominator within POLE_TOL of zero, lowest j first and then
    lowest n, raises PoleProximityError.
    """
    n_cap = v.n_max if depth is None else depth
    if n_cap > v.n_max:
        raise TruncationError(f"depth {n_cap} exceeds stored table depth {v.n_max}",
                              needed_depth=n_cap)
    modes = np.arange(1, n_cap + 1)
    table = 1j * modes[:, None] + k * (1 - roots_of_unity(v.order)[None, 1:])
    near = np.argwhere(np.abs(table.T) <= POLE_TOL)
    if near.size:
        j, n = (int(i) + 1 for i in near[0])
        raise PoleProximityError(
            f"evaluation point within {POLE_TOL} of the (n={n}, j={j}) pole", indices=(n, j)
        )
    rate = 1j * k - modes
    factor = rate ** deriv * np.exp(rate * t)
    head = (1j * k) ** deriv * np.exp(1j * k * t)
    return complex(head + np.einsum("jna,nj,a->", v.table[:, :modes.size, :modes.size],
                                    1 / table, factor))


def ode_residual(p: PotentialCoefficients, v: VTable, t: complex, k: complex,
                 depth: int | None = None) -> complex:
    """Residual of the half-line equation on the truncated series.

    Uses the coefficient table the recurrences encode (forward.series_q), so a
    correct (p, V) pair drives the residual to zero as the depth grows.
    """
    m = p.order.m
    n_cap = min(v.n_max, p.n_max) if depth is None else depth
    total = (-1) ** m * eval_f(v, t, k, 2 * m, n_cap) - k ** (2 * m) * eval_f(v, t, k, 0, n_cap)
    q_t = series_q(p) @ np.exp(-np.arange(1, p.n_max + 1) * t)
    for gamma, q_gamma in enumerate(q_t):
        if q_gamma != 0:
            total += q_gamma * eval_f(v, t, k, gamma, n_cap)
    return complex(total)


def ode_mode_residual(p: PotentialCoefficients, v: VTable) -> float:
    """Worst scaled residual of the half-line equation on its modes e^{(ik - alpha) t}, alpha = 1..N,
    Q_alpha(k) a_alpha + sum_{r, gamma} sq[gamma, r] (ik - alpha + r)^gamma a_{alpha-r} (kernel.py),
    a_0 = 1 and a_alpha = sum_{j, n} V[j, n, alpha] / (i n + k (1 - w_j)) as in eval_f, at k = 0.37,
    0.9 + 0.2i and 1.7.  At Im k >= 0 every |i n + k (1 - w_j)| >= n sin(pi / 2m) (core.a_m_constant).
    Mode alpha reads the columns <= alpha of p and v, which have one depth, so a consistent pair holds
    it to rounding.  Each residual is divided by its terms' magnitudes, sum |V| / |den| for |a_alpha|.
    """
    k = np.array([0.37, 0.9 + 0.2j, 1.7])
    n_max, m = v.n_max, v.order.m
    modes = np.arange(1, n_max + 1)

    def both(x):  # each expression is formed once over the terms and once over their moduli
        return np.stack([x, np.abs(x)])

    den = 1j * modes[:, None] + k[:, None, None] * (1 - roots_of_unity(v.order)[1:])  # [k, n, j]
    a = np.ones((2, k.size, n_max + 1), dtype=complex)  # [., k, s], a_0 = 1
    a[:, :, 1:] = np.einsum("xjna,xknj->xka", both(v.table), 1 / both(den))
    # (ik - s)^gamma over s < N, and the lower-triangular Toeplitz table sq[gamma, alpha - s], alpha > s
    rate = (1j * k[:, None] - np.arange(n_max))[:, None, :] ** np.arange(2 * m - 1)[:, None]
    lag = np.tril(series_q(p)[:, np.subtract.outer(np.arange(n_max), np.arange(n_max))])
    q = (k[:, None] + 1j * modes) ** (2 * m) - k[:, None] ** (2 * m)
    total = both(q) * a[:, :, 1:] + np.einsum("xgas,xkgs->xka", both(lag), both(rate) * a[:, :, None, :-1])
    res, scale = np.abs(total[0]), total[1].real
    return float(np.divide(res, scale, out=np.zeros_like(res), where=scale > 0).max())


def _kernel_terms(v: VTable):
    """Arrays (coeff, t_rate, u_rate, alpha, pole) of the kernel's nonzero exponential terms,
    ordered by j, then alpha, then n.

    A term's u-rate -n / (1 - w_j) depends only on its pole (n, j), whose flat
    index (j - 1) * N + n - 1 is ``pole``.
    """
    w = roots_of_unity(v.order)[1:]
    by_col = v.table.transpose(0, 2, 1)  # [j, alpha, n]
    j, alpha, n = np.nonzero(by_col)
    c = (n + 1) / (1 - w[j])
    return by_col[j, alpha, n] / (1j * (1 - w[j])), c - (alpha + 1), -c, alpha + 1, j * v.n_max + n


def _transition_terms(s: SpectralData):
    """Arrays (coeff, t_rate, u_rate, n) of the transition function's nonzero terms,
    ordered by n, then j."""
    w = roots_of_unity(s.order)[1:]
    n, j = np.nonzero(s.table)
    c = (n + 1) / (1 - w[j])
    return s.table[n, j] / (1j * (1 - w[j])), c * w[j], -c, n + 1


def q0_from_kernel(v: VTable) -> dict[int, complex]:
    """2m d/dx K(x, x) = sum over alpha of q[alpha] e^(-alpha x), as {alpha: q[alpha]} over the
    columns that hold a nonzero entry; its modes feed the trace cross-check.

    A column's terms share the rate -alpha up to rounding.  They are summed in
    ascending order of their rates, and the sum is multiplied by the first of them.
    """
    kc, ka, kb, kcol, _ = _kernel_terms(v)
    rates = ka + kb
    sums, rate = {}, {}
    for i in np.lexsort((rates.imag, rates.real)).tolist():
        alpha = int(kcol[i])
        if alpha in sums:
            sums[alpha] += kc[i]
        else:
            sums[alpha], rate[alpha] = kc[i], rates[i]
    return {alpha: complex(2 * v.order.m * (total * rate[alpha])) for alpha, total in sums.items()}


def marchenko_residual(v: VTable, s: SpectralData, t: float | np.ndarray, u: float | np.ndarray,
                       projected: bool = True) -> complex | np.ndarray:
    """Residual K(t,u) - F(t,u) - int_t^inf K(t,s') F(s',u) ds' in closed form.

    With ``projected`` the product integral keeps only the exponential modes
    the truncated tables resolve (combined column index <= N); on a consistent
    table pair that projection vanishes identically.  The raw residual keeps
    the truncation tail of order |S| * |V_tail|.

    ``t`` and ``u`` broadcast: scalars give a complex, arrays a complex array
    of their broadcast shape.  The term tables are built once for all points,
    and each point's value is the same expression a scalar call evaluates.

    The product integral sums over every (kernel term a, transition term b)
    pair, but a kernel term's u-rate kb depends only on its pole, so it is
    summed pole by pole: with x_a = kc_a e^{(ka_a + kb_a) t} and y_b = fc_b
    e^{fg_b t + fh_b u} it is -sum_a x_a P[pole_a, cut_a - 1], where P[g, i]
    is the sum of C[g, b] y_b over the transition terms b <= i, C[g, b] = 1 /
    (kb_g + fg_b) over the (2m - 1) N poles.  The transition terms are ordered
    by n', so those with alpha_a + n' <= N are the first cut_a of them
    (``projected=False`` reads all of them): one cumulative sum per point.
    A call holds one table of (2m - 1) N rows by the transition terms, in
    which each point forms C y and its prefix sums, not one entry per pair.
    Each rate kb_g + fg_b has real part -(n + n') / 2 <= -1
    (core.a_m_constant), so every tail integral converges.
    """
    t_pts, u_pts = np.broadcast_arrays(t, u)
    below = np.flatnonzero(u_pts < t_pts)
    if below.size:
        i = below[0]
        raise InputError(f"residual requires u >= t, got t={t_pts.flat[i]}, u={u_pts.flat[i]}")
    kc, ka, kb, kcol, kpole = _kernel_terms(v)
    fc, fg, fh, frow = _transition_terms(s)
    pairs = bool(kc.size and fc.size)
    if pairs:
        # int_t^inf e^{a s} ds = -e^{a t}/a, so the pair (a, b) contributes
        # -x_a y_b / (kb_a + fg_b): one reciprocal per (pole, transition term)
        _, first, group = np.unique(kpole, return_index=True, return_inverse=True)
        kb_pole = kb[first]
        if projected:
            cut = np.searchsorted(frow, np.maximum(min(v.n_max, s.n_max) - kcol, 0), side="right")
        else:
            cut = np.full(kcol.shape, fc.size)
        # a kernel term that keeps no transition term (n' >= 1, so every alpha >= N) adds nothing
        kept = np.flatnonzero(cut)
        group, last = group[kept], cut[kept] - 1
        x_coeff, x_rate = kc[kept], ka[kept] + kb[kept]
        prefix = np.empty((first.size, fc.size), dtype=complex)
    out = np.empty(t_pts.shape, dtype=complex)
    for i, (ti, ui) in enumerate(zip(t_pts.ravel().tolist(), u_pts.ravel().tolist())):
        val = 0j
        if kc.size:
            val += np.sum(kc * np.exp(ka * ti + kb * ui))
        if fc.size:
            f_term = fc * np.exp(fg * ti + fh * ui)
            val -= np.sum(f_term)
        if pairs:
            # the reciprocals are formed anew at each point, in the one working table
            np.add.outer(kb_pole, fg, out=prefix)
            np.reciprocal(prefix, out=prefix)
            prefix *= f_term
            np.cumsum(prefix, axis=1, out=prefix)
            val += (x_coeff * np.exp(x_rate * ti)) @ prefix[group, last]
        out.flat[i] = val
    return complex(out) if out.ndim == 0 else out


def jump_residual(v: VTable, s: SpectralData) -> float:
    """Worst scaled residual of the jump relation over every entry V[j, n, n + beta], n + beta <= N,
    against inverse.jump_factors' right side: the coefficients of e^{(c_nj - alpha) t} in the series'
    residue at the pole (n, j) and in S_nj times its shifted branch, equal to rounding on a consistent
    pair.  Each gap is divided by its terms' magnitudes, |V[j, n, n + beta]| and the right side's.
    """
    n_max, jc = v.n_max, v.order.j_count
    lead, inv_den = jump_factors(s)
    cols = v.table.transpose(2, 1, 0).reshape(n_max, -1)[:-1]  # [beta - 1, r l] = V[l, r, beta]
    rhs = np.concatenate([s.table.reshape(1, -1), lead * (cols @ inv_den)]).reshape(n_max, n_max, jc)
    terms = np.concatenate([np.abs(s.table).reshape(1, -1),
                            np.abs(lead) * (np.abs(cols) @ np.abs(inv_den))]).reshape(n_max, n_max, jc)
    # lhs[beta, n, j] = V[j, n, n + beta], inside the table where n + beta <= N
    beta, n = np.indices((n_max, n_max))
    inside = beta + n < n_max
    lhs = v.table.transpose(1, 2, 0)[n, np.minimum(n + beta, n_max - 1)]
    gap = np.abs(lhs - rhs)[inside]
    scale = (np.abs(lhs) + terms)[inside]
    return float(np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0).max())


def shift_spectral(s: SpectralData, a: complex) -> SpectralData:
    """Translation law on the data: S_nj -> e^{i n a} S_nj, Im a >= 0 only."""
    if complex(a).imag < 0:
        raise InputError(f"translation requires Im a >= 0, got {a}")
    return s.shifted(a)

"""Closed-form evaluation of the analytic objects built from the data tables.

Everything here is a finite exponential sum or a coefficient identity of the
tables, so no quadrature error enters any of the checks.  The half-line
solution is e^{ikt} sum_alpha a_alpha(k) e^{-alpha t}, a_0 = 1, with
a_alpha(k) = sum_{j, n <= alpha} V[j, n, alpha] / (i n + k (1 - w_j)); in the
periodic variable x = i t, lam = -i k its terms carry V_na / (i [n + lam (1 - w_j)]).
The half-line equation it solves carries the coefficient table
``core.series_q`` (equal to (-1)^m times the classical rescaling).
"""
from __future__ import annotations

import numpy as np

from .core import PotentialCoefficients, SpectralData, VTable, jump_factors, roots_of_unity, series_q
from .errors import InputError


def ode_mode_residual(p: PotentialCoefficients, v: VTable) -> float:
    """Worst scaled residual of the half-line equation on its modes e^{(ik - alpha) t}, alpha = 1..N,
    Q_alpha(k) a_alpha + sum_{r, gamma} sq[gamma, r] (ik - alpha + r)^gamma a_{alpha-r} (kernel.py),
    a_0 = 1 and a_alpha = sum_{j, n} V[j, n, alpha] / (i n + k (1 - w_j)), at k = 0.37,
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


def q0_from_kernel(v: VTable) -> dict[int, complex]:
    """2m d/dx K(x, x) = sum over alpha of q[alpha] e^(-alpha x), as {alpha: q[alpha]} over the
    columns that hold a nonzero entry, in ascending alpha; its modes feed the trace cross-check.

    A kernel term V[j, n, alpha] / (i (1 - w_j)) e^{(c_nj - alpha) t - c_nj u} (marchenko_residual)
    has the rate -alpha on the diagonal t = u exactly, so q[alpha] = -2m alpha sum_{j, n}
    V[j, n, alpha] / (i (1 - w_j)).

    On V = v_from_s(S) that sum is the log series of the Fredholm determinant (fredholm.py):
    with D(z) = P(q), q = e^{iz}, and log P(q) = sum_n l_n q^n,

        sum_{j, n} V[j, n, alpha] / (i (1 - w_j)) = -alpha l_alpha,   q[alpha] = 2m alpha^2 l_alpha.

    The derivation.  Flat over (n, j), let W = diag(q^n), N = diag(n), L = diag(i (1 - w_j) S_nj)
    and C[(n j), (r l)] = 1 / (n w_j (1 - w_l) - r (1 - w_j)).  The determinant's operator is
    J = C L W, so P = det(I - A) with A = W L C, by det(I - XY) = det(I - YX).  v_from_s fills
    column alpha, v_alpha[(n j)] = V[j, n, alpha], with S_alpha j at n = alpha and with
    (L C v_{alpha-n})[(n j)] at n < alpha, so the columns' power series is the resolvent's:
    sum_alpha v_alpha q^alpha = (I - A)^{-1} s, s[(n j)] = S_nj q^n.  Jacobi's formula gives
    q P'/P = -tr((I - A)^{-1} N A).  With x_nj = n w_j / (1 - w_j) and y_nj = n / (1 - w_j),
    C[(n j), (r l)] = 1 / ((1 - w_j)(1 - w_l)(x_nj - y_rl)), so X = diag(x) and Y = diag(y)
    displace A to rank one, X A - A Y = g h^T with g = (i S_nj q^n) and h = (1 / (1 - w_j)),
    and x_nj - y_nj = -n gives N = Y - X.  (I - A)^{-1} commutes with A, so
    tr((I - A)^{-1} (Y A - A Y)) = 0 and q P'/P = h^T (I - A)^{-1} g.  As 1 / (i (1 - w_j)) =
    -i h and s = -i g, the sum's power series is -h^T (I - A)^{-1} g = -q P'/P.
    """
    alpha = np.arange(1, v.n_max + 1)
    weight = 1j * (1 - roots_of_unity(v.order)[1:])
    q = -2 * v.order.m * alpha * (v.table / weight[:, None, None]).sum(axis=(0, 1))
    return {int(a): complex(q[a - 1]) for a in alpha[v.table.any(axis=(0, 1))]}


def _jump_gaps(v: VTable, s: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """The jump gaps gap[beta, n, j] = V[j, n, n + beta] - rhs[beta, n, j] over the entries inside the
    table, n + beta <= N, zero outside it, and the sum of the magnitudes of each gap's terms.

    rhs is the jump relation's right side (core.jump_factors): S_nj at beta = 0, and one step of
    v_from_s's formula, i (1 - w_j) S_nj sum_{r, l} V[l, r, beta] / (n w_j (1 - w_l) - r (1 - w_j)),
    at beta >= 1.  The two tables must have one order and one depth.
    """
    if v.order != s.order or v.n_max != s.n_max:
        raise InputError(f"V table (m={v.order.m}, N={v.n_max}) and spectral data "
                         f"(m={s.order.m}, N={s.n_max}) differ in order or depth")
    n_max, jc = v.n_max, v.order.j_count
    lead, inv_den = jump_factors(s)
    cols = v.table.transpose(2, 1, 0).reshape(n_max, -1)[:-1]  # [beta - 1, r l] = V[l, r, beta]
    rhs = np.concatenate([s.table.reshape(1, -1), lead * (cols @ inv_den)]).reshape(n_max, n_max, jc)
    terms = np.concatenate([np.abs(s.table).reshape(1, -1),
                            np.abs(lead) * (np.abs(cols) @ np.abs(inv_den))]).reshape(n_max, n_max, jc)
    # lhs[beta, n, j] = V[j, n, n + beta], inside the table where n + beta <= N
    beta, n = np.indices((n_max, n_max))
    inside = (beta + n < n_max)[..., None]
    lhs = v.table.transpose(1, 2, 0)[n, np.minimum(n + beta, n_max - 1)]
    return np.where(inside, lhs - rhs, 0), np.where(inside, np.abs(lhs) + terms, 0)


def marchenko_residual(v: VTable, s: SpectralData, t: float | np.ndarray,
                       u: float | np.ndarray) -> complex | np.ndarray:
    """Residual K(t,u) - F(t,u) - int_t^inf K(t,s') F(s',u) ds' of the Marchenko equation, its product
    integral projected onto the modes the truncated tables resolve, as the series of the jump gaps:

        R(t, u) = sum over n + beta <= N of gap[beta, n, j] / (i (1 - w_j)) e^{(c_nj - n - beta) t - c_nj u},

    c_nj = n / (1 - w_j) and gap as in _jump_gaps.  ``t`` and ``u`` broadcast: scalars give a
    complex, arrays a complex array of their broadcast shape, each point the same sum a scalar call
    forms.  A point with u < t raises InputError.

    The derivation.  The kernel and the transition function are

        K(t, u) = sum_{j, n <= alpha} V[j, n, alpha] / (i (1 - w_j)) e^{(c_nj - alpha) t - c_nj u},
        F(t, u) = sum_{n, j} S_nj / (i (1 - w_j)) e^{(c_nj - n) t - c_nj u},

    with c_nj - n = c_nj w_j.  Kernel term (l, r, beta) and F's term (n, j) give the product integral

        int_t^inf e^{(c_rl - beta) t - c_rl s'} e^{(c_nj - n) s' - c_nj u} ds'
            = -e^{(c_nj - n - beta) t - c_nj u} / (c_nj w_j - c_rl),

    which converges, as Re(c_nj w_j - c_rl) = -(n + r) / 2 (core.a_m_constant); the projection keeps
    the pairs with n + beta <= N.  So every term of R lies on a mode e^{(c_nj - n - beta) t - c_nj
    u}, n + beta <= N: K puts V[j, n, n + beta] / (i (1 - w_j)) there, -F puts -S_nj / (i (1 - w_j))
    at beta = 0, and minus the product integral puts, at beta >= 1,

        S_nj / (i (1 - w_j)) sum_{r, l} V[l, r, beta] / (i (1 - w_l) (c_nj w_j - c_rl)).

    Now c_nj w_j - c_rl = den / ((1 - w_j)(1 - w_l)), den = n w_j (1 - w_l) - r (1 - w_j) the Cauchy
    denominator of core.jump_factors, so the product's share is -i (1 - w_j) S_nj sum V[l, r, beta]
    / den divided by i (1 - w_j): minus the jump relation's right side, in the same normalisation as
    K's and F's terms.  The coefficient of each mode is therefore gap[beta, n, j] / (i (1 - w_j)).
    """
    t_pts, u_pts = np.broadcast_arrays(t, u)
    below = np.flatnonzero(u_pts < t_pts)
    if below.size:
        i = below[0]
        raise InputError(f"residual requires u >= t, got t={t_pts.flat[i]}, u={u_pts.flat[i]}")
    gap, _ = _jump_gaps(v, s)
    beta, n, j = np.nonzero(gap)
    w = roots_of_unity(v.order)[1 + j]
    c = (n + 1) / (1 - w)
    coeff = gap[beta, n, j] / (1j * (1 - w))
    modes = np.exp(np.multiply.outer(t_pts, c - (n + 1 + beta)) + np.multiply.outer(u_pts, -c))
    out = np.sum(coeff * modes, axis=-1)
    return complex(out) if out.ndim == 0 else out


def jump_residual(v: VTable, s: SpectralData) -> float:
    """Worst scaled jump gap (_jump_gaps) over every entry V[j, n, n + beta], n + beta <= N: the
    coefficients of e^{(c_nj - alpha) t} in the series' residue at the pole (n, j) and in S_nj times
    its shifted branch, equal to rounding on a consistent pair.  Each gap is divided by its terms'
    magnitudes, |V[j, n, n + beta]| and the right side's.
    """
    gap, scale = _jump_gaps(v, s)
    gap = np.abs(gap)
    return float(np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0).max())


def shift_spectral(s: SpectralData, a: complex) -> SpectralData:
    """Translation law on the data: S_nj -> e^{i n a} S_nj, Im a >= 0 only."""
    if complex(a).imag < 0:
        raise InputError(f"translation requires Im a >= 0, got {a}")
    return s.shifted(a)

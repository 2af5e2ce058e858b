"""Oracles in the library's old sampled and product forms, which only tests read.

* ``eval_f`` sums the half-line solution series at one point (t, k), and
  ``ode_residual`` puts it into the half-line equation: a sampled, depth
  dependent route to the identity ``analytic.ode_mode_residual`` checks on
  the equation's modes.
* ``product_marchenko`` forms the Marchenko residual K - F - int K F from the
  kernel's and the transition function's exponential terms and every pair of
  them, and ``product_modes`` collects the same terms onto their modes: the
  product form ``analytic.marchenko_residual`` replaced by the series of the
  jump gaps.
* ``kernel_terms`` lists the kernel's exponential terms, and ``kernel_term_q0``
  sums them column by column in ascending order of their rounded rates and
  multiplies by the first: the route ``analytic.q0_from_kernel`` replaced by
  the exact rate -alpha.
"""
import numpy as np

from invspec import PotentialCoefficients, SpectralData, VTable, roots_of_unity, series_q


class NearPoleError(ValueError):
    """eval_f's point lies within its tolerance of the pole (n, j), named by ``indices``."""

    def __init__(self, message: str, indices: tuple):
        super().__init__(message)
        self.indices = indices


def eval_f(v: VTable, t: complex, k: complex, deriv: int = 0, depth: int | None = None,
           pole_tol: float = 1e-9) -> complex:
    """Half-line solution series (or its t-derivative) at (t, k), truncated at depth:
    (i k)^d e^{i k t} + sum over j and n <= alpha <= depth of
    V[j, n, alpha] / (i n + k (1 - w_j)) * (i k - alpha)^d e^{(i k - alpha) t}.

    The first denominator within pole_tol of zero, lowest j first and then
    lowest n, raises NearPoleError.
    """
    n_cap = v.n_max if depth is None else depth
    modes = np.arange(1, n_cap + 1)
    table = 1j * modes[:, None] + k * (1 - roots_of_unity(v.order)[None, 1:])
    near = np.argwhere(np.abs(table.T) <= pole_tol)
    if near.size:
        j, n = (int(i) + 1 for i in near[0])
        raise NearPoleError(f"evaluation point within {pole_tol} of the (n={n}, j={j}) pole", (n, j))
    rate = 1j * k - modes
    factor = rate ** deriv * np.exp(rate * t)
    head = (1j * k) ** deriv * np.exp(1j * k * t)
    return complex(head + np.einsum("jna,nj,a->", v.table[:, :modes.size, :modes.size],
                                    1 / table, factor))


def ode_residual(p: PotentialCoefficients, v: VTable, t: complex, k: complex,
                 depth: int | None = None) -> complex:
    """Residual of the half-line equation, coefficient table series_q(p), on the series truncated at
    depth; a consistent (p, V) pair drives it to zero as the depth grows."""
    m = p.order.m
    n_cap = min(v.n_max, p.n_max) if depth is None else depth
    total = (-1) ** m * eval_f(v, t, k, 2 * m, n_cap) - k ** (2 * m) * eval_f(v, t, k, 0, n_cap)
    q_t = series_q(p) @ np.exp(-np.arange(1, p.n_max + 1) * t)
    for gamma, q_gamma in enumerate(q_t):
        if q_gamma != 0:
            total += q_gamma * eval_f(v, t, k, gamma, n_cap)
    return complex(total)


def kernel_terms(v: VTable):
    """Arrays (coeff, t_rate, u_rate, alpha, pole) of the kernel's nonzero exponential terms,
    V[j, n, alpha] / (i (1 - w_j)) e^{(c_nj - alpha) t - c_nj u}, ordered by j, then alpha, then n.

    A term's u-rate -n / (1 - w_j) depends only on its pole (n, j), whose flat
    index (j - 1) * N + n - 1 is ``pole``.
    """
    w = roots_of_unity(v.order)[1:]
    by_col = v.table.transpose(0, 2, 1)  # [j, alpha, n]
    j, alpha, n = np.nonzero(by_col)
    c = (n + 1) / (1 - w[j])
    return by_col[j, alpha, n] / (1j * (1 - w[j])), c - (alpha + 1), -c, alpha + 1, j * v.n_max + n


def kernel_term_q0(v: VTable) -> dict[int, complex]:
    """2m d/dx K(x, x) as {alpha: q[alpha]}, summed over the kernel terms: a column's terms in
    ascending order of their rates (c_nj - alpha) + (-c_nj), -alpha up to rounding, times the first."""
    kc, ka, kb, kcol, _ = kernel_terms(v)
    rates = ka + kb
    sums, rate = {}, {}
    for i in np.lexsort((rates.imag, rates.real)).tolist():
        alpha = int(kcol[i])
        if alpha in sums:
            sums[alpha] += kc[i]
        else:
            sums[alpha], rate[alpha] = kc[i], rates[i]
    return {alpha: complex(2 * v.order.m * (total * rate[alpha])) for alpha, total in sums.items()}


def transition_terms(s: SpectralData):
    """Arrays (coeff, t_rate, u_rate, n) of the transition function's nonzero terms,
    S_nj / (i (1 - w_j)) e^{c_nj w_j t - c_nj u}, ordered by n, then j."""
    w = roots_of_unity(s.order)[1:]
    n, j = np.nonzero(s.table)
    c = (n + 1) / (1 - w[j])
    return s.table[n, j] / (1j * (1 - w[j])), c * w[j], -c, n + 1


def product_marchenko(v: VTable, s: SpectralData, t: float, u: float, projected: bool = True):
    """K(t, u) - F(t, u) - int_t^inf K(t, s') F(s', u) ds' at one point, summed over the kernel
    terms, the transition terms and every pair of them, and the sum of the magnitudes of its terms.

    With ``projected`` the product integral keeps the pairs whose combined column index is at most
    the depth; without it, it keeps the truncation tail of order |S| |V_tail|.
    """
    kc, ka, kb, kcol, _ = kernel_terms(v)
    fc, fg, fh, frow = transition_terms(s)
    k_term = kc * np.exp(ka * t + kb * u)
    f_term = fc * np.exp(fg * t + fh * u)
    val = np.sum(k_term) - np.sum(f_term)
    scale = np.abs(k_term).sum() + np.abs(f_term).sum()
    if kc.size and fc.size:
        # int_t^inf e^{a s} ds = -e^{a t} / a, so the pair contributes -x y / (kb + fg)
        pair = np.add.outer(kb, fg)
        np.reciprocal(pair, out=pair)
        if projected:
            pair *= np.add.outer(kcol, frow) <= min(v.n_max, s.n_max)
        x = kc * np.exp((ka + kb) * t)
        val += x @ pair @ f_term
        scale += np.abs(x) @ np.abs(pair) @ np.abs(f_term)
    return complex(val), float(scale)


def product_modes(v: VTable, s: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """The projected product form's coefficient of each mode e^{(c_nj - n - beta) t - c_nj u} as a
    table [beta, n - 1, j - 1], and the sum of the magnitudes of the terms on each mode.

    A kernel term of column alpha at the pole (n, j) lies on beta = alpha - n, a transition term
    on beta = 0, and the pair of a column-alpha kernel term with the transition term (n', l) on
    beta = alpha at the pole (n', l).
    """
    n_max, jc = v.n_max, v.order.j_count
    kc, _, kb, kcol, kpole = kernel_terms(v)
    fc, fg, _, frow = transition_terms(s)
    fn, fj = np.nonzero(s.table)
    coeff = np.zeros((n_max, n_max, jc), dtype=complex)
    scale = np.zeros((n_max, n_max, jc))
    kj, kn = np.divmod(kpole, n_max)
    for table, terms in ((coeff, kc), (scale, np.abs(kc))):
        np.add.at(table, (kcol - 1 - kn, kn, kj), terms)
    for table, terms in ((coeff, -fc), (scale, np.abs(fc))):
        np.add.at(table, (0, fn, fj), terms)
    a, b = np.nonzero(np.add.outer(kcol, frow) <= n_max)
    pairs = kc[a] * fc[b] / (kb[a] + fg[b])
    for table, terms in ((coeff, pairs), (scale, np.abs(pairs))):
        np.add.at(table, (kcol[a], fn[b], fj[b]), terms)
    return coeff, scale

"""The paper's diagonal relation, as d-coefficient tables: the reference the pole recurrence is checked against.

At each column alpha the V table and the potential satisfy, for gamma = 0..2m-2,

    p[gamma, alpha] + sum_{j, n <= alpha} d_a(n, alpha, j)[gamma] V[j, n, alpha]
        + sum_{nu, r < alpha} p[nu, r] W[alpha - r, nu, gamma] = 0,

    W[s, nu, gamma] = sum_{j, n <= s} d_b(n, s, nu, j)[gamma] V[j, n, s].

d_a and d_b are quotients of exact linear-factor divisions of dense complex
polynomials (1-d arrays of ascending-degree coefficients), synthetic (Horner)
at the known pole k_nj; the scalar prefactor in + k(1 - w_j) = (1 - w_j)(k -
k_nj) is applied after dividing, which keeps the root-based division exact.
Each family is built as a whole table by divisions vectorised over every pole
(d_a_table, one division; d_b_table, one per numerator degree), with the
relative remainders that measure the divisions' rounding.  p_from_v reads
the relation backwards, as a definition of p[., alpha], column by column.
"""
from functools import lru_cache
from math import comb

import numpy as np

from invspec import Order, roots_of_unity
from invspec.errors import InputError


def k_pole(order: Order, n: int, j: int) -> complex:
    """The pole k_nj = i lambda_nj of the half-line variable, lambda_nj = -n / (1 - w_j), j = 1..2m-1."""
    return 1j * (-n / (1 - roots_of_unity(order)[j]))


def divide_by_linear(p, root):
    """Synthetic division along the last axis: p(k) = (k - root) q(k) + rem, rem = p(root).

    The leading axes of p broadcast against root, so one call divides a whole
    table of numerators, each at its own root.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    root = np.asarray(root, dtype=complex)
    shape = np.broadcast_shapes(p.shape[:-1], root.shape)
    q = np.zeros(shape + (p.shape[-1] - 1,), dtype=complex)
    carry = np.broadcast_to(p[..., -1], shape)
    for i in range(p.shape[-1] - 2, -1, -1):
        q[..., i] = carry
        # the product is formed componentwise: numpy's complex array loops may
        # fuse multiply-adds, and each step must round like the scalar recurrence
        step = np.empty(shape, dtype=complex)
        step.real = root.real * carry.real - root.imag * carry.imag
        step.imag = root.real * carry.imag + root.imag * carry.real
        carry = p[..., i] + step
    return q, carry


def binomial_power(shift, power: int) -> np.ndarray:
    """Ascending coefficients of (shift + k)^power with exact integer binomials.

    An array of shifts gives one coefficient row per shift, along a new last axis.
    """
    if power < 0:
        raise InputError(f"power must be >= 0, got {power}")
    t = np.arange(power + 1)
    binom = np.array([comb(power, i) for i in t], dtype=float)
    return binom * np.asarray(shift, dtype=complex)[..., None] ** (power - t)


def _poles(order: Order, ns) -> np.ndarray:
    """k_nj as an [n, j] table over j = 1..2m-1, from Python ints as k_pole divides them."""
    return np.array([[k_pole(order, int(n), j) for j in range(1, order.j_count + 1)] for n in ns])


def _divide_at_poles(num: np.ndarray, poles: np.ndarray, one_minus_w: np.ndarray):
    """Divide each numerator by in + k (1 - w_j); also return |remainder| / max |numerator|.

    The numerators vanish at their poles, so the division is exact up to
    rounding, and the relative remainder measures that rounding.  The tables
    round like the scalar definitions, entry for entry: powers use np.power,
    because ndarray ** 2 takes a squaring shortcut, divide_by_linear multiplies
    componentwise, and the remainder's modulus is hypot, as abs() of a scalar.
    """
    q, rem = divide_by_linear(num, poles)
    scale = np.maximum(np.abs(num).max(axis=-1), 1e-300)
    return q / one_minus_w[..., None], np.hypot(rem.real, rem.imag) / scale


def d_a_table(order: Order, alphas, ns) -> tuple[np.ndarray, np.ndarray]:
    """d_a(n, alpha, j) as an [alpha, n, j, gamma] table, and its relative remainders [alpha, n, j].

    Entry (alpha, n, j) holds the 2m-1 quotient coefficients pairing the V
    entry (n, alpha, j) with each k power; alpha >= 1.
    """
    two_m = 2 * order.m
    ia = 1j * np.asarray(alphas)
    poles = _poles(order, ns)
    num = np.broadcast_to(binomial_power(ia, two_m)[:, None, None, :two_m],
                          (ia.size, *poles.shape, two_m)).copy()
    # the k^2m terms cancel exactly, so the numerator has degree 2m-1
    num[..., 0] -= np.power(ia[:, None, None] + poles, two_m) - np.power(poles, two_m)
    return _divide_at_poles(num, poles, 1 - roots_of_unity(order)[1:])


def d_b_table(order: Order, ss, ns, nu_max: int) -> tuple[np.ndarray, np.ndarray]:
    """d_b(n, s, nu, j) as an [s, n, j, pair] table, and its relative remainders [s, n, j, nu].

    The pairs are the (nu, gamma) with gamma < nu <= nu_max, in (nu, gamma) C
    order, so the nu coefficients of d_b(n, s, nu, j) start at pair nu (nu - 1) / 2;
    the quotient is zero for gamma >= nu, and those entries are not stored.
    nu = 0 has no pairs and a zero remainder.
    """
    i_s = 1j * np.asarray(ss)
    poles = _poles(order, ns)
    one_minus_w = 1 - roots_of_unity(order)[1:]
    d = np.empty((i_s.size, *poles.shape, nu_max * (nu_max + 1) // 2), dtype=complex)
    rel = np.zeros((i_s.size, *poles.shape, nu_max + 1))
    for nu in range(1, nu_max + 1):
        # each numerator is divided at its own degree nu
        num = np.broadcast_to(binomial_power(i_s, nu)[:, None, None, :], (*d.shape[:-1], nu + 1)).copy()
        num[..., 0] -= np.power(i_s[:, None, None] + poles, nu)
        start = nu * (nu - 1) // 2
        d[..., start:start + nu], rel[..., nu] = _divide_at_poles(num, poles, one_minus_w)
    return d, rel


@lru_cache(maxsize=None)
def relation_tables(m: int, n_max: int) -> tuple:
    """d_a[alpha, n, j, gamma] and d_b[s, n, j, nu, gamma], zero at gamma >= nu."""
    order, modes = Order(m), np.arange(1, n_max + 1)
    size = order.gamma_count
    pairs = d_b_table(order, modes, modes, size - 1)[0]
    d_b = np.zeros(pairs.shape[:-1] + (size, size), dtype=complex)
    d_b[(...,) + np.tril_indices(size, -1)] = pairs
    return d_a_table(order, modes, modes)[0], d_b


def p_from_v(v) -> np.ndarray:
    """The potential the diagonal relation reads off a V table, column by column."""
    d_a, d_b = relation_tables(v.order.m, v.n_max)
    w = np.einsum("snjvg,jns->svg", d_b, v.table)
    a_terms = np.einsum("anjg,jna->ag", d_a, v.table)
    p = np.zeros((v.order.gamma_count, v.n_max), dtype=complex)
    for k in range(v.n_max):
        p[:, k] = -(np.einsum("vr,rvg->g", p[:, :k], w[:k][::-1]) + a_terms[k])
    return p


def term_magnitudes(v, p) -> np.ndarray:
    """For each entry of p, the sum of the magnitudes of the terms the relation adds up."""
    d_a, d_b = relation_tables(v.order.m, v.n_max)
    w = np.einsum("snjvg,jns->svg", np.abs(d_b), np.abs(v.table))
    a_terms = np.einsum("anjg,jna->ag", np.abs(d_a), np.abs(v.table))
    return np.array([np.einsum("vr,rvg->g", np.abs(p[:, :k]), w[:k][::-1]) + a_terms[k]
                     for k in range(v.n_max)]).T

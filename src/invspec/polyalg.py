"""Exact linear-factor division of dense complex polynomials, and the d-coefficient tables.

Polynomials are 1-d complex arrays of ascending-degree coefficients.  The
divisions that extract the d-coefficient families are synthetic (Horner) at
the known pole k_nj; the scalar prefactor in + k(1 - w_j) = (1 - w_j)(k - k_nj)
is applied after dividing, which keeps the root-based division exact.  Each
family is built as a whole table by divisions vectorised over every pole
(d_a_table, one division; d_b_table, one per numerator degree).
"""
from __future__ import annotations

from math import comb

import numpy as np

from .core import Order, k_pole, roots_of_unity
from .errors import DivisionRemainderError, InputError

REMAINDER_RTOL = 1e-9


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


def remainder_error(rel: float, n: int, j: int) -> DivisionRemainderError:
    """The error for a division at pole (n, j) whose relative remainder exceeds REMAINDER_RTOL."""
    return DivisionRemainderError(
        f"nonzero remainder dividing at pole (n={n}, j={j}): {rel:.3e} of the numerator scale")

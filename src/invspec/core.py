"""Root-of-unity lattice, data tables, the potential's rescalings, Cauchy denominators and jump factors.

Index conventions used throughout the package: the operator order parameter
``m`` gives 2m-1 nontrivial branch indices j = 1..2m-1 and coefficient orders
gamma = 0..2m-2.  Public indices (n, alpha, j, gamma) are 1-based where the
mathematics is (n, alpha, j) and 0-based for gamma; array storage is 0-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    w = np.exp(1j * np.arange(2 * m) * np.pi / m)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Order:
    """Order parameter of the differential expression (order 2m)."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise InputError(f"order parameter m must be a positive integer, got {self.m!r}")

    @property
    def j_count(self) -> int:
        """Number of nontrivial roots/branches, 2m - 1."""
        return 2 * self.m - 1

    @property
    def gamma_count(self) -> int:
        """Number of coefficient orders gamma = 0..2m-2."""
        return 2 * self.m - 1


def roots_of_unity(order: Order) -> np.ndarray:
    """All 2m-th roots exp(i j pi / m), j = 0..2m-1, in index order.

    Index 0 is the trivial root 1; pole and spectral indexing run over
    j = 1..2m-1 only, the poles sitting at k_nj = -i n / (1 - w_j).
    """
    return np.array(_roots(order.m))


def _frozen_array(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PotentialCoefficients:
    """Fourier coefficients p[gamma, n-1] of the 2m-1 coefficient functions."""

    order: Order
    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise InputError(f"truncation depth must be >= 1, got {self.n_max}")
        arr = _frozen_array(self.coeffs, (self.order.gamma_count, self.n_max), "potential coefficient table")
        object.__setattr__(self, "coeffs", arr)

    def weighted_norm(self) -> float:
        """sum over gamma, n of n^gamma |p_{gamma n}|."""
        n = np.arange(1, self.n_max + 1, dtype=float)
        g = np.arange(self.order.gamma_count, dtype=float)
        return float(np.sum(n[None, :] ** g[:, None] * np.abs(self.coeffs)))

    def shifted(self, a: complex) -> "PotentialCoefficients":
        """Coefficient-wise translation p_{gamma n} -> p_{gamma n} e^{i n a}."""
        phase = np.exp(1j * a * np.arange(1, self.n_max + 1))
        return PotentialCoefficients(self.order, self.n_max, self.coeffs * phase[None, :])


def series_q(p: PotentialCoefficients) -> np.ndarray:
    """Half-line coefficient table carried by the V recurrences: (-i)^gamma p_{gamma n}.

    This is the table for which the recurrence-built series solves the
    half-line equation; it differs from q_from_p by the factor (-1)^m.
    """
    g = np.arange(p.order.gamma_count)
    return (-1j) ** g[:, None] * p.coeffs


def q_from_p(p: PotentialCoefficients) -> np.ndarray:
    """Classical half-line rescaling q_{gamma n} = (-1)^m (-i)^gamma p_{gamma n}."""
    return (-1) ** p.order.m * series_q(p)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral data table S[n-1, j-1], n = 1..N, j = 1..2m-1."""

    order: Order
    n_max: int
    table: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise InputError(f"truncation depth must be >= 1, got {self.n_max}")
        arr = _frozen_array(self.table, (self.n_max, self.order.j_count), "spectral data table")
        object.__setattr__(self, "table", arr)

    def s_tilde(self) -> np.ndarray:
        """Weighted row sums S~_n = sum_j n^(2m-2) |S_nj|, n = 1..N."""
        n = np.arange(1, self.n_max + 1, dtype=float)
        return n ** (2 * self.order.m - 2) * np.abs(self.table).sum(axis=1)

    def shifted(self, a: complex) -> "SpectralData":
        phase = np.exp(1j * a * np.arange(1, self.n_max + 1))
        return SpectralData(self.order, self.n_max, self.table * phase[:, None])


@dataclass(frozen=True, eq=False)
class VTable:
    """Triangular transformation-coefficient table V[j-1, n-1, alpha-1], n <= alpha."""

    order: Order
    n_max: int
    table: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise InputError(f"truncation depth must be >= 1, got {self.n_max}")
        arr = np.array(self.table, dtype=complex, order="C")
        shape = (self.order.j_count, self.n_max, self.n_max)
        if arr.shape != shape:
            raise InputError(f"V table must have shape {shape}, got {arr.shape}")
        below = np.tri(self.n_max, k=-1, dtype=bool)
        if arr[:, below].any():
            # storage is [j, n-1, alpha-1]; entries with n > alpha must be absent
            raise InputError("V table has entries below the n <= alpha triangle")
        # a -0.0 there is absent too; store +0.0, as the sweeps' tables hold
        arr[:, below] = 0
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @classmethod
    def _from_sweep(cls, order: Order, n_max: int, table: np.ndarray) -> "VTable":
        """A fresh C-ordered complex (j_count, n_max, n_max) table that a sweep
        built triangular, frozen and kept without a copy or a check of its triangle."""
        table.setflags(write=False)
        v = object.__new__(cls)
        for name, value in (("order", order), ("n_max", n_max), ("table", table)):
            object.__setattr__(v, name, value)
        return v

    def diagonal(self) -> SpectralData:
        """Diagonal slice V_nn^(j) packaged as spectral data."""
        return SpectralData(self.order, self.n_max, np.diagonal(self.table, axis1=1, axis2=2).T)


def a_m_constant(order: Order) -> float:
    """The contraction constant a_m = sup |(1 - w_j)(n + r)| / |r (1 - w_j) - n (1 - w_l) w_j|
    over the nontrivial roots w_j, w_l and the modes n, r >= 1, in closed form: 1 / sin(pi / 2m).

    The lemma: a nontrivial root w = e^{i theta} has 1 / (1 - w) = 1/2 + (i/2) cot(theta / 2),
    so Re 1 / (1 - w) = 1/2 and Re w / (1 - w) = -1/2.  Hence the Cauchy denominator

        den = n w_j (1 - w_l) - r (1 - w_j) = (1 - w_j)(1 - w_l) [n w_j / (1 - w_j) - r / (1 - w_l)]

    has a bracket of real part -(n + r) / 2, and |1 - w| >= 2 sin(pi / 2m) gives

        |den| >= |1 - w_j| |1 - w_l| (n + r) / 2 >= 2 sin^2(pi / 2m) (n + r),

    so no denominator of v_from_s or of the data operator comes near zero.  The
    quotient above is then at most 2 / |1 - w_l| <= 1 / sin(pi / 2m), with equality at
    j = l = 1, n = r = 1.  The same real parts make every product rate of the Marchenko
    integral -(n + n') / 2 <= -1, so its tail integrals converge.
    """
    return float(1 / np.sin(np.pi / (2 * order.m)))


def cauchy_denominators(order: Order, n_max: int) -> np.ndarray:
    """den[r, l, n, j] = r w_l (1 - w_j) - n (1 - w_l) over the modes r, n = 1..n_max and the
    nontrivial roots w_l, w_j, the denominators of the data operator and of v_from_s.

    By the lemma of a_m_constant, |den| >= 2 sin^2(pi / 2m) (n + r): none comes near zero.
    """
    w = roots_of_unity(order)[1:]
    modes = np.arange(1, n_max + 1)
    return (modes[:, None, None, None] * w[None, :, None, None] * (1 - w)[None, None, None, :]
            - modes[None, None, :, None] * (1 - w)[None, :, None, None])


def jump_factors(s: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """(lead, inv_den) of the jump relation V[j, n, n + beta] = lead[n j] sum_{r, l} V[l, r, beta]
    inv_den[r l, n j], beta >= 1: lead = i (1 - w_j) S_nj and inv_den = 1 / den[r, l, n, j]
    (cauchy_denominators), flat over (n, j) and (r, l).  At beta = 0 it reads V[j, n, n] = S_nj.
    The same two factors give the data operator of the Fredholm determinant (fredholm.py).
    """
    order, n_max = s.order, s.n_max
    inv_den = (1 / cauchy_denominators(order, n_max)).transpose(2, 3, 0, 1).reshape(n_max * order.j_count, -1)
    return (1j * (1 - roots_of_unity(order)[1:]) * s.table).reshape(-1), inv_den

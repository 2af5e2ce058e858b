"""Root-of-unity lattice, pole locations, and the shared data tables.

Index conventions used throughout the package: the operator order parameter
``m`` gives 2m-1 nontrivial branch indices j = 1..2m-1 and coefficient orders
gamma = 0..2m-2.  Public indices (n, alpha, j, gamma) are 1-based where the
mathematics is (n, alpha, j) and 0-based for gamma; array storage is 0-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDenominatorError, InputError

DEGENERACY_TOL = 1e-12


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

    def root(self, j: int) -> complex:
        """exp(i j pi / m) for j = 0..2m-1; j = 0 is the trivial root 1."""
        if not 0 <= j <= 2 * self.m - 1:
            raise InputError(f"root index {j} outside 0..{2 * self.m - 1}")
        return complex(_roots(self.m)[j])


def roots_of_unity(order: Order) -> np.ndarray:
    """All 2m-th roots exp(i j pi / m), j = 0..2m-1, in index order.

    Index 0 is the trivial root 1; pole and spectral indexing run over
    j = 1..2m-1 only.
    """
    return np.array(_roots(order.m))


def pole(order: Order, n: int, j: int) -> complex:
    """Pole location -n / (1 - omega_j) in the periodic spectral variable."""
    _check_nj(order, n, j)
    return -n / (1 - order.root(j))


def k_pole(order: Order, n: int, j: int) -> complex:
    """Pole location -i n / (1 - omega_j) in the half-line spectral variable."""
    return 1j * pole(order, n, j)


def _check_nj(order: Order, n: int, j: int) -> None:
    if n < 1:
        raise InputError(f"mode index n must be >= 1, got {n}")
    if not 1 <= j <= order.j_count:
        raise InputError(f"root index j={j} outside 1..{order.j_count} (j=0 is excluded: 1 - omega_0 = 0)")


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

    @classmethod
    def zeros(cls, order: Order, n_max: int) -> "PotentialCoefficients":
        return cls(order, n_max, np.zeros((order.gamma_count, n_max), dtype=complex))

    def entry(self, gamma: int, n: int) -> complex:
        return complex(self.coeffs[gamma, n - 1])

    def weighted_norm(self) -> float:
        """sum over gamma, n of n^gamma |p_{gamma n}|."""
        n = np.arange(1, self.n_max + 1, dtype=float)
        g = np.arange(self.order.gamma_count, dtype=float)
        return float(np.sum(n[None, :] ** g[:, None] * np.abs(self.coeffs)))

    def shifted(self, a: complex) -> "PotentialCoefficients":
        """Coefficient-wise translation p_{gamma n} -> p_{gamma n} e^{i n a}."""
        phase = np.exp(1j * a * np.arange(1, self.n_max + 1))
        return PotentialCoefficients(self.order, self.n_max, self.coeffs * phase[None, :])

    def scaled(self, c: complex) -> "PotentialCoefficients":
        return PotentialCoefficients(self.order, self.n_max, c * self.coeffs)

    def truncated(self, depth: int) -> "PotentialCoefficients":
        if depth > self.n_max:
            raise InputError(f"cannot extend truncation {self.n_max} to {depth}")
        return PotentialCoefficients(self.order, depth, self.coeffs[:, :depth])


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

    @classmethod
    def zeros(cls, order: Order, n_max: int) -> "SpectralData":
        return cls(order, n_max, np.zeros((n_max, order.j_count), dtype=complex))

    def entry(self, n: int, j: int) -> complex:
        return complex(self.table[n - 1, j - 1])

    def s_tilde(self) -> np.ndarray:
        """Weighted row sums S~_n = sum_j n^(2m-2) |S_nj|, n = 1..N."""
        n = np.arange(1, self.n_max + 1, dtype=float)
        return n ** (2 * self.order.m - 2) * np.abs(self.table).sum(axis=1)

    def shifted(self, a: complex) -> "SpectralData":
        phase = np.exp(1j * a * np.arange(1, self.n_max + 1))
        return SpectralData(self.order, self.n_max, self.table * phase[:, None])

    def scaled(self, c: complex) -> "SpectralData":
        return SpectralData(self.order, self.n_max, c * self.table)


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
        if np.tril(arr, -1).any():
            # storage is [j, n-1, alpha-1]; entries with n > alpha must be absent
            raise InputError("V table has entries below the n <= alpha triangle")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @classmethod
    def zeros(cls, order: Order, n_max: int) -> "VTable":
        return cls(order, n_max, np.zeros((order.j_count, n_max, n_max), dtype=complex))

    def entry(self, j: int, n: int, alpha: int) -> complex:
        if n > alpha:
            raise InputError(f"V entry requested below the triangle: n={n} > alpha={alpha}")
        return complex(self.table[j - 1, n - 1, alpha - 1])

    def diagonal(self) -> SpectralData:
        """Diagonal slice V_nn^(j) packaged as spectral data."""
        diag = np.stack([np.diag(self.table[jj]) for jj in range(self.order.j_count)], axis=1)
        return SpectralData(self.order, self.n_max, diag)

    def truncated(self, depth: int) -> "VTable":
        if depth > self.n_max:
            raise InputError(f"cannot extend truncation {self.n_max} to {depth}")
        if depth < 1:
            raise InputError("truncation depth must be >= 1")
        return VTable(self.order, depth, self.table[:, :depth, :depth])


@dataclass(frozen=True)
class AmReport:
    """Enumerated maximum of the contraction-constant quotient.

    The true supremum runs over unbounded n, r; ``value`` is the maximum over
    1 <= n, r <= cap with all index pairs (j, l), and ``ordered_value``
    restricts to j <= l.  Monitor the plateau in ``cap`` before trusting it.
    """

    value: float
    argmax: tuple
    ordered_value: float
    ordered_argmax: tuple
    cap: int


def a_m_constant(order: Order, cap: int, tol: float = DEGENERACY_TOL) -> AmReport:
    """Numerical maximum of |(1-w_j)(n+r)| / |r(1-w_j) - n(1-w_l) w_j|."""
    if cap < 1:
        raise InputError(f"cap must be >= 1, got {cap}")
    w = roots_of_unity(order)
    n = np.arange(1, cap + 1, dtype=float)
    nn, rr = np.meshgrid(n, n, indexing="ij")
    best = (0.0, ())
    best_ordered = (0.0, ())
    for j in range(1, order.j_count + 1):
        for l in range(1, order.j_count + 1):
            den = np.abs(rr * (1 - w[j]) - nn * (1 - w[l]) * w[j])
            small = den < tol
            if np.any(small):
                i0 = np.argwhere(small)[0]
                raise DegenerateDenominatorError(
                    f"degenerate quotient denominator at j={j}, l={l}, "
                    f"n={int(nn[tuple(i0)])}, r={int(rr[tuple(i0)])}",
                    indices=(j, l, int(nn[tuple(i0)]), int(rr[tuple(i0)])),
                )
            quot = np.abs(1 - w[j]) * (nn + rr) / den
            flat = int(np.argmax(quot))
            val = float(quot.flat[flat])
            arg = (j, l, int(nn.flat[flat]), int(rr.flat[flat]))
            if val > best[0]:
                best = (val, arg)
            if j <= l and val > best_ordered[0]:
                best_ordered = (val, arg)
    return AmReport(best[0], best[1], best_ordered[0], best_ordered[1], cap)


def vandermonde_det(order: Order) -> complex:
    """Determinant of the 2m x 2m root-power matrix with rows (w_0^k .. w_{2m-1}^k)."""
    from . import linalg

    w = roots_of_unity(order)
    k = np.arange(2 * order.m)
    mat = w[None, :] ** k[:, None]
    return complex(linalg.det(mat))

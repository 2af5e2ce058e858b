"""Dense linear algebra: batched determinants, an in-house LU and its guards.

``det`` evaluates stacks of determinants through numpy.linalg (LAPACK), so its
values agree with an exact determinant to rounding but need not agree bit for
bit across BLAS builds.  The LU factorization with partial pivoting is
in-house: its pivots drive the singularity guards (``check_pivots``, the
forward map's pivot ratio), so a guard trips at the same index on every
build.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, SingularMatrixError

PIVOT_TOL = 1e-300  # a pivot at most this times the largest (or 1) counts as zero


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of a (..., n, n) stack of matrices; an exactly singular matrix yields 0."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"square matrix required, got shape {a.shape}")
    return np.linalg.det(a)


def lu_factor(a: np.ndarray):
    """Return (lu, piv, sign): packed L\\U factors, row permutation, swap sign."""
    lu = np.array(a, dtype=complex)
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
        raise InputError(f"square matrix required, got shape {lu.shape}")
    n = lu.shape[0]
    piv = np.arange(n)
    sign = 1.0
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            sign = -sign
        pivot = lu[k, k]
        if pivot == 0:
            continue
        lu[k + 1:, k] /= pivot
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv, sign


def negligible_pivots(lu: np.ndarray) -> np.ndarray:
    """Mask of the pivots a solve with packed LU factors (..., n, n) treats as zero."""
    d = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    return (d <= PIVOT_TOL * np.maximum(d.max(axis=-1, keepdims=True), 1.0)) | (d == 0)


def check_pivots(lu: np.ndarray) -> None:
    """Raise SingularMatrixError at the negligible pivot back substitution reaches first."""
    small = np.flatnonzero(negligible_pivots(lu))
    if small.size:
        i = int(small[-1])
        raise SingularMatrixError(f"negligible pivot at index {i}", pivot_index=i)


def factor_ratio(lu: np.ndarray) -> float:
    """max |U_ii| / min |U_ii| of packed LU factors; inf when a pivot is 0."""
    d = np.abs(np.diag(lu))
    lo = d.min()
    if lo == 0:
        return np.inf
    return float(d.max() / lo)

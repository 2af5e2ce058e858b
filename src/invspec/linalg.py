"""Dense linear algebra: batched determinants and a small deterministic LU solve.

``det`` evaluates stacks of determinants through numpy.linalg (LAPACK), so its
values agree with an exact determinant to rounding but need not agree bit for
bit across BLAS builds.  The LU factorization with partial pivoting is
in-house and its substitution runs in plain Python complex arithmetic: the
elimination order is fixed and no BLAS routine is called, so the solves it
drives (the forward map's diagonal systems, ``lu_solve``) round the same way
on every BLAS build.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, SingularMatrixError


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


def negligible_pivots(lu: np.ndarray, tol: float = 1e-300) -> np.ndarray:
    """Mask of the pivots a solve with packed LU factors (..., n, n) treats as zero."""
    d = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    return (d <= tol * np.maximum(d.max(axis=-1, keepdims=True), 1.0)) | (d == 0)


def check_pivots(lu: np.ndarray, tol: float = 1e-300) -> None:
    """Raise SingularMatrixError at the negligible pivot back substitution reaches first."""
    small = np.flatnonzero(negligible_pivots(lu, tol))
    if small.size:
        i = int(small[-1])
        raise SingularMatrixError(f"negligible pivot at index {i}", pivot_index=i)


def substitute(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward and back substitution with packed LU factors, in plain Python complex arithmetic.

    The pivots must be checked first (``check_pivots``).  No BLAS routine
    is called, so the rounding does not depend on the BLAS build.
    """
    rows = lu.tolist()
    rhs = b.tolist()
    x = [rhs[i] for i in piv.tolist()]
    n = len(x)
    for i in range(n):
        row = rows[i]
        acc = x[i]
        for k in range(i):
            acc -= row[k] * x[k]
        x[i] = acc
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = x[i]
        for k in range(i + 1, n):
            acc -= row[k] * x[k]
        x[i] = acc / row[i]
    return np.array(x, dtype=complex)


def solve_factored(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, tol: float = 1e-300) -> np.ndarray:
    """Solve with packed LU factors; raises SingularMatrixError on a negligible pivot."""
    check_pivots(lu, tol)
    return substitute(lu, piv, np.asarray(b, dtype=complex))


def lu_solve(a: np.ndarray, b: np.ndarray, tol: float = 1e-300) -> np.ndarray:
    """Solve a x = b; raises SingularMatrixError on a negligible pivot."""
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != np.asarray(a).shape[0]:
        raise InputError(f"rhs length {b.shape[0]} does not match matrix side {np.asarray(a).shape[0]}")
    lu, piv, _ = lu_factor(a)
    return solve_factored(lu, piv, b, tol=tol)


def factor_ratio(lu: np.ndarray) -> float:
    """max |U_ii| / min |U_ii| of packed LU factors; inf when a pivot is 0."""
    d = np.abs(np.diag(lu))
    lo = d.min()
    if lo == 0:
        return np.inf
    return float(d.max() / lo)


def pivot_ratio(a: np.ndarray) -> float:
    """Crude condition estimate: max |U_ii| / min |U_ii| from the LU factors."""
    return factor_ratio(lu_factor(a)[0])

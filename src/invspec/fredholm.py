"""Truncated Fredholm determinant of the data operator and its zero count.

The determinant convention is det(E - F) throughout, matching the linear
system the operator drives; reports carry the convention string so downstream
consumers see it.  Flat indexing packs block index a and sub index b as
(a - 1) * (2m - 1) + (b - 1): rows are (r, l), columns are (n, j).

The zeros of D(z) = det(E - F(z)) in the upper half plane are counted on the real
axis alone (Delves & Lyness, Math. Comp. 21 (1967)).  The lemma: column block n of F
carries e^{inz} for an integer n, so D(z) = P(e^{iz}), P a polynomial with P(0) =
det E = 1.  The strip 0 <= Re z < 2pi, Im z > 0 maps one-to-one onto 0 < |q| < 1,
where P has no zero at q = 0, so the winding of D(x), x in [0, 2pi], counts every
zero of D in the upper half plane, modulo 2pi.  A rectangle [0, 2pi] x [0, H] miscounts:
its side edges cancel by periodicity, and its top edge subtracts the zeros above it.
When the count is 0, |P| takes its minimum over the closed disk on |q| = 1 (the
minimum modulus principle), so the modulus floor lives on the real axis too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SpectralData, jump_factors
from .errors import DegenerateDenominatorError, InputError, NonFiniteResultError

CONVENTION = "det(E-F)"
HARD_BLOCK_CAP = 256
# largest stack of matrices handed to one determinant call
STACK_BYTES = 256 * 1024
DET_TOL = 1e-10  # D_N has converged when |D_N - D_{N-1}| < DET_TOL (1 + |D_N|)


def _determinants(s: SpectralData, n_max: int | None):
    """The truncation N = min(n_max, data depth, HARD_BLOCK_CAP) and the function
    dets(zs, blocks=N): det(E - F_blocks(z)) at each point of the 1-d array zs.

    The data operator F(z)[(r, l), (n, j)] = i (1 - w_l) S_nj e^{i n z} / den[r, l, n, j]
    (core.cauchy_denominators) is D J(z) D^-1, D = diag(1 - w_l), where J(z) carries
    i (1 - w_j) in place of i (1 - w_l): the jump relation's factors (core.jump_factors)
    times the column weights e^{i n z}, which commute with D.  So det(E - F) = det(E - J),
    and the determinant is taken of J.  Data blocks past N enter no determinant.
    Determinants are taken in stacks of at most STACK_BYTES of matrices; the empty
    determinant D_0 is 1.  A determinant that overflows raises NonFiniteResultError.
    """
    if n_max is not None and n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    jc = s.order.j_count
    n_cap = min(n_max or HARD_BLOCK_CAP, s.n_max, HARD_BLOCK_CAP)
    lead, inv_den = jump_factors(SpectralData(s.order, n_cap, s.table[:n_cap]))
    op = inv_den.T * lead  # J[(r, l), (n, j)]
    block_n = np.repeat(np.arange(1, n_cap + 1), jc)

    def dets(zs: np.ndarray, blocks: int = n_cap) -> np.ndarray:
        if blocks == 0:
            return np.ones(zs.size, dtype=complex)
        side = blocks * jc
        eye, sub, weight = np.eye(side), op[:side, :side], 1j * block_n[:side]
        per = max(1, STACK_BYTES // (16 * side * side))
        out = np.empty(zs.size, dtype=complex)
        for lo in range(0, zs.size, per):
            col = np.exp(weight * zs[lo:lo + per, None])
            out[lo:lo + per] = np.linalg.det(eye - sub * col[:, None, :])
        if not np.isfinite(out).all():
            raise NonFiniteResultError(f"the determinant at truncation {blocks} is not finite")
        return out

    return n_cap, dets


@dataclass(frozen=True)
class ScanReport:
    """Scan verdict: the grid's modulus floor and flagged points, and the real axis's zero count.

    ``values[iy, ix]`` is the determinant at grid point re_grid[ix] + i im_grid[iy].
    """

    min_modulus: float
    argmin: complex
    zero_free: bool
    winding: int
    flagged: tuple
    values: np.ndarray = field(compare=False, repr=False)
    convention: str = CONVENTION


def _winding(dets, row, re_grid) -> int:
    """Winding number of the determinant along the real axis, in order of re, closed around the period.

    ``row`` holds the determinant at re_grid on Im z = 0, so the walk costs nothing
    unless it runs near a zero; ``dets`` evaluates it at other points.
    """
    order = np.argsort(re_grid)
    path, vals = re_grid[order], row[order]
    if np.abs(vals).min() < 0.3:
        # refine when the axis runs near a zero; phase steps must stay < pi
        step = np.diff(path, append=path[0] + 2 * np.pi)
        vals = dets((path[:, None] + step[:, None] * np.linspace(0.0, 1.0, 9)[:-1]).ravel())
    if np.abs(vals).min() < 1e-13:
        raise DegenerateDenominatorError("determinant vanishes on the real axis")
    total = np.angle(np.roll(vals, -1) / vals).sum()
    return int(round(total / (2 * np.pi)))


def scan_halfplane(s: SpectralData, re_grid, im_grid, tol: float = 1e-6,
                   n_max: int | None = None, det_tol: float = DET_TOL) -> ScanReport:
    """Evaluate the determinant over a one-period re_grid x im_grid grid, im_grid holding 0,
    and count its zeros in the upper half plane by the winding along the real axis (the
    module's lemma).  The grid gives the modulus floor, its argmin and the truncation check.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    if re_grid.size < 2 or not abs(np.ptp(re_grid) - 2 * np.pi) <= 1e-12:
        raise InputError("scan needs re values that span one period: max - min must be 2pi")
    if not (im_grid == 0).any() or not im_grid.min() >= 0:
        raise InputError("scan needs im values in the closed upper half plane, one of them 0")
    n_cap, dets = _determinants(s, n_max)
    zs = (re_grid[None, :] + 1j * im_grid[:, None]).ravel()
    values = dets(zs).reshape(im_grid.size, re_grid.size)
    flagged = ()
    # the consecutive-N convergence check only matters when n_max cuts the data short
    if n_cap < s.n_max:
        d = values.ravel()
        gap = np.abs(d - dets(zs, n_cap - 1))
        flagged = tuple(complex(z) for z in zs[gap >= det_tol * (1.0 + np.abs(d))])
    modulus = np.abs(values)
    iy, ix = np.unravel_index(np.argmin(modulus), modulus.shape)
    min_mod = float(modulus[iy, ix])
    winding = _winding(dets, values[np.argmax(im_grid == 0)], re_grid)
    zero_free = bool(min_mod > tol and winding == 0)
    values.setflags(write=False)
    return ScanReport(min_mod, complex(re_grid[ix], im_grid[iy]), zero_free, winding, flagged, values)

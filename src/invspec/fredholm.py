"""Truncated Fredholm determinant of the data operator and its half-plane scan.

The determinant convention is det(E - F) throughout, matching the linear
system the operator drives; reports carry the convention string so downstream
consumers see it.  Flat indexing packs block index a and sub index b as
(a - 1) * (2m - 1) + (b - 1): rows are (r, l), columns are (n, j).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import DEGENERACY_TOL, Order, SpectralData, roots_of_unity
from .errors import DegenerateDenominatorError, InputError

CONVENTION = "det(E-F)"
HARD_BLOCK_CAP = 256
# largest stack of matrices the scan hands to one determinant call
STACK_BYTES = 256 * 1024


def _prefactor(s: SpectralData, n_blocks: int, tol: float) -> np.ndarray:
    """z-independent part i (1 - w_l) S_nj / (r w_l (1 - w_j) - n (1 - w_l))."""
    order = s.order
    jc = order.j_count
    w = roots_of_unity(order)
    side = n_blocks * jc
    out = np.zeros((side, side), dtype=complex)
    for r in range(1, n_blocks + 1):
        for l in range(1, jc + 1):
            row = (r - 1) * jc + (l - 1)
            for n in range(1, n_blocks + 1):
                if n > s.n_max:
                    continue
                for j in range(1, jc + 1):
                    snj = s.table[n - 1, j - 1]
                    den = r * w[l] * (1 - w[j]) - n * (1 - w[l])
                    if abs(den) <= tol:
                        raise DegenerateDenominatorError(
                            f"degenerate operator denominator at (r={r}, l={l}, n={n}, j={j})",
                            indices=(r, l, n, j),
                        )
                    out[row, (n - 1) * jc + (j - 1)] = 1j * (1 - w[l]) * snj / den
    return out


def f_matrix(s: SpectralData, value: complex, n_blocks: int, mode: str = "z",
             tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Dense operator matrix at truncation n_blocks.

    mode "z": entries carry the collapsed weight e^{i n z} (n the column block).
    mode "t": the two-exponential form at real t >= 0.  The two give equal
    determinants at z = i t (they differ by a diagonal similarity).
    """
    order = s.order
    jc = order.j_count
    pre = _prefactor(s, n_blocks, tol)
    w = roots_of_unity(order)
    if mode == "z":
        col = np.repeat(np.exp(1j * np.arange(1, n_blocks + 1) * value), jc)
        return pre * col[None, :]
    if mode == "t":
        t = value
        if abs(complex(t).imag) > 1e-12 or complex(t).real < 0:
            raise InputError(f"t-mode requires real t >= 0, got {value}")
        t = complex(t).real
        col = np.zeros(n_blocks * jc, dtype=complex)
        row = np.zeros(n_blocks * jc, dtype=complex)
        for a in range(1, n_blocks + 1):
            for b in range(1, jc + 1):
                idx = (a - 1) * jc + (b - 1)
                col[idx] = np.exp(-a / (1 - w[b]) * t)
                row[idx] = np.exp(a * w[b] / (1 - w[b]) * t)
        return pre * row[:, None] * col[None, :]
    raise InputError(f"unknown f_matrix mode {mode!r}")


@dataclass(frozen=True)
class DeterminantReport:
    """Truncated determinant values along a block schedule with a convergence verdict."""

    z: complex
    ns: tuple
    values: tuple
    converged: bool
    final: complex
    convention: str = CONVENTION


def det_truncated(s: SpectralData, z: complex, n_min: int = 4, n_max: int | None = None,
                  tol: float = 1e-10, dense_trace: bool = False) -> DeterminantReport:
    """det(E - F_N(z)) along a truncation schedule, with Im z >= 0 enforced.

    Blocks beyond the data depth are identically zero and contribute identity
    rows, so D_N is exactly constant past the depth; the schedule doubles from
    n_min until the consecutive gap drops below tol or the cap is reached, and
    the step before the final one certifies the consecutive-N criterion.
    """
    if complex(z).imag < -1e-12:
        raise InputError(f"determinant domain is the closed upper half plane; got Im z = {complex(z).imag}")
    n_cap = min(n_max or HARD_BLOCK_CAP, HARD_BLOCK_CAP)
    jc = s.order.j_count
    full = f_matrix(s, z, min(n_cap, s.n_max), mode="z")

    def det_at(n: int) -> complex:
        side = min(n, s.n_max) * jc
        return complex(linalg.det(np.eye(side) - full[:side, :side]))

    def gap_ok(a: complex, b: complex) -> bool:
        return abs(a - b) < tol * (1.0 + abs(a))

    if dense_trace:
        ns = list(range(min(n_min, n_cap), n_cap + 1))
        values = [det_at(n) for n in ns]
    else:
        ns = [min(n_min, n_cap)]
        values = [det_at(ns[0])]
        while ns[-1] < n_cap and not (len(values) >= 2 and gap_ok(values[-1], values[-2])):
            ns.append(min(2 * ns[-1], n_cap))
            values.append(det_at(ns[-1]))
        if ns[-1] - 1 >= 1 and (len(ns) < 2 or ns[-2] != ns[-1] - 1):
            ns.insert(-1, ns[-1] - 1)
            values.insert(-1, det_at(ns[-1] - 1))
    converged = gap_ok(values[-1], values[-2]) if len(values) >= 2 else True
    return DeterminantReport(complex(z), tuple(ns), tuple(values), converged, values[-1])


@dataclass(frozen=True)
class ScanReport:
    """Half-plane scan verdict: modulus floor, winding count, and flagged points.

    ``values[iy, ix]`` is the determinant at grid point re_grid[ix] + i im_grid[iy].
    """

    min_modulus: float
    argmin: complex
    zero_free: bool
    winding: int
    flagged: tuple
    values: np.ndarray = field(compare=False, repr=False)
    convention: str = CONVENTION


def _boundary(grid: np.ndarray) -> np.ndarray:
    """Counter-clockwise walk around the rectangle of a [iy, ix] grid, closing on its first point."""
    return np.concatenate([grid[0, :], grid[1:, -1], grid[-1, ::-1][1:], grid[::-1, 0][1:]])


def _winding(dets, values, re_grid, im_grid) -> int:
    """Winding number of the determinant along the grid rectangle boundary.

    ``values`` holds the determinant on the grid, so the boundary costs
    nothing unless it runs near a zero; ``dets`` evaluates it at other points.
    """
    vals = _boundary(values)
    if np.abs(vals).min() < 0.3:
        # refine when the boundary runs near a zero; phase steps must stay < pi
        path = _boundary(re_grid[None, :] + 1j * im_grid[:, None])
        step = np.roll(path, -1) - path
        vals = dets((path[:, None] + step[:, None] * np.linspace(0.0, 1.0, 9)[:-1]).ravel())
    if np.abs(vals).min() < 1e-13:
        raise DegenerateDenominatorError("determinant vanishes on the scan boundary")
    total = np.angle(np.roll(vals, -1) / vals).sum()
    return int(round(total / (2 * np.pi)))


def scan_halfplane(s: SpectralData, re_grid, im_grid, tol: float = 1e-6,
                   n_min: int = 4, n_max: int | None = None,
                   det_tol: float = 1e-10) -> ScanReport:
    """Evaluate the determinant over a [0, 2pi] x [0, H] grid and count enclosed zeros.

    The verdict combines a modulus floor with a boundary winding number: the
    grid minimum alone can straddle a zero, the winding number cannot.
    Determinants are taken in stacks of at most STACK_BYTES of matrices.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    if re_grid.size < 2 or im_grid.size < 2:
        raise InputError("scan grids need at least two points per axis")
    if im_grid.min() < 0:
        raise InputError("scan stays in the closed upper half plane")
    jc = s.order.j_count
    n_cap = min(n_max or HARD_BLOCK_CAP, s.n_max, HARD_BLOCK_CAP)
    pre = _prefactor(s, n_cap, DEGENERACY_TOL)
    block_n = np.repeat(np.arange(1, n_cap + 1), jc)

    def dets(zs: np.ndarray, blocks: int = n_cap) -> np.ndarray:
        side = blocks * jc
        eye, sub, weight = np.eye(side), pre[:side, :side], 1j * block_n[:side]
        per = max(1, STACK_BYTES // (16 * side * side))
        out = np.empty(zs.size, dtype=complex)
        for lo in range(0, zs.size, per):
            col = np.exp(weight * zs[lo:lo + per, None])
            out[lo:lo + per] = linalg.det(eye - sub * col[:, None, :])
        return out

    zs = (re_grid[None, :] + 1j * im_grid[:, None]).ravel()
    values = dets(zs).reshape(im_grid.size, re_grid.size)
    flagged = ()
    # values are exact once every data block is included; the consecutive-N
    # convergence check only matters when n_max cuts the data short
    if n_cap < s.n_max and n_cap > 1:
        d = values.ravel()
        gap = np.abs(d - dets(zs, n_cap - 1))
        flagged = tuple(complex(z) for z in zs[gap >= det_tol * (1.0 + np.abs(d))])
    modulus = np.abs(values)
    iy, ix = np.unravel_index(np.argmin(modulus), modulus.shape)
    min_mod = float(modulus[iy, ix])
    winding = _winding(dets, values, re_grid, im_grid)
    zero_free = bool(min_mod > tol and winding == 0)
    values.setflags(write=False)
    return ScanReport(min_mod, complex(re_grid[ix], im_grid[iy]), zero_free, winding, flagged, values)


def solve_system(s: SpectralData, rhs, n_blocks: int | None = None,
                 tol: float = 1e-12) -> np.ndarray:
    """Solve (E - F(0)) g = rhs at truncation n_blocks; singular iff the determinant is 0."""
    n_cap = n_blocks or s.n_max
    mat = np.eye(n_cap * s.order.j_count) - f_matrix(s, 0.0, n_cap, mode="z")
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape[0] != mat.shape[0]:
        raise InputError(f"rhs length {rhs.shape[0]} does not match system side {mat.shape[0]}")
    return linalg.lu_solve(mat, rhs, tol=tol)

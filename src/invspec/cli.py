"""Command-line front end: JSON problem files in, JSON/CSV results out.

Problem file schema (version "1"):

    {"schema_version": "1", "mode": "potential" | "spectral",
     "m": <int>, "N": <int>,
     "entries": [{"gamma" | "j": <int>, "n": <int>, "re": <float>, "im": <float>}, ...]}

Complex numbers always serialize as {re, im} finite doubles, and the integer
fields must be integral (2.0 reads as 2; 2.9 is refused, not truncated).  A
JSON boolean or string is refused in every numeric field, though Python reads
true as 1 and "2" as 2.
Exit codes: 0 success, 1 malformed input (a command-line usage error
included), 2 degenerate arithmetic (a result that is not finite included),
3 non-convergence, 4 verification failure.  A command computes everything
it writes before it writes any of it, so a run that fails writes no file.
"""
from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import sys

import numpy as np

from .core import Order, PotentialCoefficients, SpectralData, a_m_constant
from .errors import (ConvergenceError, DegenerateDenominatorError, InputError, InvspecError,
                     NonFiniteResultError, VerificationError)
from .forward import forward_map, q_from_p

SCHEMA_VERSION = "1"


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _integral(value) -> int:
    """A JSON integer field as an int; a float counts only when integral, a boolean or a string never."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def finite(text: str) -> float:
    """The argparse type of every float flag: a float, refusing nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _real(value) -> float:
    """A JSON number field as a float; a boolean or a string is refused."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def load_problem(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file {path}: {exc}") from exc
    try:
        if str(doc["schema_version"]) != SCHEMA_VERSION:
            raise InputError(f"unsupported schema_version {doc['schema_version']!r}")
        mode = doc["mode"]
        order = Order(_integral(doc["m"]))
        n_max = _integral(doc["N"])
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise TypeError(f"entries must be a list, got {entries!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem file {path}: {exc}") from exc
    if n_max < 1:
        raise InputError(f"N must be >= 1, got {n_max}")
    if mode == "potential":
        shape, index_key, index_hi = (order.gamma_count, n_max), "gamma", order.gamma_count - 1
    elif mode == "spectral":
        shape, index_key, index_hi = (n_max, order.j_count), "j", order.j_count
    else:
        raise InputError(f"unknown mode {mode!r}")
    try:
        table = np.zeros(shape, dtype=complex)
    except ValueError as exc:
        raise InputError(f"malformed problem file {path}: m={doc['m']!r}, N={doc['N']!r}: {exc}") from exc
    seen = set()
    for entry in entries:
        try:
            idx = _integral(entry[index_key])
            n = _integral(entry["n"])
            value = complex(_real(entry["re"]), _real(entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed entry {entry!r}: {exc}") from exc
        if not cmath.isfinite(value):
            raise InputError(f"non-finite value in entry {entry!r}")
        lo = 0 if index_key == "gamma" else 1
        if not lo <= idx <= index_hi:
            raise InputError(f"{index_key}={idx} outside {lo}..{index_hi}")
        if not 1 <= n <= n_max:
            raise InputError(f"n={n} outside 1..{n_max}")
        if (idx, n) in seen:
            raise InputError(f"duplicate entry key ({index_key}={idx}, n={n})")
        seen.add((idx, n))
        if mode == "potential":
            table[idx, n - 1] = value
        else:
            table[n - 1, idx - 1] = value
    if mode == "potential":
        return PotentialCoefficients(order, n_max, table)
    return SpectralData(order, n_max, table)


def _problem_doc(obj) -> dict:
    entries = []
    if isinstance(obj, PotentialCoefficients):
        mode, key = "potential", "gamma"
        for gamma in range(obj.order.gamma_count):
            for n in range(1, obj.n_max + 1):
                entries.append({key: gamma, "n": n, **_complex_json(obj.coeffs[gamma, n - 1])})
    elif isinstance(obj, SpectralData):
        mode, key = "spectral", "j"
        for j in range(1, obj.order.j_count + 1):
            for n in range(1, obj.n_max + 1):
                entries.append({key: j, "n": n, **_complex_json(obj.table[n - 1, j - 1])})
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    return {"schema_version": SCHEMA_VERSION, "mode": mode, "m": obj.order.m,
            "N": obj.n_max, "entries": entries}


def _json_text(doc) -> str:
    """doc as JSON text; a NaN or infinity, which JSON cannot hold, raises NonFiniteResultError."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"result is not finite: {exc}") from None


def _write(outputs: list[tuple[str, str | None]]) -> None:
    """Write each (text, path) in order; a path of None or "-" is stdout."""
    for text, path in outputs:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)


def cmd_forward(args) -> int:
    problem = load_problem(args.input)
    if not isinstance(problem, PotentialCoefficients):
        raise InputError("forward expects a potential-mode problem file")
    v, s = forward_map(problem)
    outputs = [(_json_text(_problem_doc(s)), args.output)]
    if args.emit_v:
        entries = [
            {"j": j, "n": n, "alpha": alpha, **_complex_json(v.table[j - 1, n - 1, alpha - 1])}
            for j in range(1, v.order.j_count + 1)
            for alpha in range(1, v.n_max + 1)
            for n in range(1, alpha + 1)
        ]
        outputs.append((_json_text({"schema_version": SCHEMA_VERSION, "mode": "vtable",
                                    "m": v.order.m, "N": v.n_max, "entries": entries}), args.emit_v))
    _write(outputs)
    return 0


def cmd_inverse(args) -> int:
    from . import inverse

    problem = load_problem(args.input)
    if not isinstance(problem, SpectralData):
        raise InputError("inverse expects a spectral-mode problem file")
    p = inverse.inverse_map(problem)
    a_m = a_m_constant(problem.order)
    moment = inverse.first_moment(problem)
    contraction = inverse.contraction_conditions(problem)
    outputs = [(_json_text(_problem_doc(p)), args.output)]
    if args.report:
        outputs.append((_json_text({
            "a_m": {"value": a_m},
            "first_moment": {"total": moment.total,
                             "tail_decay_exponent": moment.tail_decay_exponent},
            "contraction": {"condition_i": contraction.condition_i,
                            "condition_ii_p": contraction.condition_ii_p,
                            "contraction": contraction.contraction},
        }), args.report))
    if not contraction.contraction:
        print(f"warning: contraction sum {contraction.condition_ii_p:.6g} >= 1; "
              "existence is not guaranteed at this data size", file=sys.stderr)
    _write(outputs)
    return 0


def cmd_det(args) -> int:
    import csv

    from . import fredholm

    problem = load_problem(args.input)
    if not isinstance(problem, SpectralData):
        raise InputError("det expects a spectral-mode problem file")
    for flag, steps in (("--re-steps", args.re_steps), ("--im-steps", args.im_steps)):
        if steps < 2:
            raise InputError(f"{flag} must be at least 2, got {steps}")
    if args.im_max <= 0:
        raise InputError(f"--im-max must be > 0, got {args.im_max}")
    re_grid = np.linspace(0.0, 2 * np.pi, args.re_steps)
    im_grid = np.linspace(0.0, args.im_max, args.im_steps)
    report = fredholm.scan_halfplane(problem, re_grid, im_grid, tol=args.tol,
                                     n_max=args.n_max, det_tol=args.det_tol)
    # the scan refuses a determinant that is not finite, so every row is finite
    grid = io.StringIO()
    writer = csv.writer(grid, lineterminator="\n")
    writer.writerow(["re(z)", "im(z)", "re(D)", "im(D)", "|D|"])
    for (iy, ix), d in np.ndenumerate(report.values):
        d = complex(d)
        writer.writerow([repr(float(v)) for v in (re_grid[ix], im_grid[iy], d.real, d.imag, abs(d))])
    outputs = [(grid.getvalue(), args.output)]
    if args.report:
        outputs.append((_json_text({
            "zero_free": report.zero_free,
            "min_modulus": report.min_modulus,
            "argmin": _complex_json(report.argmin),
            "winding": report.winding,
            "convention": report.convention,
            "non_converged": [_complex_json(z) for z in report.flagged],
        }), args.report))
    _write(outputs)
    if report.flagged:
        raise ConvergenceError(
            f"determinant not converged at {len(report.flagged)} grid points",
            flagged=list(report.flagged),
        )
    return 0


def _verify_checks(p: PotentialCoefficients, args) -> list[dict]:
    from . import analytic, fredholm, inverse

    order = p.order
    v, s = forward_map(p)
    # every check below reads these tables: refuse them before any check runs
    if not (np.isfinite(v.table).all() and np.isfinite(s.table).all()):
        raise NonFiniteResultError("the forward map's V table or spectral data is not finite")
    checks = []

    p_back = inverse.inverse_map(s)
    err = float(np.abs(p_back.coeffs - p.coeffs).max())
    # report only: the error in p's own norm, sum n^gamma |p_gamma n|, relative to p's; the
    # unweighted error of the top coefficients grows with the data's conditioning at large m
    weighted = PotentialCoefficients(order, p.n_max, p_back.coeffs - p.coeffs).weighted_norm()
    scale = p.weighted_norm()
    checks.append({"name": "round_trip", "value": err, "threshold": args.round_tol,
                   "pass": bool(err <= args.round_tol),
                   "weighted": weighted / scale if scale else weighted})

    grid = np.linspace(0.0, 3.0, 5)
    t_idx, u_idx = np.triu_indices(grid.size)  # the 15 points with u >= t, t outermost
    march = max(map(abs, analytic.marchenko_residual(v, s, grid[t_idx], grid[u_idx])))
    checks.append({"name": "marchenko_residual", "value": float(march),
                   "threshold": args.marchenko_tol, "pass": bool(march <= args.marchenko_tol)})

    jump = analytic.jump_residual(v, s)
    checks.append({"name": "jump_relation", "value": jump,
                   "threshold": args.jump_tol, "pass": bool(jump <= args.jump_tol)})

    a = complex(args.shift_re, args.shift_im)
    _, s_shifted = forward_map(p.shifted(a))
    trans = float(np.abs(s_shifted.table - analytic.shift_spectral(s, a).table).max())
    checks.append({"name": "translation_law", "value": trans,
                   "threshold": args.translation_tol, "pass": bool(trans <= args.translation_tol)})

    ode = analytic.ode_mode_residual(p, v)
    checks.append({"name": "ode_residual", "value": ode,
                   "threshold": args.ode_tol, "pass": bool(ode <= args.ode_tol)})

    scan = fredholm.scan_halfplane(s, np.linspace(0, 2 * np.pi, 17), [0.0])
    det_ok = scan.winding == 0 and scan.min_modulus >= args.det_floor
    checks.append({"name": "determinant_zero_free", "value": float(scan.min_modulus),
                   "threshold": args.det_floor, "pass": bool(det_ok),
                   "winding": int(scan.winding)})

    # every mode of the kernel trace against the top coefficient, q_{2m-2, alpha}
    modes = analytic.q0_from_kernel(v)
    q_target = q_from_p(p)[order.gamma_count - 1]
    q0_err = max(abs(modes.get(alpha, 0j) - q) for alpha, q in enumerate(q_target, 1))
    checks.append({"name": "q0_trace", "value": float(q0_err),
                   "threshold": args.q0_tol, "pass": bool(q0_err <= args.q0_tol)})
    return checks


def cmd_verify(args) -> int:
    problem = load_problem(args.input)
    if not isinstance(problem, PotentialCoefficients):
        raise InputError("verify expects a potential-mode problem file")
    checks = _verify_checks(problem, args)
    failed = [c["name"] for c in checks if not c["pass"]]
    _write([(_json_text({"checks": checks, "all_pass": not failed, "failed": failed}),
             args.report or args.output)])
    if failed:
        raise VerificationError(f"checks failed: {', '.join(failed)}", failed=failed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="invspec",
                                     description="Forward/inverse spectral maps and the "
                                                 "determinant criterion for exponential-series "
                                                 "periodic coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="potential file -> spectral data file")
    fwd.add_argument("--input", required=True)
    fwd.add_argument("--output", default="-")
    fwd.add_argument("--emit-v", default=None, help="also write the V table to this path")
    fwd.set_defaults(func=cmd_forward)

    inv = sub.add_parser("inverse", help="spectral data file -> potential file")
    inv.add_argument("--input", required=True)
    inv.add_argument("--output", default="-")
    inv.add_argument("--report", default=None, help="write condition reports to this path")
    inv.set_defaults(func=cmd_inverse)

    det = sub.add_parser("det", help="scan the determinant over [0, 2pi] x [0, im-max]")
    det.add_argument("--input", required=True)
    det.add_argument("--output", default="-", help="CSV grid destination")
    det.add_argument("--report", default=None, help="JSON verdict destination")
    det.add_argument("--re-steps", type=int, default=33)
    det.add_argument("--im-max", type=finite, default=10.0)
    det.add_argument("--im-steps", type=int, default=21)
    det.add_argument("--tol", type=finite, default=1e-6, help="modulus floor for the zero_free verdict")
    det.add_argument("--n-max", type=int, default=None, help="cap the block truncation below the data depth")
    det.add_argument("--det-tol", type=finite, default=1e-10, help="consecutive-truncation convergence tolerance")
    det.set_defaults(func=cmd_det)

    ver = sub.add_parser("verify", help="run the full consistency battery on a potential")
    ver.add_argument("--input", required=True)
    ver.add_argument("--output", default="-")
    ver.add_argument("--report", default=None)
    ver.add_argument("--round-tol", type=finite, default=1e-8)
    ver.add_argument("--marchenko-tol", type=finite, default=1e-9)
    ver.add_argument("--jump-tol", type=finite, default=1e-9)
    ver.add_argument("--translation-tol", type=finite, default=1e-9)
    ver.add_argument("--ode-tol", type=finite, default=1e-12)
    ver.add_argument("--det-floor", type=finite, default=0.5)
    ver.add_argument("--q0-tol", type=finite, default=1e-7)
    ver.add_argument("--shift-re", type=finite, default=0.5)
    ver.add_argument("--shift-im", type=finite, default=0.5)
    ver.set_defaults(func=cmd_verify)
    return parser


_MATH_ERRORS = (DegenerateDenominatorError, NonFiniteResultError)


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, _MATH_ERRORS):
        return 2
    if isinstance(exc, ConvergenceError):
        return 3
    if isinstance(exc, VerificationError):
        return 4
    if isinstance(exc, InvspecError):
        return 1
    raise exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code the contract keeps for degenerate arithmetic
        return 1 if exc.code == 2 else exc.code
    try:
        # every output is checked finite before it is written: overflow warnings only add noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped onto the exit-code contract
        code = exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: JSON problem files in, JSON/CSV results out.

Problem file schema (version "1"):

    {"schema_version": "1", "mode": "potential" | "spectral",
     "m": <int>, "N": <int>,
     "entries": [{"gamma" | "j": <int>, "n": <int>, "re": <float>, "im": <float>}, ...]}

Complex numbers always serialize as {re, im} finite doubles, and the integer
fields must be integral (2.0 reads as 2; 2.9 is refused, not truncated).  A
JSON boolean or string is refused in every numeric field, though Python reads
true as 1 and "2" as 2.
Exit codes: 0 success, 1 malformed input (a command-line usage error and an
output path that cannot be written included), 2 degenerate arithmetic (a
result that is not finite included), 3 non-convergence, 4 verification
failure.  A command computes everything it writes before it writes any of it,
and stages every file before it puts any in place, so a run that fails with
exit code 1 or 2 writes no file.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .core import Order, PotentialCoefficients, SpectralData, a_m_constant, q_from_p
from .errors import (ConvergenceError, DegenerateDenominatorError, InputError, InvspecError,
                     NonFiniteResultError, VerificationError)
from .kernel import forward_map, inverse_map

SCHEMA_VERSION = "1"
# mode -> (data type, index key, first index, the type's table read as [index, n], and back
# into the type's own C-ordered table); both have 2m - 1 rows, gamma = 0..2m-2 and j = 1..2m-1
LAYOUTS = {
    "potential": (PotentialCoefficients, "gamma", 0, lambda p: p.coeffs, lambda rows: rows),
    "spectral": (SpectralData, "j", 1, lambda s: s.table.T, lambda table: table.T.copy()),
}
# verify's checks: name -> (the argument holding its tolerance, its default)
TOLERANCES = {
    "round_trip": ("round_tol", 1e-8),
    "marchenko_residual": ("marchenko_tol", 1e-9),
    "jump_relation": ("jump_tol", 1e-9),
    "translation_law": ("translation_tol", 1e-9),
    "ode_residual": ("ode_tol", 1e-12),
    "determinant_zero_free": ("det_floor", 0.5),
    "q0_trace": ("q0_tol", 1e-7),
}


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _finite_or_null(x: float | None) -> float | None:
    """x, or None where JSON cannot hold it."""
    return x if x is not None and math.isfinite(x) else None


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
    try:
        cls, key, first, _, back = LAYOUTS[mode]
    except (KeyError, TypeError):  # a JSON list or object is no key either
        raise InputError(f"unknown mode {mode!r}") from None
    try:
        rows = np.zeros((order.j_count, n_max), dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise InputError(f"malformed problem file {path}: m={doc['m']!r}, N={doc['N']!r}: {exc}") from exc
    seen = set()
    for entry in entries:
        try:
            idx = _integral(entry[key])
            n = _integral(entry["n"])
            value = complex(_real(entry["re"]), _real(entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed entry {entry!r}: {exc}") from exc
        if not cmath.isfinite(value):
            raise InputError(f"non-finite value in entry {entry!r}")
        if not 0 <= idx - first < order.j_count:
            raise InputError(f"{key}={idx} outside {first}..{first + order.j_count - 1}")
        if not 1 <= n <= n_max:
            raise InputError(f"n={n} outside 1..{n_max}")
        if (idx, n) in seen:
            raise InputError(f"duplicate entry key ({key}={idx}, n={n})")
        seen.add((idx, n))
        rows[idx - first, n - 1] = value
    return cls(order, n_max, back(rows))


def _doc(mode: str, obj, entries: list) -> dict:
    return {"schema_version": SCHEMA_VERSION, "mode": mode, "m": obj.order.m, "N": obj.n_max,
            "entries": entries}


def _problem_doc(obj) -> dict:
    mode = next(mode for mode, layout in LAYOUTS.items() if isinstance(obj, layout[0]))
    _, key, first, read, _ = LAYOUTS[mode]
    return _doc(mode, obj, [{key: idx + first, "n": n + 1, **_complex_json(z)}
                            for (idx, n), z in np.ndenumerate(read(obj))])


def _json_text(doc) -> str:
    """doc as JSON text; a NaN or infinity, which JSON cannot hold, raises NonFiniteResultError."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"result is not finite: {exc}") from None


def _write(outputs: list[tuple[str, str | None]]) -> None:
    """Write each (text, path); a path of None or "-" is stdout.

    Every file is staged before any is written, so a run that cannot write one of them writes
    none: a new or regular file as a temporary file beside it, renamed into place once all are
    staged, and anything else (a device such as /dev/null) opened where it is.  Devices and
    stdout are written last, after the renames, so when one of them fails the staged files are
    already in place.  Either OSError is malformed input.
    """
    renames, streams = [], []  # (temporary file, target path); (text, stdout or an open device, name)
    try:
        with contextlib.ExitStack() as devices:
            for text, path in outputs:
                if path is None or path == "-":
                    streams.append((text, sys.stdout, "stdout"))
                elif os.path.exists(path) and not os.path.isfile(path):
                    streams.append((text, devices.enter_context(open(path, "w", newline="")), path))
                else:
                    target = os.path.realpath(path)
                    tmp = f"{target}.{os.getpid()}-{len(renames)}.tmp"
                    with open(tmp, "x", newline="") as fh:
                        renames.append((tmp, target))
                        fh.write(text)
            for tmp, target in renames:
                os.replace(tmp, target)
            for text, stream, path in streams:
                stream.write(text)
                stream.flush()
    except OSError as exc:
        for tmp, _ in renames:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_forward(p: PotentialCoefficients, args) -> int:
    v, s = forward_map(p)
    outputs = [(_json_text(_problem_doc(s)), args.output)]
    if args.emit_v:
        # V's rows are the spectral rows j: its diagonal V[j, n, n] is S_nj
        _, key, first, _, _ = LAYOUTS["spectral"]
        entries = [{key: j + first, "n": n + 1, "alpha": alpha + 1, **_complex_json(z)}
                   for (j, alpha, n), z in np.ndenumerate(v.table.transpose(0, 2, 1)) if n <= alpha]
        outputs.append((_json_text(_doc("vtable", v, entries)), args.emit_v))
    _write(outputs)
    return 0


def cmd_inverse(s: SpectralData, args) -> int:
    from . import inverse

    p = inverse_map(s)
    contraction = inverse.contraction_conditions(s)
    outputs = [(_json_text(_problem_doc(p)), args.output)]
    if args.report:
        outputs.append((_json_text({"a_m": {"value": a_m_constant(s.order)},
                                    "first_moment": dataclasses.asdict(inverse.first_moment(s)),
                                    "contraction": dataclasses.asdict(contraction)}), args.report))
    if not contraction.contraction:
        print(f"warning: contraction sum {contraction.condition_ii_p:.6g} >= 1; "
              "existence is not guaranteed at this data size", file=sys.stderr)
    _write(outputs)
    return 0


def cmd_det(s: SpectralData, args) -> int:
    from . import fredholm

    for flag, steps in (("--re-steps", args.re_steps), ("--im-steps", args.im_steps)):
        if steps < 2:
            raise InputError(f"{flag} must be at least 2, got {steps}")
    if args.im_max <= 0:
        raise InputError(f"--im-max must be > 0, got {args.im_max}")
    re_grid = np.linspace(0.0, 2 * np.pi, args.re_steps)
    im_grid = np.linspace(0.0, args.im_max, args.im_steps)
    report = fredholm.scan_halfplane(s, re_grid, im_grid, tol=args.tol,
                                     n_max=args.n_max, det_tol=args.det_tol)
    # the scan refuses a determinant that is not finite, so every row is finite; no field of
    # the CSV holds a character that RFC 4180 quotes
    grid = "re(z),im(z),re(D),im(D),|D|\n" + "".join(
        ",".join(repr(float(v)) for v in (re_grid[ix], im_grid[iy], d.real, d.imag, abs(complex(d)))) + "\n"
        for (iy, ix), d in np.ndenumerate(report.values))
    outputs = [(grid, args.output)]
    if args.report:
        outputs.append((_json_text({
            "zero_free": report.zero_free,
            "min_modulus": report.min_modulus,
            "argmin": _complex_json(report.argmin),
            "winding": report.winding,
            "convention": report.convention,
            "non_converged": [_complex_json(z) for z in report.flagged],
            # an overflowing bound reads null, its logarithm finite
            "truncation_bound": _finite_or_null(report.truncation_bound),
            "truncation_bound_log10": _finite_or_null(report.truncation_bound_log10),
        }), args.report))
    _write(outputs)
    if report.flagged:
        raise ConvergenceError(f"determinant not converged at {len(report.flagged)} grid points")
    return 0


def _verify_checks(p: PotentialCoefficients, args) -> list[dict]:
    from . import analytic, fredholm, inverse

    v, s = forward_map(p)
    # every check below reads these tables: refuse them before any check runs
    if not (np.isfinite(v.table).all() and np.isfinite(s.table).all()):
        raise NonFiniteResultError("the forward map's V table or spectral data is not finite")
    checks = []

    def check(name: str, value, passed=None, **fields) -> None:
        """Record check name: it passes where value <= its tolerance, unless passed says otherwise."""
        threshold = getattr(args, TOLERANCES[name][0])
        checks.append({"name": name, "value": float(value), "threshold": threshold,
                       "pass": bool(value <= threshold if passed is None else passed), **fields})

    p_back = inverse_map(s)
    # report only: the error in p's own norm, sum n^gamma |p_gamma n|, relative to p's; the
    # unweighted error of the top coefficients grows with the data's conditioning at large m
    weighted = PotentialCoefficients(p.order, p.n_max, p_back.coeffs - p.coeffs).weighted_norm()
    scale = p.weighted_norm()
    check("round_trip", np.abs(p_back.coeffs - p.coeffs).max(),
          weighted=weighted / scale if scale else weighted)

    grid = np.linspace(0.0, 3.0, 5)
    t_idx, u_idx = np.triu_indices(grid.size)  # the 15 points with u >= t, t outermost
    check("marchenko_residual", max(map(abs, analytic.marchenko_residual(v, s, grid[t_idx], grid[u_idx]))))
    check("jump_relation", analytic.jump_residual(v, s))

    a = complex(args.shift_re, args.shift_im)
    _, s_shifted = forward_map(p.shifted(a))
    check("translation_law", np.abs(s_shifted.table - analytic.shift_spectral(s, a).table).max())
    check("ode_residual", analytic.ode_mode_residual(p, v))

    scan = fredholm.scan_halfplane(s, np.linspace(0, 2 * np.pi, 17), [0.0])
    check("determinant_zero_free", scan.min_modulus, scan.winding == 0 and scan.min_modulus >= args.det_floor,
          winding=int(scan.winding))

    # every mode of the kernel trace against the top coefficient, q_{2m-2, alpha}
    modes = analytic.q0_from_kernel(v)
    q_target = q_from_p(p)[p.order.gamma_count - 1]
    check("q0_trace", max(abs(modes.get(alpha, 0j) - q) for alpha, q in enumerate(q_target, 1)))
    return checks


def cmd_verify(p: PotentialCoefficients, args) -> int:
    checks = _verify_checks(p, args)
    failed = [c["name"] for c in checks if not c["pass"]]
    _write([(_json_text({"checks": checks, "all_pass": not failed, "failed": failed}),
             args.report or args.output)])
    if failed:
        raise VerificationError(f"checks failed: {', '.join(failed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="invspec",
                                     description="Forward/inverse spectral maps and the "
                                                 "determinant criterion for exponential-series "
                                                 "periodic coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    # each command reads one mode of problem file (_load)
    for name, func, mode, text, output_help in (
            ("forward", cmd_forward, "potential", "potential file -> spectral data file", None),
            ("inverse", cmd_inverse, "spectral", "spectral data file -> potential file", None),
            ("det", cmd_det, "spectral", "scan the determinant over [0, 2pi] x [0, im-max]",
             "CSV grid destination"),
            ("verify", cmd_verify, "potential", "run the full consistency battery on a potential", None)):
        command = commands[name] = sub.add_parser(name, help=text)
        command.set_defaults(func=func, mode=mode)
        command.add_argument("--input", required=True)
        command.add_argument("--output", default="-", help=output_help)
    fwd, inv, det, ver = commands.values()
    fwd.add_argument("--emit-v", default=None, help="also write the V table to this path")
    inv.add_argument("--report", default=None, help="write condition reports to this path")

    det.add_argument("--report", default=None, help="JSON verdict destination")
    det.add_argument("--re-steps", type=int, default=33)
    det.add_argument("--im-max", type=finite, default=10.0)
    det.add_argument("--im-steps", type=int, default=21)
    det.add_argument("--tol", type=finite, default=1e-6, help="modulus floor for the zero_free verdict")
    det.add_argument("--n-max", type=int, default=None, help="cap the block truncation below the data depth")
    det.add_argument("--det-tol", type=finite, default=1e-10,
                     help="tolerance on the truncation bound, relative to 1 + |D|")

    ver.add_argument("--report", default=None)
    for arg, default in TOLERANCES.values():
        ver.add_argument("--" + arg.replace("_", "-"), type=finite, default=default)
    ver.add_argument("--shift-re", type=finite, default=0.5)
    ver.add_argument("--shift-im", type=finite, default=0.5)
    return parser


def _load(args):
    """The problem file args.input, refused unless it holds the mode that args.command reads."""
    problem = load_problem(args.input)
    if not isinstance(problem, LAYOUTS[args.mode][0]):
        raise InputError(f"{args.command} expects a {args.mode}-mode problem file")
    return problem


# the exit code of each error class, the subclasses before InvspecError
EXIT_CODES = ((DegenerateDenominatorError, 2), (NonFiniteResultError, 2), (ConvergenceError, 3),
              (VerificationError, 4), (InvspecError, 1))


def exit_code_for(exc: Exception) -> int:
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
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
            return args.func(_load(args), args)
    except Exception as exc:  # noqa: BLE001 - mapped onto the exit-code contract
        code = exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

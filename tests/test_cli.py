import csv
import json
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import random_potential
from invspec import Order, PotentialCoefficients, SpectralData, VTable, forward_map, fredholm
from invspec.cli import exit_code_for, load_problem
from invspec import errors
from invspec.errors import (ConvergenceError, DegenerateDenominatorError, InputError, InvspecError,
                            NonFiniteResultError, VerificationError)


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "invspec.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_problem(path: Path, mode: str, m: int, n_max: int, entries):
    doc = {"schema_version": "1", "mode": mode, "m": m, "N": n_max, "entries": entries}
    path.write_text(json.dumps(doc))


def potential_entry(gamma, n, value):
    return {"gamma": gamma, "n": n, "re": value.real, "im": value.imag}


def test_forward_zero_potential(tmp_path):
    inp = tmp_path / "p.json"
    out = tmp_path / "s.json"
    write_problem(inp, "potential", 2, 3, [])
    result = run_cli("forward", "--input", str(inp), "--output", str(out))
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    assert doc["mode"] == "spectral"
    assert all(e["re"] == 0.0 and e["im"] == 0.0 for e in doc["entries"])


def test_forward_single_mode_anchor(tmp_path):
    inp = tmp_path / "p.json"
    out = tmp_path / "s.json"
    write_problem(inp, "potential", 1, 3, [potential_entry(0, 1, 0.1 + 0j)])
    result = run_cli("forward", "--input", str(inp), "--output", str(out),
                     "--emit-v", str(tmp_path / "v.json"))
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    s11 = next(e for e in doc["entries"] if e["j"] == 1 and e["n"] == 1)
    assert s11["re"] == pytest.approx(0.0, abs=1e-15)
    assert s11["im"] == pytest.approx(0.1, abs=1e-15)
    vdoc = json.loads((tmp_path / "v.json").read_text())
    assert vdoc["mode"] == "vtable"
    assert all(e["n"] <= e["alpha"] for e in vdoc["entries"])


def test_forward_inverse_file_round_trip(tmp_path):
    inp = tmp_path / "p.json"
    spec = tmp_path / "s.json"
    back = tmp_path / "p2.json"
    entries = [potential_entry(0, 1, 0.02 - 0.01j), potential_entry(2, 2, 0.005j),
               potential_entry(1, 3, 0.002 + 0.001j)]
    write_problem(inp, "potential", 2, 4, entries)
    assert run_cli("forward", "--input", str(inp), "--output", str(spec)).returncode == 0
    result = run_cli("inverse", "--input", str(spec), "--output", str(back),
                     "--report", str(tmp_path / "rep.json"))
    assert result.returncode == 0, result.stderr
    p_in = load_problem(str(inp))
    p_out = load_problem(str(back))
    assert np.abs(p_in.coeffs - p_out.coeffs).max() <= 1e-8
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["contraction"]["contraction"] is True
    assert report["a_m"]["value"] > 0


def test_inverse_warns_without_contraction(tmp_path):
    inp = tmp_path / "s.json"
    write_problem(inp, "spectral", 1, 1, [{"j": 1, "n": 1, "re": 3.0, "im": 0.0}])
    result = run_cli("inverse", "--input", str(inp), "--output", str(inp.with_suffix(".out")))
    assert result.returncode == 0
    assert "contraction" in result.stderr


def test_det_zero_data(tmp_path):
    inp = tmp_path / "s.json"
    csv_out = tmp_path / "grid.csv"
    verdict_out = tmp_path / "verdict.json"
    write_problem(inp, "spectral", 1, 2, [])
    result = run_cli("det", "--input", str(inp), "--output", str(csv_out),
                     "--report", str(verdict_out), "--re-steps", "9", "--im-steps", "5")
    assert result.returncode == 0, result.stderr
    with open(csv_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re(z)", "im(z)", "re(D)", "im(D)", "|D|"]
    assert all(float(row[4]) == 1.0 for row in rows[1:])
    verdict = json.loads(verdict_out.read_text())
    assert verdict["zero_free"] is True
    assert verdict["winding"] == 0
    assert verdict["convention"] == "det(E-F)"


def test_det_rank_one_matches_closed_form(tmp_path):
    inp = tmp_path / "s.json"
    csv_out = tmp_path / "grid.csv"
    write_problem(inp, "spectral", 1, 1, [{"j": 1, "n": 1, "re": 0.4, "im": -0.2}])
    result = run_cli("det", "--input", str(inp), "--output", str(csv_out),
                     "--re-steps", "9", "--im-steps", "4", "--im-max", "6.0")
    assert result.returncode == 0, result.stderr
    with open(csv_out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        z = complex(float(row[0]), float(row[1]))
        d = complex(float(row[2]), float(row[3]))
        assert abs(d - (1 + 1j * (0.4 - 0.2j) / 2 * np.exp(1j * z))) <= 1e-12


def test_det_planted_zero_winding(tmp_path):
    inp = tmp_path / "s.json"
    verdict_out = tmp_path / "verdict.json"
    value = -2 * np.e * 1j
    write_problem(inp, "spectral", 1, 1, [{"j": 1, "n": 1, "re": value.real, "im": value.imag}])
    result = run_cli("det", "--input", str(inp), "--output", str(tmp_path / "g.csv"),
                     "--report", str(verdict_out))
    assert result.returncode == 0, result.stderr
    verdict = json.loads(verdict_out.read_text())
    assert verdict["winding"] == 1
    assert verdict["zero_free"] is False


def test_det_counts_a_zero_on_the_imaginary_axis(tmp_path):
    # S_11 = 4i: D = 1 - 2 e^{iz} vanishes at z = i ln 2, on the Re z = 0 edge of det's grid; the
    # real-axis winding counts it, where the rectangle walk reported zero_free with winding 0
    inp = tmp_path / "s.json"
    verdict_out = tmp_path / "verdict.json"
    write_problem(inp, "spectral", 1, 1, [{"j": 1, "n": 1, "re": 0.0, "im": 4.0}])
    result = run_cli("det", "--input", str(inp), "--output", str(tmp_path / "g.csv"),
                     "--report", str(verdict_out))
    assert result.returncode == 0, result.stderr
    verdict = json.loads(verdict_out.read_text())
    assert (verdict["zero_free"], verdict["winding"]) == (False, 1)


def test_det_exit_3_when_truncation_forced(tmp_path):
    inp = tmp_path / "s.json"
    entries = [{"j": 1, "n": n, "re": 0.8 ** n, "im": 0.0} for n in range(1, 21)]
    write_problem(inp, "spectral", 1, 20, entries)
    result = run_cli("det", "--input", str(inp), "--output", str(tmp_path / "g.csv"),
                     "--re-steps", "5", "--im-steps", "3", "--im-max", "2.0",
                     "--n-max", "5", "--det-tol", "1e-12")
    assert result.returncode == 3
    assert "not converged" in result.stderr


def test_det_csv_holds_the_scanned_values(tmp_path):
    inp = tmp_path / "s.json"
    csv_out = tmp_path / "grid.csv"
    verdict_out = tmp_path / "verdict.json"
    rng = np.random.default_rng(11)
    table = (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))) * 0.1 * 2.0 ** -np.arange(6)[:, None]
    write_problem(inp, "spectral", 2, 6, [{"j": j, "n": n, "re": table[n - 1, j - 1].real,
                                           "im": table[n - 1, j - 1].imag}
                                          for n in range(1, 7) for j in range(1, 4)])
    result = run_cli("det", "--input", str(inp), "--output", str(csv_out),
                     "--report", str(verdict_out), "--re-steps", "9", "--im-steps", "5")
    assert result.returncode == 0, result.stderr
    with open(csv_out, newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 45
    verdict = json.loads(verdict_out.read_text())
    at_argmin = [row for row in rows
                 if (row[0], row[1]) == (verdict["argmin"]["re"], verdict["argmin"]["im"])]
    assert [row[4] for row in at_argmin] == [verdict["min_modulus"]]
    _, dets = fredholm._determinants(load_problem(str(inp)), None)
    for x, y, d_re, d_im, _ in rows:
        assert complex(d_re, d_im) == dets(np.array([complex(x, y)]))[0]


@pytest.mark.parametrize("flag, steps", [("--re-steps", "-3"), ("--im-steps", "-2"),
                                         ("--re-steps", "1"), ("--im-steps", "0")])
def test_det_step_counts_below_two_exit_1_and_write_nothing(tmp_path, flag, steps):
    # a negative count once reached numpy.linspace and left with its traceback
    write_problem(tmp_path / "s.json", "spectral", 1, 2, [{"j": 1, "n": 1, "re": 0.3, "im": 0.0}])
    result = run_cli("det", "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "g.csv"),
                     "--report", str(tmp_path / "verdict.json"), flag, steps)
    assert result.returncode == 1
    assert result.stderr == f"error: {flag} must be at least 2, got {steps}\n"
    assert result.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["s.json"]


def test_det_zero_height_exits_1_and_writes_nothing(tmp_path):
    # criterion 7's planted zero; det's grid is [0, 2pi] x [0, im-max], refused before it is scanned
    write_problem(tmp_path / "s.json", "spectral", 1, 1, [{"j": 1, "n": 1, "re": 0.0, "im": -2 * np.e}])
    result = run_cli("det", "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "g.csv"),
                     "--report", str(tmp_path / "verdict.json"), "--im-max", "0")
    assert result.returncode == 1
    assert result.stderr == "error: --im-max must be > 0, got 0.0\n"
    assert result.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("n_max, code", [("0", 1), ("-1", 1), ("1", 3)])
def test_det_block_cap_exit_codes(tmp_path, n_max, code):
    # depth-4 data: n_max below 1 is malformed input; one block is checked
    # against the empty determinant D_0 = 1 and misses it everywhere
    inp = tmp_path / "s.json"
    write_problem(inp, "spectral", 1, 4, [{"j": 1, "n": 1, "re": 0.3, "im": 0.1},
                                          {"j": 1, "n": 3, "re": 0.1, "im": 0.0}])
    result = run_cli("det", "--input", str(inp), "--output", str(tmp_path / "g.csv"),
                     "--re-steps", "5", "--im-steps", "3", "--n-max", n_max)
    assert result.returncode == code
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_verify_zero_potential_passes(tmp_path):
    inp = tmp_path / "p.json"
    report = tmp_path / "scorecard.json"
    write_problem(inp, "potential", 1, 6, [])
    result = run_cli("verify", "--input", str(inp), "--report", str(report))
    assert result.returncode == 0, result.stderr
    card = json.loads(report.read_text())
    assert card["all_pass"] is True
    assert next(c for c in card["checks"] if c["name"] == "round_trip")["weighted"] == 0.0
    assert {c["name"] for c in card["checks"]} == {
        "round_trip", "marchenko_residual", "jump_relation", "translation_law",
        "ode_residual", "determinant_zero_free", "q0_trace"}


def test_verify_reports_the_weighted_round_trip_error(tmp_path):
    # at (8, 20) the unweighted round-trip error of the top coefficients grows with cond(T_1)
    # (2e13 at m = 8) and fails --round-tol; the report-only n^gamma-weighted error, relative
    # to p's weighted norm, stays at rounding (measured 3.0e-10)
    p = random_potential(Order(8), 20, np.random.default_rng([8, 20, 0]))
    inp = tmp_path / "p.json"
    report = tmp_path / "scorecard.json"
    write_problem(inp, "potential", 8, 20, [potential_entry(g, n + 1, p.coeffs[g, n])
                                            for g in range(15) for n in range(20)])
    result = run_cli("verify", "--input", str(inp), "--report", str(report))
    assert result.returncode == 4
    card = json.loads(report.read_text())
    trip = next(c for c in card["checks"] if c["name"] == "round_trip")
    assert trip["pass"] is False and trip["value"] > trip["threshold"] == 1e-8
    assert trip["weighted"] < 1e-9
    assert "round_trip" in card["failed"]


def test_verify_geometric_m1_passes(tmp_path):
    inp = tmp_path / "p.json"
    report = tmp_path / "scorecard.json"
    entries = [potential_entry(0, n, 0.05 * 2.0 ** -n + 0j) for n in range(1, 7)]
    write_problem(inp, "potential", 1, 6, entries)
    result = run_cli("verify", "--input", str(inp), "--report", str(report))
    assert result.returncode == 0, result.stderr
    card = json.loads(report.read_text())
    assert card["all_pass"] is True


def _exp_decay_potential(path: Path, scale: float = 1.0):
    n = np.arange(1, 25)
    write_problem(path, "potential", 2, 24, [potential_entry(g, int(k), scale * np.exp(-k / 2) + 0j)
                                             for g in range(3) for k in n])


def test_verify_skips_pairs_at_the_rounding_floor(tmp_path):
    # a potential at the rounding floor from depth 22 on: its modes hold at rounding at every depth
    inp = tmp_path / "p.json"
    report = tmp_path / "scorecard.json"
    _exp_decay_potential(inp)
    result = run_cli("verify", "--input", str(inp), "--report", str(report))
    assert result.returncode == 0, result.stderr
    card = json.loads(report.read_text())
    ode = next(c for c in card["checks"] if c["name"] == "ode_residual")
    assert card["all_pass"] is True
    assert ode["value"] <= 1e-13 and ode["threshold"] == 1e-12  # measured 3.2e-16
    assert set(ode) == {"name", "value", "threshold", "pass"}


def test_verify_fails_a_residual_above_the_floor_that_does_not_halve(tmp_path):
    # a large potential: its modes hold at rounding, and only the determinant's floor fails it
    inp = tmp_path / "p.json"
    report = tmp_path / "scorecard.json"
    write_problem(inp, "potential", 1, 6, [potential_entry(0, n, 4.0 + 0j) for n in range(1, 7)])
    result = run_cli("verify", "--input", str(inp), "--report", str(report))
    assert result.returncode == 4
    card = json.loads(report.read_text())
    ode = next(c for c in card["checks"] if c["name"] == "ode_residual")
    assert ode["pass"] is True and ode["value"] <= 1e-13  # measured 6.1e-17
    assert card["failed"] == ["determinant_zero_free"]  # min |D| = 0.043 < --det-floor 0.5


def test_verify_passes_the_cli_cold_seed_8_potential(tmp_path):
    # the benchmark's cli_cold (3, 12) file of seed 8, draw 0: its sampled ODE residual,
    # already at rounding, grew 2.58-fold with depth, and the halving check failed it
    rng = np.random.default_rng([8, 0, zlib.crc32(b"cli_cold"), 4])
    p = random_potential(Order(3), 12, rng, scale=0.05)
    inp = tmp_path / "p.json"
    write_problem(inp, "potential", 3, 12, [potential_entry(g, n + 1, p.coeffs[g, n])
                                            for g in range(5) for n in range(12)])
    result = run_cli("verify", "--input", str(inp), "--report", str(tmp_path / "card.json"))
    assert result.returncode == 0, result.stderr


def verify_on_tables(monkeypatch, p, tables) -> dict:
    """verify's checks of p at the default thresholds, by name, with its forward map's
    (V, S) replaced by tables; the translation check's shifted potential maps as usual."""
    from invspec import cli

    real_forward = cli.forward_map
    monkeypatch.setattr(cli, "forward_map", lambda q: tables if q is p else real_forward(q))
    args = cli.build_parser().parse_args(["verify", "--input", "unused.json"])
    return {c["name"]: c for c in cli._verify_checks(p, args)}


def mutated(p, kind: str):
    """(the potential verify reads, the (V, S) it is given) for one seeded mutation of p."""
    n_max = p.n_max
    v, s = forward_map(p)
    if kind == "v_entry":  # an entry past the rows n <= N / 2 that the sampled check read
        table = np.array(v.table)
        table[0, n_max // 2, n_max // 2 + 1] *= 1 + 1e-6
        return p, (VTable(v.order, n_max, table), s)
    if kind == "s_entry":
        table = np.array(s.table)
        table[n_max // 2 - 1, 0] *= 1 + 1e-6
        return p, (v, SpectralData(s.order, n_max, table))
    coeffs = np.array(p.coeffs)
    if kind == "p_coefficient":  # the tables stay those of the unperturbed potential
        coeffs[0, 0] *= 1 + 1e-3
        return PotentialCoefficients(p.order, n_max, coeffs), (v, s)
    coeffs[1] *= -1  # "gamma1_sign": the forward map's input has the gamma = 1 sign flipped
    return p, forward_map(PotentialCoefficients(p.order, n_max, coeffs))


MUTATION_SIZES = [(1, 8), (2, 16), (2, 24), (3, 12)]
# the check each mutation must fail; measured at these sizes, the failing value is at least
# 2.0e-8 (v_entry), 5.0e-7 (s_entry), 5.5e-5 (p_coefficient) and 3.2e-2 (gamma1_sign)
MUTATION_CHECK = {"v_entry": "jump_relation", "s_entry": "jump_relation",
                  "p_coefficient": "ode_residual", "gamma1_sign": "ode_residual"}


@pytest.mark.parametrize("m, n_max", MUTATION_SIZES)
def test_verify_identities_hold_to_rounding_on_clean_pairs(monkeypatch, m, n_max):
    p = random_potential(Order(m), n_max, np.random.default_rng([m, n_max, 7]))
    checks = verify_on_tables(monkeypatch, p, forward_map(p))
    assert checks["jump_relation"]["value"] <= 1e-13  # measured <= 3.8e-16
    assert checks["ode_residual"]["value"] <= 1e-13  # measured <= 2.9e-16


@pytest.mark.parametrize("m, n_max, kind", [(m, n_max, kind) for m, n_max in MUTATION_SIZES
                                            for kind in MUTATION_CHECK
                                            if kind != "gamma1_sign" or m >= 2])
def test_verify_fails_each_seeded_mutation(monkeypatch, m, n_max, kind):
    p, tables = mutated(random_potential(Order(m), n_max, np.random.default_rng([m, n_max, 7])), kind)
    check = verify_on_tables(monkeypatch, p, tables)[MUTATION_CHECK[kind]]
    assert not check["pass"] and check["value"] > 10 * check["threshold"]


def test_verify_exit_4_on_impossible_threshold(tmp_path):
    inp = tmp_path / "p.json"
    entries = [potential_entry(0, 1, 0.05 + 0j)]
    write_problem(inp, "potential", 1, 6, entries)
    result = run_cli("verify", "--input", str(inp), "--output", str(tmp_path / "c.json"),
                     "--round-tol", "1e-30", "--marchenko-tol", "1e-30")
    assert result.returncode == 4
    assert "round_trip" in result.stderr


def test_verify_counts_a_zero_above_the_old_scan_window(monkeypatch):
    # S_11 = 2i e^12 puts the determinant's zero at z = 12i, above the Im z = 10 top of the grid
    # verify once scanned, where it counted 0; the real axis counts it, so the check fails
    p = PotentialCoefficients(Order(1), 1, np.array([[0.01]], dtype=complex))
    v, _ = forward_map(p)
    s = SpectralData(Order(1), 1, np.array([[2j * np.exp(12)]]))
    check = verify_on_tables(monkeypatch, p, (v, s))["determinant_zero_free"]
    assert (check["pass"], check["winding"]) == (False, 1)
    assert check["value"] >= 0.5  # above --det-floor: the count alone fails it


def test_verify_tol_is_a_usage_error_and_writes_nothing(tmp_path):
    # verify's --tol floored the same min |D| as --det-floor, 1e-6 under its default; it is gone
    write_problem(tmp_path / "p.json", "potential", 1, 2, [potential_entry(0, 1, 0.05 + 0j)])
    result = run_cli("verify", "--input", str(tmp_path / "p.json"),
                     "--report", str(tmp_path / "card.json"), "--tol", "1e-3")
    assert result.returncode == 1
    assert "unrecognized arguments: --tol 1e-3" in result.stderr
    assert result.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["p.json"]


def test_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("forward", "--input", str(bad)).returncode == 1


def test_wrong_mode_exit_1(tmp_path):
    inp = tmp_path / "s.json"
    write_problem(inp, "spectral", 1, 2, [])
    assert run_cli("forward", "--input", str(inp)).returncode == 1


def test_schema_validation_rejects_duplicates_and_ranges(tmp_path):
    inp = tmp_path / "p.json"
    write_problem(inp, "potential", 1, 2,
                  [potential_entry(0, 1, 0.1 + 0j), potential_entry(0, 1, 0.2 + 0j)])
    assert run_cli("forward", "--input", str(inp)).returncode == 1
    write_problem(inp, "potential", 1, 2, [potential_entry(5, 1, 0.1 + 0j)])
    assert run_cli("forward", "--input", str(inp)).returncode == 1
    write_problem(inp, "spectral", 1, 2, [{"j": 0, "n": 1, "re": 0.1, "im": 0.0}])
    assert run_cli("inverse", "--input", str(inp)).returncode == 1


@pytest.mark.parametrize("mode, key, value", [
    ("potential", "re", float("nan")),
    ("spectral", "im", float("inf")),
    ("potential", "m", 2.9),
    ("spectral", "N", 4.5),
    ("potential", "gamma", 0.5),
    ("spectral", "j", 1.5),
    ("potential", "n", 1.7),
])
def test_load_problem_rejects_non_finite_values_and_non_integral_indices(tmp_path, mode, key, value):
    index = "gamma" if mode == "potential" else "j"
    entry = {index: 1, "n": 1, "re": 0.01, "im": 0.0}
    doc = {"schema_version": "1", "mode": mode, "m": 2, "N": 4, "entries": [entry]}
    (entry if key in entry else doc)[key] = value
    inp = tmp_path / "p.json"
    # json writes the NaN and Infinity tokens that json.load reads back
    inp.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_problem(str(inp))
    # an integral float, such as 2.0, still reads as its integer
    (entry if key in entry else doc)[key] = float(round(value)) if np.isfinite(value) else 0.0
    inp.write_text(json.dumps(doc))
    load_problem(str(inp))


NUMERIC_FIELDS = [("potential", "m"), ("spectral", "N"), ("potential", "gamma"), ("spectral", "j"),
                  ("potential", "n"), ("potential", "re"), ("spectral", "im")]


def refuses_field(tmp_path, mode: str, key: str, value) -> None:
    """A problem file whose field key holds value: load_problem and the CLI refuse it, writing nothing."""
    index = "gamma" if mode == "potential" else "j"
    entry = {index: 0 if mode == "potential" else 1, "n": 1, "re": 0.01, "im": 0.0}
    doc = {"schema_version": "1", "mode": mode, "m": 2, "N": 4, "entries": [entry]}
    (entry if key in entry else doc)[key] = value
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=re.escape(repr(value))):
        load_problem(str(inp))
    out = tmp_path / "out.json"
    command = "forward" if mode == "potential" else "inverse"
    result = run_cli(command, "--input", str(inp), "--output", str(out))
    assert result.returncode == 1 and result.stderr.startswith("error: malformed")
    assert not out.exists()


@pytest.mark.parametrize("mode, key", NUMERIC_FIELDS)
def test_boolean_fields_exit_1_and_write_nothing(tmp_path, mode, key):
    # every field reads True as 1 without the check, and the file then maps cleanly
    refuses_field(tmp_path, mode, key, True)


@pytest.mark.parametrize("mode, key", NUMERIC_FIELDS)
def test_string_fields_exit_1_and_write_nothing(tmp_path, mode, key):
    # int() and float() read "1" as 1 without the check, and the file then maps cleanly
    refuses_field(tmp_path, mode, key, "1")


@pytest.mark.parametrize("mode, key, value", [
    ("potential", "entries", 5),
    ("spectral", "entries", None),
    ("potential", "m", 1e300),
    ("spectral", "N", 1e300),
])
def test_non_list_entries_and_unholdable_sizes_exit_1_and_write_nothing(tmp_path, mode, key, value):
    # a TypeError from iterating the entries, and numpy's ValueError for a table
    # past its largest dimension: the sizes are refused before anything is allocated
    refuses_field(tmp_path, mode, key, value)


def float_flags():
    """(command, flag) for every flag whose default is a float, from the parser itself."""
    from invspec.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.choices)
    return [(command, action.option_strings[0]) for command, parser in sub.choices.items()
            for action in parser._actions if isinstance(action.default, float)]


@pytest.mark.parametrize("command, flag", float_flags())
def test_non_finite_float_flags_exit_1_and_write_nothing(tmp_path, capsys, command, flag):
    from invspec import cli

    mode = "spectral" if command == "det" else "potential"
    write_problem(tmp_path / "in.json", mode, 2, 4, [])
    for value in ("nan", "inf", "-inf"):
        code = cli.main([command, "--input", str(tmp_path / "in.json"), "--output",
                         str(tmp_path / "out"), "--report", str(tmp_path / "report.json"),
                         f"{flag}={value}"])
        assert code == 1
        assert f"argument {flag}: invalid finite value: '{value}'" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["in.json"]


@pytest.mark.parametrize("command, mode, value", [
    ("forward", "potential", float("nan")),
    ("inverse", "spectral", float("inf")),
    ("verify", "potential", float("nan")),
    ("det", "spectral", float("nan")),
])
def test_non_finite_input_exits_1_and_writes_nothing(tmp_path, command, mode, value):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    entry = {"gamma" if mode == "potential" else "j": 1, "n": 1, "re": value, "im": 0.0}
    write_problem(inp, mode, 2, 4, [entry])
    args = ["--output", str(out)] if command in ("forward", "inverse") else []
    result = run_cli(command, "--input", str(inp), *args)
    assert result.returncode == 1
    assert result.stderr.startswith("error: non-finite value") and "Traceback" not in result.stderr
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("command, mode, outputs", [
    ("forward", "potential", ["--output", "s.json", "--emit-v", "v.json"]),
    ("forward", "potential", []),
    ("inverse", "spectral", ["--output", "p.json", "--report", "report.json"]),
    ("verify", "potential", ["--output", "report.json"]),
    ("det", "spectral", ["--output", "grid.csv", "--report", "verdict.json"]),
])
def test_non_finite_results_exit_2_and_write_nothing(tmp_path, command, mode, outputs):
    # finite input whose arithmetic overflows: two entries of 1e200 at (m, N) = (2, 8)
    key = "gamma" if mode == "potential" else "j"
    entries = [{key: 1, "n": 1, "re": 1e200, "im": 0.0}, {key: 2, "n": 2, "re": 1e200, "im": 0.0}]
    write_problem(tmp_path / "in.json", mode, 2, 8, entries)
    result = run_cli(command, "--input", str(tmp_path / "in.json"),
                     *[str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg for arg in outputs])
    assert result.returncode == 2
    # the one error line, with no numpy warning about the overflow before it
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "not finite" in result.stderr
    assert result.stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["in.json"]


def test_forward_maps_every_order_until_its_tables_overflow(tmp_path, capsys):
    # the recurrence's divisors are bounded in closed form (kernel.py), so forward maps m = 16;
    # at m = 100 the kernel's tables overflow, and forward exits 2 and writes nothing
    from invspec import cli

    for m, n_max, code in [(16, 6, 0), (100, 4, 2)]:
        write_problem(tmp_path / "in.json", "potential", m, n_max, [potential_entry(0, 1, 0.02 - 0.01j)])
        out = tmp_path / f"s{m}.json"
        assert cli.main(["forward", "--input", str(tmp_path / "in.json"), "--output", str(out)]) == code
        assert out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: result is not finite")


def test_verify_refuses_a_non_finite_forward_map_before_any_check(tmp_path, monkeypatch, capsys):
    from invspec import analytic, cli, fredholm, inverse

    def unreachable(*args, **kwargs):
        raise AssertionError("verify ran a check on the non-finite forward map")

    for module, name in [(inverse, "inverse_map"), (analytic, "marchenko_residual"),
                         (analytic, "jump_residual"), (analytic, "shift_spectral"),
                         (analytic, "ode_mode_residual"), (fredholm, "scan_halfplane"),
                         (analytic, "q0_from_kernel")]:
        monkeypatch.setattr(module, name, unreachable)
    entries = [potential_entry(1, 1, 1e200), potential_entry(2, 2, 1e200)]
    write_problem(tmp_path / "in.json", "potential", 2, 8, entries)
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--input", str(tmp_path / "in.json"), "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err == "error: the forward map's V table or spectral data is not finite\n"
    assert not report.exists()


def test_q0_trace_checks_every_mode_of_the_kernel_trace(tmp_path, monkeypatch):
    # one perturbed entry of column 2, V[j=1, n=1, alpha=2], moves mode 2 of the trace
    # and leaves mode 1, the only mode the check once compared, as it was
    from invspec import VTable, analytic, cli

    entries = [potential_entry(0, 1, 0.02 - 0.01j), potential_entry(2, 2, 0.005j)]
    write_problem(tmp_path / "in.json", "potential", 2, 6, entries)
    p = load_problem(str(tmp_path / "in.json"))
    real_forward = cli.forward_map
    v, s = real_forward(p)
    table = np.array(v.table)
    table[0, 0, 1] += 1e-3
    bad = VTable(v.order, v.n_max, table)
    monkeypatch.setattr(cli, "forward_map", lambda q: (bad, s) if q is p else real_forward(q))
    target = cli.q_from_p(p)[2]
    assert abs(analytic.q0_from_kernel(bad)[1] - target[0]) <= 1e-7
    args = cli.build_parser().parse_args(["verify", "--input", str(tmp_path / "in.json")])
    q0 = next(c for c in cli._verify_checks(p, args) if c["name"] == "q0_trace")
    assert not q0["pass"] and q0["value"] > 1e-4
    monkeypatch.setattr(cli, "forward_map", real_forward)
    q0 = next(c for c in cli._verify_checks(p, args) if c["name"] == "q0_trace")
    assert q0["pass"] and q0["value"] <= 1e-15


def test_inverse_refuses_a_bad_am_cap_before_writing(tmp_path):
    # --am-cap is retired: a_m has a closed form.  Like any usage error it is malformed input
    inp = tmp_path / "s.json"
    write_problem(inp, "spectral", 2, 4, [{"j": 1, "n": 1, "re": 0.01, "im": 0.0}])
    result = run_cli("inverse", "--input", str(inp), "--output", str(tmp_path / "p.json"),
                     "--report", str(tmp_path / "report.json"), "--am-cap", "0")
    assert result.returncode == 1
    assert "unrecognized arguments: --am-cap 0" in result.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("args, message", [
    (["forward", "--output", "{}/out.json"], "the following arguments are required: --input"),
    (["transform", "--input", "{}/s.json"], "invalid choice: 'transform'"),
    (["det", "--input", "{}/s.json", "--output", "{}/grid.csv", "--re-steps", "x"], "invalid int value: 'x'"),
])
def test_usage_errors_exit_1_and_write_nothing(tmp_path, args, message):
    # argparse's own code for a usage error is 2, which the contract keeps for degenerate arithmetic
    write_problem(tmp_path / "s.json", "spectral", 2, 4, [{"j": 1, "n": 1, "re": 0.01, "im": 0.0}])
    result = run_cli(*(arg.format(tmp_path) for arg in args))
    assert result.returncode == 1
    assert result.stderr.startswith("usage: invspec") and message in result.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["s.json"]
    assert run_cli("det", "--help").returncode == 0


EXIT_CODES = {InvspecError: 1, InputError: 1, DegenerateDenominatorError: 2, NonFiniteResultError: 2,
              ConvergenceError: 3, VerificationError: 4}
ERROR_CLASSES = [obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)]


def test_every_error_class_has_an_exit_code():
    assert set(ERROR_CLASSES) == set(EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_contract_mapping(cls):
    assert exit_code_for(cls("x")) == EXIT_CODES[cls]


def test_an_error_outside_the_contract_is_raised_again():
    with pytest.raises(KeyError):
        exit_code_for(KeyError("unmapped"))


def test_python_dash_m_invspec_runs_the_cli():
    result = subprocess.run([sys.executable, "-m", "invspec", "--help"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: invspec")


def test_outputs_are_deterministic(tmp_path):
    inp = tmp_path / "p.json"
    entries = [potential_entry(0, 1, 0.03 + 0.01j), potential_entry(0, 2, -0.004j)]
    write_problem(inp, "potential", 1, 4, entries)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("forward", "--input", str(inp), "--output", str(out1)).returncode == 0
    assert run_cli("forward", "--input", str(inp), "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_round_trip_is_lossless(tmp_path):
    values = [0.1 + 0.2j, -1.0 / 3.0 + 1e-17j, 0.05 * 2.0 ** -7 - 0.123456789012345678j]
    inp = tmp_path / "p.json"
    write_problem(inp, "potential", 1, 3,
                  [potential_entry(0, n, v) for n, v in enumerate(values, start=1)])
    p = load_problem(str(inp))
    from invspec.cli import _problem_doc
    doc = _problem_doc(p)
    (tmp_path / "round.json").write_text(json.dumps(doc))
    p2 = load_problem(str(tmp_path / "round.json"))
    assert np.array_equal(p.coeffs, p2.coeffs)

"""Self-test of the benchmark, kept out of the package's test suite because it spawns runs.

    python3 -m pytest bench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def test_benchmark_json_schema():
    doc = spec.BENCHMARK
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert "setup_s" in spec.END_TO_END
    assert {name.split(".")[0] for name in spec.PER_LAYER} == set(spec.LAYER_NOTES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_back_transform_is_a_failure(tmp_path, monkeypatch):
    wl = worker.RoundTrip((3, 0), spec.WORKLOADS["roundtrip"]["tiny"], tmp_path)
    honest = wl.iv.inverse_map

    def perturbed(s):
        p = honest(s)
        return dataclasses.replace(p, coeffs=p.coeffs * (1 + 1e-6))

    monkeypatch.setattr(wl.iv, "inverse_map", perturbed)
    result = worker.timed_result(wl, 0.0, 0)
    assert all(s["gates"] == ["round_trip"] for s in result["samples"])
    assert run.verdict(result["samples"]) == (len(result["samples"]), 0)


def test_exception_is_incorrect(tmp_path, monkeypatch):
    wl = worker.RoundTrip((3, 0), spec.WORKLOADS["roundtrip"]["tiny"], tmp_path)

    def broken(s):
        raise ValueError("broken inverse map")

    monkeypatch.setattr(wl.iv, "inverse_map", broken)
    result = worker.timed_result(wl, 0.0, 0)
    assert all(s["gates"] == ["exception:ValueError"] for s in result["samples"])
    assert run.verdict(result["samples"]) == (len(result["samples"]), 0)


@pytest.mark.parametrize("gates, wrong", [
    ([], False),
    (checks.KNOWN_FALSE_FAILURE, False),
    (["verify.exit=4", "verify.all_pass:marchenko_residual"], True),
    (["verify.exit=4", "verify.all_pass:ode_residual_halving,marchenko_residual"], True),
    (["verify.exit=4", "verify.output"], True),
    (["verify.all_pass:ode_residual_halving"], True),
    (["forward.exit=2", "inverse.exit=1", *checks.KNOWN_FALSE_FAILURE], True),
    (["inverse.exit=2"], True),
])
def test_only_the_known_false_failure_is_tallied_apart(gates, wrong):
    assert checks.is_wrong(list(gates)) is wrong
    known = list(gates) == checks.KNOWN_FALSE_FAILURE
    assert run.verdict([{"gates": list(gates)}]) == (int(wrong), int(known))


def test_missing_site_is_reported_absent():
    tracer = Tracer()
    tracer.install([("invspec.linalg", "no_such_function", "linalg.gone"),
                    ("invspec.no_such_module", "f", "gone.f")])
    tracer.uninstall()
    assert tracer.absent == ["invspec.linalg.no_such_function", "invspec.no_such_module.f"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""

"""Load on demand: `import invspec` and each CLI subcommand import only what they run.

Every check runs in a fresh interpreter, since this test process has long
since imported the whole package.
"""
import json
import subprocess
import sys
import textwrap

import pytest

SUBMODULES = ("analytic", "cli", "core", "errors", "fredholm", "inverse", "kernel")


def run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it prints one JSON document as its last line."""
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_neither_numpy_nor_a_submodule():
    out = run_fresh("""
        import json, sys
        import invspec
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith(("numpy.", "invspec.")))))
    """)
    assert out == []


def test_every_export_resolves_to_its_home_object():
    out = run_fresh("""
        import importlib, json, sys
        import invspec
        before = "numpy" in sys.modules
        names = list(invspec.__all__)
        wrong = [n for n in names
                 if getattr(invspec, n) is not getattr(
                     importlib.import_module(getattr(invspec, n).__module__), n)]
        cached = all(n in vars(invspec) for n in names)
        star = {}
        exec("from invspec import *", star)
        print(json.dumps({"before": before, "names": names, "wrong": wrong, "cached": cached,
                          "star": sorted(k for k in star if k != "__builtins__"),
                          "dir": dir(invspec),
                          "homes": sorted({getattr(invspec, n).__module__ for n in names})}))
    """)
    assert out["before"] is False
    assert len(out["names"]) == 22
    assert out["wrong"] == []
    assert out["cached"] is True
    assert out["star"] == sorted(out["names"])
    assert set(out["names"]) <= set(out["dir"])
    assert out["homes"] == ["invspec.analytic", "invspec.core", "invspec.fredholm",
                            "invspec.inverse", "invspec.kernel"]


def test_analytic_loads_no_kernel():
    # analytic reads the potential's rescaling from core, not the maps' kernel
    out = run_fresh("""
        import json, sys
        import invspec.analytic
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("invspec."))))
    """)
    assert "invspec.kernel" not in out
    assert "invspec.analytic" in out


def test_unknown_name_raises_attribute_error():
    import invspec

    with pytest.raises(AttributeError, match="no_such_name"):
        invspec.no_such_name
    with pytest.raises(ImportError):
        exec("from invspec import no_such_name", {})
    # submodules still import by name
    from invspec import fredholm

    assert fredholm.scan_halfplane is invspec.scan_halfplane


def _problem(mode: str, key: str, index: int) -> dict:
    return {"schema_version": "1", "mode": mode, "m": 1, "N": 6,
            "entries": [{key: index, "n": n, "re": 0.05 * 2.0 ** -n, "im": 0.0}
                        for n in range(1, 7)]}


def _cli_modules(tmp_path, doc: dict, command: str, *extra: str) -> dict:
    """Exit code and loaded invspec submodules of one fresh `invspec.cli.main` run."""
    problem = tmp_path / "in.json"
    problem.write_text(json.dumps(doc))
    argv = [command, "--input", str(problem), "--output", str(tmp_path / "out.json"), *extra]
    return run_fresh(f"""
        import json, sys
        import invspec.cli
        code = invspec.cli.main({argv!r})
        print(json.dumps({{"code": code, "loaded": sorted(
            m.split(".")[1] for m in sys.modules if m.startswith("invspec."))}}))
    """)


def test_forward_loads_neither_inverse_nor_analytic_nor_fredholm(tmp_path):
    out = _cli_modules(tmp_path, _problem("potential", "gamma", 0), "forward")
    assert out["code"] == 0
    assert not {"analytic", "fredholm", "inverse"} & set(out["loaded"])


def test_inverse_loads_neither_analytic_nor_fredholm(tmp_path):
    out = _cli_modules(tmp_path, _problem("spectral", "j", 1), "inverse",
                       "--report", str(tmp_path / "report.json"))
    assert out["code"] == 0
    assert "inverse" in out["loaded"]
    assert not {"analytic", "fredholm"} & set(out["loaded"])


def test_verify_loads_every_module_it_checks_with(tmp_path):
    out = _cli_modules(tmp_path, _problem("potential", "gamma", 0), "verify")
    assert out["code"] == 0
    assert {"analytic", "fredholm", "inverse"} <= set(out["loaded"])
    assert set(out["loaded"]) <= set(SUBMODULES)

"""One benchmark process: set a workload up, print "ready", run it and print its result.

run.py starts this file in fresh interpreters.  After "ready" the process runs
whole passes until BUDGET seconds have gone (at least one; none for a budget
of 0), then with --trace 1 as many traced passes, and prints one JSON line
with every sample.

Usage: worker.py WORKLOAD SEED DRAW BUDGET TRACE WORK_DIR [--tiny]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import spec
from spans import Tracer, layer_metrics, merge

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    """One problem: its latency, the gates it failed, and what the checks measured.

    Every failed gate, an exception or an unexpected exit code included, makes
    the output wrong except the known verify false failure (checks.is_wrong).
    """

    latency: float
    gates: list[str] = field(default_factory=list)
    round_trip_err: float | None = None
    marchenko: float | None = None


def _failure(t0: float, exc: Exception) -> Sample:
    return Sample(perf_counter() - t0, [f"exception:{type(exc).__name__}"])


class RoundTrip:
    """forward_map then inverse_map per potential, in this process with warm caches."""

    def __init__(self, key: tuple[int, int], sizes, work: Path):
        t0 = perf_counter()
        import invspec as iv
        self.import_s = perf_counter() - t0
        self.iv = iv
        self.tracer: Tracer | None = None
        self.problems = [
            iv.PotentialCoefficients(iv.Order(m), n, inputs.potential_table(
                m, n, inputs.rng_for(key, "roundtrip", k)))
            for k, (m, n) in enumerate(sizes)]
        self.pairs = {}

    def begin_trace(self) -> None:
        self.tracer = Tracer()
        self.tracer.install()

    def end_trace(self) -> tuple[dict, float]:
        self.tracer.uninstall()
        return self.tracer.dump(), self.import_s

    def warm_up(self) -> None:
        # one pass of forward maps: the inverse map reads the same d-coefficient
        # caches, so this warms everything a round trip uses at half the cost
        for p in self.problems:
            self.iv.forward_map(p)

    def run(self, p) -> Sample:
        t0 = perf_counter()
        try:
            v, s = self.iv.forward_map(p)
            back = self.iv.inverse_map(s)
        except Exception as exc:  # noqa: BLE001 - a failed problem is a measurement
            return _failure(t0, exc)
        latency = perf_counter() - t0
        err = checks.relative_error(back.coeffs, p.coeffs)
        self.pairs[p.n_max, p.order.m] = (v, s)
        bad = not err <= checks.ROUND_TRIP_RTOL
        return Sample(latency, ["round_trip"] if bad else [], err)

    def accuracy(self, samples) -> tuple[float, float]:
        errs = [s.round_trip_err for s in samples if s.round_trip_err is not None]
        march = [max(abs(self.iv.marchenko_residual(v, s, t, u)) for t, u in checks.MARCHENKO_PAIRS)
                 for v, s in self.pairs.values()]
        return max(errs, default=1.0), max(march, default=1.0)


class CliCold:
    """forward, inverse --report and verify per potential file, each in a fresh process."""

    def __init__(self, key: tuple[int, int], sizes, work: Path):
        self.work = work
        self.problems = []
        for k, (m, n) in enumerate(sizes):
            path = work / f"potential{k}.json"
            inputs.write_problem(path, m,
                                 inputs.potential_table(m, n, inputs.rng_for(key, "cli_cold", k)))
            self.problems.append(path)
        self.dumps: list[dict] | None = None

    def warm_up(self) -> None:
        # a fresh import, which also leaves the bytecode cache the timed processes use
        subprocess.run([sys.executable, "-c", "import invspec"], check=True)

    def begin_trace(self) -> None:
        self.dumps = []

    def end_trace(self) -> tuple[dict, float]:
        dumps, self.dumps = self.dumps, None
        return merge(dumps), statistics.median(d["import_s"] for d in dumps)

    def _invspec(self, *args: str) -> int:
        if self.dumps is None:
            cmd = [sys.executable, "-m", "invspec", *args]
        else:
            spans = self.work / "spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        if self.dumps is not None:
            with open(spans) as fh:
                self.dumps.append(json.load(fh))
        return code

    def run(self, path: Path) -> Sample:
        out = {name: self.work / f"{name}.json" for name in ("spectral", "back", "report", "card")}
        for p in out.values():
            p.unlink(missing_ok=True)
        t0 = perf_counter()
        codes = {
            "forward": self._invspec("forward", "--input", str(path), "--output", str(out["spectral"])),
            "inverse": self._invspec("inverse", "--input", str(out["spectral"]),
                                     "--output", str(out["back"]), "--report", str(out["report"])),
            "verify": self._invspec("verify", "--input", str(path), "--report", str(out["card"])),
        }
        sample = Sample(perf_counter() - t0)
        sample.gates = [f"{cmd}.exit={code}" for cmd, code in codes.items() if code != 0]
        if codes["inverse"] == 0:
            try:
                sample.round_trip_err = checks.relative_error(
                    inputs.read_problem(out["back"]), inputs.read_problem(path))
                with open(out["report"]) as fh:
                    if not {"a_m", "first_moment", "contraction"} <= json.load(fh).keys():
                        raise KeyError("condition report")
            except (OSError, ValueError, KeyError, IndexError):
                sample.gates.append("inverse.output")
            else:
                if not sample.round_trip_err <= checks.ROUND_TRIP_RTOL:
                    sample.gates.append("round_trip")
        try:
            with open(out["card"]) as fh:
                card = json.load(fh)
            sample.marchenko = next(c["value"] for c in card["checks"]
                                    if c["name"] == "marchenko_residual")
            if not card["all_pass"]:
                sample.gates.append("verify.all_pass:" + ",".join(card["failed"]))
        except (OSError, ValueError, KeyError, StopIteration):
            sample.gates.append("verify.output")
        return sample

    def accuracy(self, samples) -> tuple[float, float]:
        errs = [s.round_trip_err for s in samples if s.round_trip_err is not None]
        march = [s.marchenko for s in samples if s.marchenko is not None]
        return max(errs, default=1.0), max(march, default=1.0)


WORKLOADS = {"roundtrip": RoundTrip, "cli_cold": CliCold}


def measure(wl, seconds: float, passes: int | None = None):
    """Whole passes: until `seconds` have gone (at least one), or exactly `passes`.

    Returns the samples, the pass count and the timed wall time with the
    benchmark's own checks taken out.
    """
    samples, done, checking = [], 0, 0.0
    t0 = perf_counter()
    while done < passes if passes else (done == 0 or perf_counter() - t0 < seconds):
        for problem in wl.problems:
            t = perf_counter()
            sample = wl.run(problem)
            checking += perf_counter() - t - sample.latency
            samples.append(sample)
        done += 1
    return samples, done, perf_counter() - t0 - checking


def environment() -> dict:
    import invspec
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"invspec": invspec.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def timed_result(wl, budget: float, trace: int) -> dict:
    """Run the timed passes (and with trace the traced ones); what run.py pools."""
    samples, passes, wall = measure(wl, budget)
    result = {"passes": passes, "timed_s": wall}
    if trace:
        wl.begin_trace()
        traced, _, traced_wall = measure(wl, budget, passes)
        dump, import_s = wl.end_trace()
        result["metrics"] = layer_metrics(dump, passes, {
            "cli.import_s": import_s,
            "trace.overhead_frac": traced_wall / wall - 1.0,
        })
        result.update(absent_sites=dump["absent"], spans=dump["edges"])
        samples += traced
    else:
        round_trip_err, march = wl.accuracy(samples)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if isinstance(wl, CliCold)
                                   else resource.RUSAGE_SELF)
        result.update(round_trip_err=round_trip_err, marchenko_residual=march,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
    result.update(samples=[asdict(s) for s in samples], environment=environment())
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("draw", type=int)
    ap.add_argument("budget", type=float, help="seconds of timed passes to start; 0: set up only")
    ap.add_argument("trace", type=int, choices=(0, 1))
    ap.add_argument("work", type=Path)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sizes = spec.WORKLOADS[args.workload]["tiny" if args.tiny else "sizes"]
    wl = WORKLOADS[args.workload]((args.seed, args.draw), sizes, args.work)
    wl.warm_up()
    print("ready", flush=True)
    if args.budget <= 0:
        return 0

    print(json.dumps(timed_result(wl, args.budget, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

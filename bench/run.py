"""Layered benchmark of invspec: one workload per run, every output checked.

    python3 bench/run.py --workload {roundtrip,cli_cold} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from anywhere inside a checkout; the program is taken from its src/.
With --trace 0 the last stdout line is {"correct", "attempted", "failed",
"metrics"} with every end-to-end metric of BENCHMARK.json; with --trace 1 the
metrics are its per-layer ones.  The line before it holds the details:
environment stamp, tail percentile, failed gates (the known verify false
failure included) and the count of that false failure.

A run starts the workload's "setups" worker processes one after another (one
with --trace 1).  Each sets the workload up (interpreter start, imports, input
generation, warm-up) and is timed from spawn to its "ready" line; setup_s is
the median.  Then each runs whole timed passes for its share of --seconds, and
the samples of all workers are pooled.  --tiny swaps in the small sizes of
spec.WORKLOADS, for the self-test.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import spec

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170.0   # a run must end within 180 s


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """The program from this checkout's src/, and BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(min(int(env.get(var, nproc)), nproc))
        except ValueError:
            env[var] = str(nproc)
    return env


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, args, draw: int, budget: float, work: Path, env: dict, deadline: float):
        work.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), args.workload,
               str(args.seed), str(draw), str(budget), str(args.trace), str(work)]
        if args.tiny:
            cmd.append("--tiny")
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - t0, 1.0), self.proc.kill)
        self.timer.start()
        self.ready = self.proc.stdout.readline().strip() == "ready"
        self.setup_s = perf_counter() - t0

    def finish(self) -> tuple[int, str]:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        return code, out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the latency tail.

    The highest percentile with at least 10 samples beyond it; below 100
    samples that percentile is not a tail, so the maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def verdict(samples: list[dict]) -> tuple[int, int]:
    """(failed, known): problems that failed a gate, and problems whose only
    failure is the known verify false failure, which are not failed problems."""
    return (sum(1 for s in samples if checks.is_wrong(s["gates"])),
            sum(1 for s in samples if s["gates"] == checks.KNOWN_FALSE_FAILURE))


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Pool the samples of the workers that ran passes into the end-to-end metrics.

    setup_s is added by the caller.  Returns (metrics, details).
    """
    samples = [s for r in results for s in r["samples"]]
    latencies = [s["latency"] for s in samples]
    round_trip_err = max(r["round_trip_err"] for r in results)
    march = max(r["marchenko_residual"] for r in results)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "problems_per_s": len(samples) / sum(r["timed_s"] for r in results),
        # the lower median is a latency some problem had; the mean of the two
        # middle samples of a mixed-size pass falls between two sizes
        "latency_p50_s": statistics.median_low(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "round_trip_digits": checks.digits(round_trip_err),
        "marchenko_digits": checks.digits(march, checks.TINY),
    }
    return metrics, {"latencies_s": latencies, "tail_percentile": tail_pct,
                     "tail_beyond": beyond, "round_trip_err": round_trip_err,
                     "marchenko_residual": march}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "invspec" / "__init__.py").is_file():
        print(f"bench: no invspec package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    env = worker_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workers = 1 if args.trace else spec.WORKLOADS[args.workload]["setups"]
    # a traced run repeats its untraced passes with the trace on, so it spends
    # half of --seconds on each
    remaining = args.seconds / 2 if args.trace else args.seconds
    setups, results, worker = [], [], None
    try:
        for i in range(workers):
            # each worker gets its share of the timed seconds still left, so the
            # timed passes spread over the run instead of sitting in one window;
            # none once less than half a pass is left
            budget = remaining / (workers - i)
            if results and remaining < 0.5 * results[-1]["timed_s"] / results[-1]["passes"]:
                budget = 0.0
            worker = Worker(args, i, budget, work / str(i), env, deadline)
            setups.append(worker.setup_s)
            ready = worker.ready
            code, out = worker.finish()
            worker = None
            if code != 0 or not ready:
                print(f"bench: worker {i} failed (exit {code})", file=sys.stderr)
                return 1
            if budget > 0:
                results.append(json.loads(out.strip().splitlines()[-1]))
                remaining -= results[-1]["timed_s"]
    finally:
        if worker is not None:
            worker.proc.kill()
            worker.finish()
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for r in results for s in r["samples"]]
    detail = {"workload": args.workload, "seed": args.seed,
              "passes": sum(r["passes"] for r in results), "samples": len(samples),
              "timed_s": sum(r["timed_s"] for r in results)}
    if args.trace:
        values = results[0]["metrics"]
        detail.update(absent_sites=results[0]["absent_sites"], spans=results[0]["spans"])
    else:
        values, more = end_to_end(results)
        values["setup_s"] = statistics.median(setups)
        detail.update(more, setups_s=setups)
    gates: dict[str, int] = {}
    for s in samples:
        for g in s["gates"]:
            gates[g] = gates.get(g, 0) + 1
    detail.update(failed_gates=gates,
                  environment=dict(results[-1]["environment"], git_commit=git_commit()))
    units = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed, known = verdict(samples)
    detail["known_false_failures"] = known
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""What the benchmark measures, beyond what BENCHMARK.json says.

BENCHMARK.json at the repository root is the one list of the workloads and
metrics with their units, directions and bounds; it is read here.  This module
adds what the JSON does not hold: each workload's problem sizes, the tiny
sizes of the self-test and the number of set-ups, and for each layer the
end-to-end metric it should move and where it should move nothing.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}   # name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}     # name -> unit

# Each workload is a closed loop with one caller: the next problem starts when
# the previous one has finished.  A pass runs every problem of the workload
# once; a run makes whole passes only, at least one, so every run sees the
# same mix.  "setups" fresh worker processes set the workload up
# one after another; the timed passes are shared out among them, and setup_s
# is the median of their set-up times.  A cli_cold set-up is a fraction of a
# second and its time spreads widely from process to process, so it takes more
# of them than roundtrip, whose set-up includes a warm-up pass of about 3 s.
#
# The determinant scan (`invspec det` over spectral files) is not a workload:
# its 20 s passes left a run two passes, and a third workload left no room in
# the benchmark's time budget for runs long enough to average out the speed
# drift of a shared 2-core guest.  fredholm and linalg are still measured,
# through verify on cli_cold.
WORKLOADS = {
    "roundtrip": {
        "sizes": ((1, 64), (2, 32), (2, 64), (3, 32)),
        "tiny": ((1, 4), (2, 4)),
        "setups": 3,
    },
    "cli_cold": {
        "sizes": ((1, 8), (2, 8), (2, 16), (2, 24), (3, 12)),
        "tiny": ((1, 4), (2, 4)),
        "setups": 9,
    },
}

# The end-to-end metrics, all reported on every workload (units, directions
# and bounds are in BENCHMARK.json):
#   problems_per_s     problems completed per second of timed run (whole
#                      passes, the benchmark's own checks excluded)
#   latency_p50_s      the lower median wall time per problem
#   latency_tail_s     highest percentile with at least 10 samples beyond it;
#                      the maximum when a run has fewer than 100 samples, as
#                      every run has today (percentile and count are in the
#                      detail line).  The median of the slowest problem was
#                      tried in its place: over two ten-seed sets its spread
#                      reached 0.26 where the maximum's stayed below 0.14
#   setup_s            median of the fresh-process set-ups: interpreter,
#                      imports, input generation, warm-up
#   peak_rss_mb        peak resident memory of the benchmark process
#                      (cli_cold: of the largest CLI child)
#   round_trip_digits  -log10 of the worst relative round-trip error, capped at
#                      machine precision
#   marchenko_digits   -log10 of the worst Marchenko residual on the
#                      workload's (V, S) pairs (cli_cold: from the verify
#                      scorecards)
# On a 2-core KVM guest (Xeon, Python 3.11, numpy 2.4) the same round trip took
# anywhere from 2.8 s to 5.5 s a few minutes apart, and even a pure-Python loop
# ran 50 % slower in some 5 s windows than in others, so the timing bounds sit
# at the 0.25 ceiling and runs are as long as the time budget allows.

# layer -> (the end-to-end metric and workload its metrics should move, where
# they should move nothing).  A per-layer metric is named "<layer>.<...>";
# its counts and times are per pass of the workload's problems, taken from a
# separate traced run.
LAYER_NOTES = {
    "polyalg": ("problems_per_s on roundtrip; latency_p50_s on cli_cold", "none"),
    "forward": ("problems_per_s on roundtrip; latency_p50_s on cli_cold", "none"),
    "inverse": ("problems_per_s on roundtrip", "none"),
    "core": ("latency_p50_s on cli_cold", "roundtrip"),
    "linalg": ("latency_p50_s on cli_cold", "roundtrip (only tiny solves there)"),
    # fredholm runs in verify's zero scan only
    "fredholm": ("latency_p50_s on cli_cold", "roundtrip"),
    "analytic": ("latency_p50_s on cli_cold", "roundtrip"),
    # cli.import_s: `import invspec` in a fresh interpreter with numpy loaded
    "cli": ("latency_p50_s on cli_cold", "roundtrip"),
    "trace": ("none (cost of the trace itself)", "all"),
}

"""Correctness gates: tolerances, the known false failure and the error measures."""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
ROUND_TRIP_RTOL = 1e-10   # gross-error gate; the digits metric tracks precision
# (t, u) pairs at which the benchmark evaluates the Marchenko residual itself
MARCHENKO_PAIRS = ((0.0, 0.5), (0.7, 1.2), (1.5, 3.0))
# The gates of the known `verify` false failure at the rounding floor: exit 4
# with a readable scorecard whose only failed check is ode_residual_halving.
# The outputs are right: the check fires because the ODE residual already sits
# at the rounding floor and cannot halve, so a more accurate program trips it
# more often.  It is not a failed problem; runs tally it apart, in the detail
# line's known_false_failures.
KNOWN_FALSE_FAILURE = ["verify.exit=4", "verify.all_pass:ode_residual_halving"]


def is_wrong(gates: list[str]) -> bool:
    """A problem failed if it failed any gate, unless it failed only the known one."""
    return bool(gates) and gates != KNOWN_FALSE_FAILURE


def digits(err: float, floor: float = EPS) -> float:
    """-log10 of an error, capped where the error reaches the floor."""
    return float(-np.log10(max(float(err), floor)))


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())

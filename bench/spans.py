"""Outside-in layer trace: wrap the program's public functions where callers look them up.

A wrapper records a span per call: its name, duration and the enclosing span.
A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated in memory by (parent, name), since the hot leaves run
hundreds of thousands of times per pass, and written out when the run ends.
The program's source is not touched: each site is a module attribute that is
replaced for the traced phase and restored afterwards.  A site that no longer
exists is reported as absent, so deleting a function never breaks the run.
"""
from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

import spec

# (module, attribute, span name).  The module is where the caller looks the
# name up: cli imported forward_map by name, so its site is invspec.cli.
SITES = (
    ("invspec", "forward_map", "forward.forward_map"),
    ("invspec.cli", "forward_map", "forward.forward_map"),
    ("invspec", "inverse_map", "inverse.inverse_map"),
    ("invspec.inverse", "inverse_map", "inverse.inverse_map"),
    ("invspec.inverse", "v_from_s", "inverse.v_from_s"),
    ("invspec.inverse", "p_from_v", "inverse.p_from_v"),
    ("invspec.inverse", "first_moment", "inverse.first_moment"),
    ("invspec.inverse", "contraction_conditions", "inverse.contraction_conditions"),
    ("invspec.forward", "d_coeffs_a", "polyalg.d_coeffs_a"),
    ("invspec.forward", "d_coeffs_b", "polyalg.d_coeffs_b"),
    ("invspec.inverse", "d_coeffs_a", "polyalg.d_coeffs_a"),
    ("invspec.inverse", "d_coeffs_b", "polyalg.d_coeffs_b"),
    ("invspec.cli", "a_m_constant", "core.a_m_constant"),
    ("invspec.linalg", "lu_det", "linalg.lu_det"),
    ("invspec.linalg", "lu_solve", "linalg.lu_solve"),
    ("invspec.linalg", "pivot_ratio", "linalg.pivot_ratio"),
    ("invspec.fredholm", "scan_halfplane", "fredholm.scan_halfplane"),
    ("invspec.analytic", "marchenko_residual", "analytic.marchenko_residual"),
    ("invspec.analytic", "jump_relation_check", "analytic.jump_relation_check"),
    ("invspec.analytic", "ode_residual", "analytic.ode_residual"),
    ("invspec.analytic", "shift_spectral", "analytic.shift_spectral"),
    ("invspec.analytic", "q0_from_kernel", "analytic.q0_from_kernel"),
    ("invspec.cli", "main", "cli.main"),
)


class Tracer:
    """Span recorder for one process; install() patches the sites, uninstall() restores them."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list[float]] = {}  # -> [calls, seconds, child seconds]
        self.max_side = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self._undo: list[tuple] = []

    def install(self, sites=SITES) -> None:
        for module_name, attr, name in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str):
        stack, edges = self._stack, self.edges
        sided = name.startswith("linalg.")

        def span(*args, **kwargs):
            if sided and args:
                self.max_side = max(self.max_side, int(np.shape(args[0])[0]))
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = edges.setdefault((parent[0] if parent else "", name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]

        span.__wrapped__ = fn
        return span

    def dump(self) -> dict:
        return {"edges": [[p, n, *v] for (p, n), v in self.edges.items()],
                "max_side": self.max_side, "absent": self.absent}


def merge(dumps) -> dict:
    """Combine Tracer.dump() records from several processes."""
    edges: dict[tuple[str, str], list[float]] = {}
    max_side, absent = 0, set()
    for d in dumps:
        for parent, name, calls, seconds, child in d["edges"]:
            rec = edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += seconds
            rec[2] += child
        max_side = max(max_side, d["max_side"])
        absent.update(d["absent"])
    return {"edges": [[p, n, *v] for (p, n), v in edges.items()],
            "max_side": max_side, "absent": sorted(absent)}


def layer_metrics(dump: dict, passes: int, measured: dict[str, float]) -> dict[str, float]:
    """Every metric of spec.PER_LAYER, per pass, from a merged trace.

    "<site>.calls" and "<site>.self_s" sum over the spans named <site> or, for a
    bare layer name, over all of the layer's spans.  The other metrics are
    measured elsewhere and passed in `measured`.
    """
    totals = {"calls": {}, "self_s": {}}
    for _parent, name, calls, seconds, child in dump["edges"]:
        totals["calls"][name] = totals["calls"].get(name, 0) + calls
        totals["self_s"][name] = totals["self_s"].get(name, 0.0) + seconds - child
    out = dict(measured, **{"linalg.max_side": float(dump["max_side"])})
    for name in spec.PER_LAYER:
        site, _, kind = name.rpartition(".")
        if kind in totals:
            out[name] = sum(v for k, v in totals[kind].items()
                            if k == site or k.startswith(site + ".")) / passes
    return out

"""Seeded problem generation and the JSON problem-file schema.

Every table depends only on (seed, draw, workload, problem index), so a second
seed runs the same code unchanged and a run can be repeated exactly.  The
worker processes of one run take draws 0, 1, 2, ...: independent inputs of
the same family, so a run averages over several draws.  The generator
writes the documented schema "1" itself, so the program sees only the
generated files.
"""
from __future__ import annotations

import json
import zlib

import numpy as np

POTENTIAL_SCALE = 0.05


def rng_for(key: tuple[int, int], workload: str, index: int) -> np.random.Generator:
    """Generator for problem `index` of a workload; key is (seed, draw)."""
    return np.random.default_rng([*key, zlib.crc32(workload.encode()), index])


def decaying_table(rng: np.random.Generator, rows: int, n_max: int, scale: float) -> np.ndarray:
    """rows x n_max complex table with |entry| <= scale * 2^-n in column n = 1..n_max."""
    shape = (rows, n_max)
    raw = (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) / np.sqrt(2.0)
    return raw * (scale * 2.0 ** -np.arange(1, n_max + 1))[None, :]


def potential_table(m: int, n_max: int, rng: np.random.Generator) -> np.ndarray:
    """Potential coefficients p[gamma, n-1], gamma = 0..2m-2."""
    return decaying_table(rng, 2 * m - 1, n_max, POTENTIAL_SCALE)


def write_problem(path, m: int, table: np.ndarray) -> None:
    """Write a potential table p[gamma, n-1] as a schema "1" potential-mode file."""
    entries = [{"gamma": g, "n": n + 1, "re": float(z.real), "im": float(z.imag)}
               for (g, n), z in np.ndenumerate(table)]
    doc = {"schema_version": "1", "mode": "potential", "m": m, "N": table.shape[1],
           "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_problem(path) -> np.ndarray:
    """Read a potential-mode schema "1" file back into p[gamma, n-1]."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc["mode"] != "potential":
        raise ValueError(f"expected a potential-mode file, got {doc['mode']!r}")
    table = np.zeros((2 * int(doc["m"]) - 1, int(doc["N"])), dtype=complex)
    for e in doc["entries"]:
        table[e["gamma"], e["n"] - 1] = complex(e["re"], e["im"])
    return table

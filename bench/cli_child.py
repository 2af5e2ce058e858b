"""Run one `invspec` command in this fresh interpreter with the layer trace installed.

Usage: python3 cli_child.py SPANS_JSON ARG... ; ARG... are the invspec CLI
arguments.  The trace (and the time a fresh `import invspec` took) goes to
SPANS_JSON; the exit code is the command's.  numpy is loaded before the
import is timed, as it is in the in-process workloads, so cli.import_s is the
package's own import cost.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import numpy  # noqa: F401
    t0 = perf_counter()
    import invspec  # noqa: F401 - timed: a fresh interpreter's import
    import_s = perf_counter() - t0
    import invspec.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return invspec.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

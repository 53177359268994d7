"""Traced stand-in for ``python -m higgsbetti.cli`` in the cli workload.

Runs ``higgsbetti.cli.main`` on its arguments with the layer tracer
installed and writes the interpreter start-up time (from the spawn time
in ``PERFBENCH_SPAWN``), the import time and the raw layer totals to the
file named by ``PERFBENCH_STATS``.  Output and exit code are the CLI's.
"""

import time

T_FIRST = time.time()

import sys  # noqa: E402

_t = time.perf_counter()
import higgsbetti.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t

import json  # noqa: E402
import os  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    tr = tracer.Tracer().install()
    try:
        return higgsbetti.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        stats = {"raw": tr.raw(), "import_s": IMPORT_S,
                 "interp_s": T_FIRST - float(os.environ["PERFBENCH_SPAWN"])}
        with open(os.environ["PERFBENCH_STATS"], "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())

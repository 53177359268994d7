"""Record the expectations in ``data/`` from the program as it is now.

    python3 perfbench/record.py

Runs one untraced pass of every workload and stores:

* the exact digest of every tau >= 0 ``sweep`` result and every ``deep``
  output, and the exit code and output bytes (as SHA-256) of every
  ``cli`` op, in ``data/expected.json``;
* every tau < 0 ``sweep`` op whose result raises or differs from the
  result at the dual point, in ``data/known_failures.json``, marked as
  inherited.

It refuses to record if any other op fails.  The recorded data are the
reference every later run is checked against, so record only from a
program whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from fractions import Fraction

import checks
import run
import workloads


def main() -> int:
    work = run.HERE / ".work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        docs = {w: run.run_pass(w, 0, 0, work, time.monotonic() + 900)
                for w in workloads.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected: dict[str, dict] = {w: {} for w in workloads.WORKLOADS}
    known = []
    problems = []
    for w, doc in docs.items():
        ops = {op["id"]: op for op in workloads.ops(w, 0)}
        records = {r[0]: r for r in doc["records"]}
        for op_id, (_, _, status, payload) in sorted(records.items()):
            op = ops[op_id]
            if workloads.tau_negative(op):
                continue
            if status != "ok" or op["kind"] in ("verify", "load"):
                if not checks.check(op, status, payload, {}):
                    problems.append(f"{op_id}: {payload}")
                continue
            if op["kind"] == "cli" and payload["exit"] != 0:
                problems.append(f"{op_id}: exit {payload['exit']}")
            expected[w][op_id] = payload
        for op_id, (_, _, status, payload) in sorted(records.items()):
            op = ops[op_id]
            if workloads.tau_negative(op) and not checks.check(op, status, payload, expected[w]):
                outcome = (f"raises {payload}" if status != "ok" else
                           f"differs from the dual point ({-op['d1']}, {-op['d2']})")
                known.append({"id": op_id, "builder": op["builder"], "g": op["g"],
                              "d1": op["d1"], "d2": op["d2"],
                              "tau": str(Fraction(-2 * (op["d2"] - 2 * op["d1"]), 3)),
                              "order": op["order"], "seed_outcome": outcome,
                              "inherited": True})
    if problems:
        print("refusing to record; failing ops:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1
    checks.DATA.mkdir(exist_ok=True)
    (checks.DATA / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (checks.DATA / "known_failures.json").write_text(
        "[\n" + ",\n".join(json.dumps(f) for f in known) + "\n]\n")
    print(f"recorded {sum(map(len, expected.values()))} expectations and "
          f"{len(known)} inherited failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())

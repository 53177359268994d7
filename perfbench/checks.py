"""Output checks, recorded expectations and the statistics the report uses.

Expectations were recorded from the seed program by ``record.py`` and
live in ``data/``:

* ``expected.json`` maps op ids to exact digests: assembly results at
  tau >= 0 and on ``deep``, and exit code plus output bytes of ``cli``;
* ``known_failures.json`` lists the seed's tau < 0 ``sweep`` ops whose
  result differs from the dual point's (or that raise).  They are
  inherited failures: they count as failed, but only a failure outside
  this list makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import dual_id, tau_negative

DATA = Path(__file__).resolve().parent / "data"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# percentiles the tail metric may report, lowest first
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_BEYOND = 10


def text_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """Exact digest of an assembly's series and unknown coefficient blocks."""
    def coeffs(s):
        return "-" if s is None else ",".join(map(str, s.coeffs))

    parts = [f"order={result.order}", "series=" + coeffs(result.series)]
    for name in ("pairs_equivariant", "moduli_min"):
        parts.append(f"{name}=" + coeffs(result.unknown.get(name)))
    return text_digest(";".join(parts))


def load_expected() -> dict:
    return json.loads((DATA / "expected.json").read_text())


def load_known_failures() -> set[str]:
    return {f["id"] for f in json.loads((DATA / "known_failures.json").read_text())}


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def check(op: dict, status: str, payload, expected: dict) -> bool:
    """True iff one op's recorded output is correct.

    ``status`` is "ok" or "raised"; ``payload`` is what the worker
    recorded for the op (a digest, or a dict for ``verify`` and ``cli``).
    A tau < 0 assembly must equal the recorded result at its dual point.
    """
    if status != "ok":
        return False
    kind = op["kind"]
    if kind == "verify":
        return payload["exit"] == 0 and payload["passed"] and not payload["hard_failed"]
    if kind == "load":
        return payload == "loaded"
    key = op["id"]
    if tau_negative(op):
        key = dual_id(op)
    want = expected.get(key)
    return want is not None and payload == want


def nearest_rank(values: list[float], pct: float) -> float:
    """The value at rank ceil(pct/100 * n) of the sorted values."""
    s = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            best = pct
    return best


def tail(values: list[float]) -> tuple[float, str]:
    """(value, percentile label) of the tail of one pass's latencies.

    With too few samples for any ladder percentile the slowest op is
    reported, labelled p100.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        return max(values), "p100"
    return nearest_rank(values, pct), f"p{pct:g}"

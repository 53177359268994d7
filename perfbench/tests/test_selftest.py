"""Self-test of the benchmark harness; not part of the program's tests.

    python3 -m pytest -q perfbench/tests

The last three tests run the benchmark itself and take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import higgsbetti as hb  # noqa: E402

EXPECTED = checks.load_expected()["sweep"]
SPEC = checks.load_spec()


def sweep_op(builder: str, g: int, c: int) -> dict:
    return workloads.build_op(builder, g, 0, c, workloads.default_order(g))


def compute(op: dict):
    p = hb.make_params(op["g"], op["d1"], op["d2"])
    return getattr(hb, op["builder"])(p, None, op["order"])


def flipped(series, k: int):
    coeffs = list(series.coeffs)
    coeffs[k] += 1
    return hb.TruncatedSeries(tuple(coeffs))


def test_flipped_coefficient_counts_as_failed():
    op = sweep_op("u21_closed_form", 3, -2)
    result = compute(op)
    assert checks.check(op, "ok", checks.result_digest(result), EXPECTED)
    bad_series = dataclasses.replace(result, series=flipped(result.series, 7))
    assert not checks.check(op, "ok", checks.result_digest(bad_series), EXPECTED)
    name, block = next(iter(result.unknown.items()))
    bad_unknown = dataclasses.replace(
        result, unknown={**result.unknown, name: flipped(block, 0)})
    assert not checks.check(op, "ok", checks.result_digest(bad_unknown), EXPECTED)


def test_negative_tau_must_match_the_dual_point():
    op = sweep_op("u21_closed_form", 3, 2)  # tau = -4/3; dual class c = -2
    dual = compute(sweep_op("u21_closed_form", 3, -2))
    assert checks.check(op, "ok", checks.result_digest(dual), EXPECTED)
    own = compute(op)
    assert not checks.check(op, "ok", checks.result_digest(own), EXPECTED)
    assert op["id"] in checks.load_known_failures()
    assert not checks.check(op, "raised", "ParameterError: x", EXPECTED)


@pytest.mark.parametrize("n, pct", [(40, 75), (400, 95), (4000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert checks.tail_percentile(n) == pct
    # samples 1..n in reverse order: the tail value v has n - v samples beyond it
    value, label = checks.tail([float(v) for v in range(n, 0, -1)])
    assert label == f"p{pct}"
    assert n - value >= checks.TAIL_BEYOND
    higher = checks.TAIL_LADDER[checks.TAIL_LADDER.index(pct) + 1]
    assert n - checks.nearest_rank(list(range(1, n + 1)), higher) < checks.TAIL_BEYOND


def test_tail_of_too_few_samples_is_the_slowest_op():
    assert checks.tail([3.0, 1.0, 2.0]) == (3.0, "p100")


def spec_names(group: str) -> set[str]:
    return {m["name"] for m in SPEC[group]}


def test_metric_functions_cover_benchmark_json():
    passes = [{"latency": [0.5, 1.5, 0.1], "ok": [True, True, False], "run_s": 2.1,
               "failed": ["x"], "rss_mb": 20.0}] * 2
    values, _ = run.end_to_end(passes, passes, [0.1, 0.2])
    assert set(values) == spec_names("end_to_end")
    layers = tracer.layer_metrics(tracer.merge([]), [], [], 0)
    values, _ = run.per_layer(passes, [{}, {"layers": layers, "missing": []}])
    assert set(values) == spec_names("per_layer")


def test_run_ratio_is_the_median_over_blocks():
    def side(latency):
        return {"latency": latency, "ok": [True] * len(latency), "run_s": sum(latency),
                "failed": [], "rss_mb": 20.0}
    # pair ratios 0.5 and 0.7, 1.0 and 1.0 (a slow spell that slowed both
    # sides alike), 0.75 and 0.85: block means 0.6, 1.0 and 0.8
    program = [side(t) for t in ([1.0, 1.0], [0.7, 0.7], [6.0, 6.0], [6.0, 6.0],
                                 [1.0, 2.0], [1.7, 1.7])]
    reference = [side(t) for t in ([2.0, 2.0], [1.0, 1.0], [6.0, 6.0], [6.0, 6.0],
                                   [2.0, 2.0], [2.0, 2.0])]
    values, _ = run.end_to_end(program, reference, [0.1])
    assert values["run_ratio"] == pytest.approx(0.8)
    assert values["goodput_ratio"] == pytest.approx(1 / 0.8)


def printed_names(stdout: str, workload: str) -> tuple[set[str], dict]:
    lines = stdout.strip().splitlines()
    names = {line.split()[1] for line in lines[:-1]
             if line.startswith("  ") and line.split()[0] == workload}
    return names, json.loads(lines[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_appear_in_benchmark_json(trace, group):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    names, result = printed_names(proc.stdout, "verify")
    assert names == set(result["metrics"]) == spec_names(group)
    assert result["correct"] and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert metric["unit"] == {m["name"]: m["unit"] for m in SPEC[group]}[name]


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

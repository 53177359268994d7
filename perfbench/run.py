"""Benchmark of higgsbetti: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Each pass of the workload runs in a fresh interpreter with empty caches
(``worker.py``).  An untraced run measures pairs of passes: one of the
program in ``src/`` and one of the unchanged seed copy in
``reference/``, two workers that take turns op by op on one CPU, so
that the two timings of an op are taken moments apart.  Pairs come in
blocks of two, the second with the turns flipped, and the blocks take
the CPUs in turn.  Blocks repeat while another one should still end
within ``--seconds``; the first always runs whole.  The timing metrics
are ratios of the program to the reference, so that a slow spell of the
shared host, which slows both alike, cancels.  The set-up time is the
median of fresh interpreters, five before each pair, each timed from
spawn until ``import higgsbetti`` finishes.  Every op's output, on both
sides, is checked after the run against the recorded expectations
(``checks.py``).

With ``--trace 1`` the run makes two untraced and two traced passes,
alternating, and reports the per-layer metrics of the first traced one,
plus the tracing overhead.  The last line of standard output is the result object; the
lines before it name every metric with its unit and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src"
REFERENCE = HERE / "reference"
SETUP_PER_PAIR = 5
RUN_LIMIT_S = 170
PROBE = "import higgsbetti, time; print(repr(time.time()))"


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Python version, CPU model, CPU count and commit, printed with every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "commit": commit or "unknown (not a git checkout)"}


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def setup_sample(deadline: float) -> float:
    """Seconds from spawning an interpreter until ``import higgsbetti`` is done."""
    env = workloads.child_env(PROGRAM)
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"cannot import higgsbetti: {proc.stderr.strip()}")
    return float(proc.stdout) - t0


def cpu_cycle() -> list[int]:
    """The CPUs this process may use, in the order passes take them."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def pin(cpu: int | None):
    """A ``preexec_fn`` that keeps a worker and its children on one CPU."""
    if cpu is None:
        return None

    def preexec():
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
    return preexec


def run_pass(workload: str, seed: int, trace: int, work: Path, deadline: float) -> dict:
    """Run one pass of the program in a fresh worker and return what it recorded."""
    result = work / "pass.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(work),
           "--src", str(PROGRAM), "--result", str(result), "--spawn-time", repr(time.time())]
    # its own session, so that a timeout also ends the worker's children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(PROGRAM),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded the run limit") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}):\n{err}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def run_pair(workload: str, seed: int, n_ops: int, work: Path, deadline: float,
             cpu: int | None, flip: bool) -> tuple[dict, dict]:
    """One pass of the program and one of the reference, taking turns op
    by op on one CPU; return what each recorded, program first.

    The two workers start together and run each op one after the other,
    so the two timings of an op are taken moments apart.  The program
    goes first at even ops and the reference at odd ones, or the other
    way round with ``flip``.
    """
    sides = []
    try:
        for src in (PROGRAM, REFERENCE):
            sub = work / src.name
            sub.mkdir(exist_ok=True)
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", "0", "--work", str(sub),
                   "--src", str(src), "--result", str(sub / "pass.json"),
                   "--spawn-time", repr(time.time()), "--lockstep"]
            with open(sub / "stderr.txt", "w") as err:
                proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(src),
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        stderr=err, text=True, start_new_session=True,
                                        preexec_fn=pin(cpu))
            sides.append((proc, sub))
        for index in range(n_ops):
            for proc, sub in sides[::1 if (index + flip) % 2 == 0 else -1]:
                try:
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the worker has ended; readline below reports it
                ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
                if not ready:
                    raise BenchError(f"{workload} pass exceeded the run limit")
                if not proc.stdout.readline():
                    raise BenchError(f"{workload} worker under {sub.name} failed:\n"
                                     + (sub / "stderr.txt").read_text())
        docs = []
        for proc, sub in sides:
            proc.stdin.close()
            proc.wait(timeout=remaining(deadline))
            if proc.returncode != 0:
                raise BenchError(f"{workload} worker under {sub.name} failed "
                                 f"(exit {proc.returncode}):\n"
                                 + (sub / "stderr.txt").read_text())
            docs.append(json.loads((sub / "pass.json").read_text()))
        return docs[0], docs[1]
    finally:
        for proc, _ in sides:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:  # a worker that died leaves a broken pipe
                    pass


def judge(ops: list[dict], doc: dict, expected: dict) -> dict:
    """Check every op of one pass: its latencies, verdicts and failures."""
    if [r[0] for r in doc["records"]] != [op["id"] for op in ops]:
        raise BenchError("the worker did not run the workload's ops in order")
    latency = [r[1] for r in doc["records"]]
    ok = [checks.check(op, status, payload, expected)
          for op, (_, _, status, payload) in zip(ops, doc["records"])]
    return {"latency": latency, "ok": ok, "run_s": sum(latency),
            "failed": [op["id"] for op, good in zip(ops, ok) if not good],
            "rss_mb": doc["rss_kb"] / 1024}


def fastest(passes: list[dict]) -> list[float]:
    """Each op's fastest latency over the passes."""
    return [min(lat) for lat in zip(*(p["latency"] for p in passes))]


def end_to_end(passes: list[dict], ref_passes: list[dict],
               setup: list[float]) -> tuple[dict, str]:
    """Metric values of a run, and a note on how the latencies were taken.

    ``passes[i]`` and ``ref_passes[i]`` are the two passes of pair i,
    and pairs 2k and 2k+1 form a block.  The host's slow spells slow both
    passes of a pair alike, so the ratio of their run times cancels them.
    The mean of a block's two ratios cancels the order of the turns, and
    ``run_ratio`` is the median of these means over the blocks.  ``goodput_ratio`` is the share of
    ops that passed in every pass divided by ``run_ratio``: the
    program's passed ops per second over the reference's ops per second.
    The absolute figures printed beside them take each op's fastest
    latency over the passes of its side (the reasoning of ``timeit``).
    """
    med = statistics.median
    per_op = fastest(passes)
    good = [all(oks) for oks in zip(*(p["ok"] for p in passes))]
    passed = [t for t, g in zip(per_op, good) if g]
    run_s, ref_s = sum(per_op), sum(fastest(ref_passes))
    ratios = [p["run_s"] / r["run_s"] for p, r in zip(passes, ref_passes)]
    run_ratio = med(statistics.fmean(ratios[i:i + 2]) for i in range(0, len(ratios), 2))
    values = {
        "run_ratio": run_ratio,
        "goodput_ratio": len(passed) / len(per_op) / run_ratio,
        "pass_ratio": sum(sum(p["ok"]) for p in passes) / (len(per_op) * len(passes)),
        "setup_s": med(setup),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
    }
    note = (f"run_ratio is the median of {len(passes) // 2} blocks of two pairs; setup_s is the "
            f"median of {len(setup)} interpreters; not gated, fastest per op: "
            f"run_s {run_s:.4g} s (reference {ref_s:.4g} s), "
            f"ops_per_s {len(passed) / run_s:.4g}")
    if passed:
        tail, label = checks.tail(passed)
        note += (f", latency p50 {med(passed) * 1e3:.4g} ms and "
                 f"{label} {tail * 1e3:.4g} ms of {len(passed)} passed ops")
    return values, note


def per_layer(passes: list[dict], docs: list[dict]) -> tuple[dict, str]:
    """Layer metrics of the first traced pass, and the tracing overhead.

    Passes alternate untraced and traced; the overhead compares the sums
    of the fastest op latencies of each kind.
    """
    values = dict(docs[1]["layers"])
    traced = sum(fastest(passes[1::2]))
    values["trace.run_s"] = traced
    values["trace.overhead_s"] = traced - sum(fastest(passes[0::2]))
    return values, "traced pass; missing hooks: " + (", ".join(docs[1]["missing"]) or "none")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (PROGRAM / "higgsbetti" / "__init__.py").is_file():
        print(f"error: no program source under {PROGRAM}", file=sys.stderr)
        return 2
    spec = checks.load_spec()
    expected = checks.load_expected()[args.workload]
    known = checks.load_known_failures()
    ops = workloads.ops(args.workload, args.seed)
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup: list[float] = []
    docs: list[dict] = []
    ref_docs: list[dict] = []
    try:
        if args.trace:
            docs = [run_pass(args.workload, args.seed, t, work, deadline)
                    for t in (0, 1, 0, 1)]
        else:
            # Pairs come in blocks of two on one CPU, the second with the
            # turns flipped: the worker that goes second at an op runs a
            # few percent slower, and with a few long ops that does not
            # cancel within a pair.  Another block only if it should end
            # within --seconds, judged by the last one.
            start, last, cpus = time.monotonic(), 0.0, cpu_cycle()
            while not docs or time.monotonic() - start + last <= args.seconds:
                t0 = time.monotonic()
                cpu = cpus[len(docs) // 2 % len(cpus)] if cpus else None
                for flip in (False, True):
                    setup += [setup_sample(deadline) for _ in range(SETUP_PER_PAIR)]
                    doc, ref_doc = run_pair(args.workload, args.seed, len(ops), work,
                                            deadline, cpu, flip)
                    docs.append(doc)
                    ref_docs.append(ref_doc)
                last = time.monotonic() - t0
        passes = [judge(ops, doc, expected) for doc in docs]
        ref_passes = [judge(ops, doc, expected) for doc in ref_docs]
        ref_new = sorted({op_id for p in ref_passes for op_id in p["failed"]} - known)
        if ref_new:
            raise BenchError(f"the reference copy failed {len(ref_new)} ops, "
                             f"first {ref_new[0]}; its timings are no baseline")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op_id for p in passes for op_id in p["failed"]]
    new = sorted(set(failed) - known)
    attempted = len(ops) * len(passes)

    if args.trace:
        group = "per_layer"
        values, note = per_layer(passes, docs)
    else:
        group = "end_to_end"
        values, note = end_to_end(passes, ref_passes, setup)
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(values) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  python {env['python']}  cpu {env['cpu']}  "
          f"nproc {env['nproc']}  commit {env['commit']}")
    print(f"  {len(failed)} of {attempted} ops failed: "
          f"{len(failed) - len(new)} inherited tau<0 failures, {len(new)} new")
    for op_id in new[:20]:
        print(f"  new failure: {op_id}")
    for name in units:
        print(f"  {args.workload:7s} {name:44s} {values[name]:.6g} {units[name]}")
    print(f"  ({note})")
    print(json.dumps({
        "correct": not new,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

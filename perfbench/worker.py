"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  The worker imports
the package under ``--src``, runs every op of the workload once in
order, timing each op alone, and writes what it saw to ``--result`` as
JSON: per op its id, latency, status and a digest of its output.  With
``--lockstep`` it waits for a line on standard input before each op and
writes one to standard output after it, so that ``run.py`` can take
turns between two workers op by op.  Digests are taken between
ops, outside the timed regions, and results are dropped right after, so
the peak memory is the program's.
"""

import time

T_FIRST = time.time()

import sys  # noqa: E402

_t = time.perf_counter()
import higgsbetti.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120


class Pass:
    """State of one pass: the loaded provider, bytes written, child stats."""

    def __init__(self, work: Path, src: Path, traced: bool, tracer=None):
        self.work = work
        self.src = src
        self.traced = traced
        self.tracer = tracer
        self.provider = None
        self.output_bytes = 0
        self.child_raws: list[dict] = []
        self.child_interp: list[float] = []
        self.child_import: list[float] = []

    # Each prepare_* method returns a thunk that makes exactly the calls
    # into the program an op times; digest() turns its output into the
    # payload the checks compare.

    def prepare_build(self, op):
        hb = higgsbetti

        def call():
            p = hb.make_params(op["g"], op["d1"], op["d2"])
            provider = {"relative": None, "maximal": hb.MaximalCaseProvider(),
                        "file": self.provider}[op["provider"]]
            return getattr(hb, op["builder"])(p, provider, op["order"])
        return call

    def prepare_export(self, op):
        path = self.work / "deep-provider.json"

        def call():
            record = higgsbetti.bradlow.maximal_provider_record(op["g"], op["order"])
            text = json.dumps(record, sort_keys=True, indent=2) + "\n"
            path.write_text(text)
            return text
        return call

    def prepare_load(self, op):
        path = self.work / "deep-provider.json"

        def call():
            self.provider = higgsbetti.provider_from_file(path)
            return self.provider
        return call

    def prepare_verify(self, op):
        out = self.work / f"verify-{op['suite']}.json"
        argv = ["verify", "--suite", op["suite"], "--grid", workloads.VERIFY_GRID,
                "--format", "json", "--out", str(out)]
        return lambda: (higgsbetti.cli.main(argv), out)

    def prepare_cli(self, op):
        argv = [a.replace(workloads.WORK, str(self.work)) for a in op["argv"]]
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
            extra = {"PERFBENCH_STATS": str(self.work / "child-stats.json"),
                     "PERFBENCH_SPAWN": repr(time.time())}
        else:
            cmd = [sys.executable, "-m", "higgsbetti.cli", *argv]
            extra = {}
        env = workloads.child_env(self.src, extra)
        return lambda: subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)

    def digest(self, op, output):
        kind = op["kind"]
        if kind == "build":
            return checks.result_digest(output)
        if kind == "export":
            return checks.text_digest(output)
        if kind == "load":
            return "loaded" if isinstance(output, higgsbetti.BradlowProvider) else repr(output)
        if kind == "verify":
            code, path = output
            data = path.read_bytes()
            self.output_bytes += len(data)
            doc = json.loads(data)
            hard_failed = [s["name"] for s in doc["suites"] if s["hard"] and not s["passed"]]
            return {"exit": code, "passed": doc["passed"], "hard_failed": hard_failed}
        if kind == "cli":
            if self.traced:
                stats = self.work / "child-stats.json"
                child = json.loads(stats.read_text())
                stats.unlink()
                self.child_raws.append(child["raw"])
                self.child_interp.append(child["interp_s"])
                self.child_import.append(child["import_s"])
            payload = {"exit": output.returncode,
                       "stdout_sha256": checks.text_digest(output.stdout),
                       "stdout_bytes": len(output.stdout)}
            self.output_bytes += len(output.stdout)
            if op["out"]:
                data = Path(op["out"].replace(workloads.WORK, str(self.work))).read_bytes()
                payload["file_sha256"] = checks.text_digest(data)
                self.output_bytes += len(data)
            return payload
        raise ValueError(f"unknown op kind {kind!r}")

    def run(self, ops: list[dict], turns=None) -> list:
        """[id, latency_s, status, payload] for each op, run in order;
        with ``turns``, a pair of text files, one line is read from the
        first before each op and one written to the second after it."""
        records = []
        for index, op in enumerate(ops):
            if turns is not None and not turns[0].readline():
                raise SystemExit("lockstep: standard input closed early")
            if self.tracer is not None:
                self.tracer.op = index
            call = getattr(self, "prepare_" + op["kind"])(op)
            t0 = time.perf_counter()
            try:
                output = call()
            except Exception as exc:  # a failing op is recorded, not fatal
                latency = time.perf_counter() - t0
                records.append([op["id"], latency, "raised", f"{type(exc).__name__}: {exc}"])
            else:
                latency = time.perf_counter() - t0
                records.append([op["id"], latency, "ok", self.digest(op, output)])
                del output
            if turns is not None:
                print(index, file=turns[1], flush=True)
        return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True, help="directory holding the higgsbetti package")
    ap.add_argument("--lockstep", action="store_true",
                    help="take turns with another worker through stdin and stdout")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    interp_s = T_FIRST - args.spawn_time
    tracer = None
    if args.trace:
        import tracer as tracing

        if args.workload != "cli":  # cli children trace themselves
            tracer = tracing.Tracer().install()
    work = Path(args.work)
    p = Pass(work, Path(args.src), bool(args.trace), tracer)
    turns = None
    if args.lockstep:
        # the turn signals get the real standard output; anything the
        # program prints goes to standard error
        turns = (sys.stdin, os.fdopen(os.dup(1), "w"))
        os.dup2(2, 1)
    records = p.run(workloads.ops(args.workload, args.seed), turns)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    doc = {"records": records, "rss_kb": resource.getrusage(who).ru_maxrss}
    if args.trace:
        if args.workload == "cli":
            raw = tracing.merge(p.child_raws)
            interp, imports = p.child_interp, p.child_import
        else:
            raw = tracer.raw()
            interp, imports = [interp_s], [IMPORT_S]
            tracer.write_spans(work.parent / f"spans-{args.workload}.jsonl")
        doc["layers"] = tracing.layer_metrics(raw, interp, imports, p.output_bytes)
        doc["missing"] = raw["missing"]
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

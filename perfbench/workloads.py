"""Fixed input sets of the benchmark workloads.

Every workload is a list of ops, each a JSON-friendly dict with a stable
``id``.  The input set never depends on the seed; the seed only permutes
the op order of ``sweep`` and ``cli`` (and with it the order in which the
ingredient caches fill).  Truncation orders are always passed explicitly.

Ids of assembly ops read ``builder|g=G|c=C|order=N|provider``, where
``c = d2 - 2 d1`` names the tensor-shift class of the point; the
Toledo invariant is ``tau = -2c/3``.
"""

from __future__ import annotations

import os
import random

BUILDERS = (
    "u21_closed_form",
    "u21_stratum_route",
    "su21_closed_form",
    "su21_stratum_route",
    "pu21_poincare",
)

WORKLOADS = ("sweep", "deep", "verify", "cli")

SWEEP_GENERA = range(2, 11)
DEEP_GENUS = 32
DEEP_ORDERS = (280, 1120)
VERIFY_SUITES = (
    "series-laws",
    "ab-cancellation",
    "route-u21",
    "route-su21",
    "gothen",
    "maximal",
    "torelli",
    "shift-invariance",
)
VERIFY_GRID = "g=2..3"
CLI_GENERA = range(2, 9)

# cli ops that write a file name it relative to the run's work directory
WORK = "{work}"


def default_order(g: int) -> int:
    """The program's default order 8g+24, passed explicitly by every op."""
    return 8 * g + 24


def build_op(builder: str, g: int, d1: int, d2: int, order: int,
             provider: str = "relative") -> dict:
    c = d2 - 2 * d1
    return {
        "id": f"{builder}|g={g}|c={c}|order={order}|{provider}",
        "kind": "build", "builder": builder, "g": g, "d1": d1, "d2": d2,
        "order": order, "provider": provider,
    }


def dual_id(op: dict) -> str:
    """Id of the op at the dual point (-d1, -d2), i.e. class -c."""
    return build_op(op["builder"], op["g"], -op["d1"], -op["d2"],
                    op["order"], op["provider"])["id"]


def tau_negative(op: dict) -> bool:
    return op["kind"] == "build" and op["d2"] - 2 * op["d1"] > 0


def sweep_ops() -> list[dict]:
    """One point (0, c) per class c over |tau| <= 2g-2, all five builders.

    The representative (0, c) is chosen so that the dual of every
    tau < 0 point is exactly the representative of class -c.
    """
    ops = []
    for g in SWEEP_GENERA:
        for c in range(-(3 * g - 3), 3 * g - 2):
            for b in BUILDERS:
                ops.append(build_op(b, g, 0, c, default_order(g)))
    return ops


def deep_ops() -> list[dict]:
    g = DEEP_GENUS
    top = (2 * g - 2, g - 1)  # maximal Toledo invariant
    ops = []
    for order in DEEP_ORDERS:
        ops += [build_op(b, g, 0, 0, order) for b in BUILDERS]
        ops.append(build_op("u21_closed_form", g, *top, order, "maximal"))
    order = DEEP_ORDERS[-1]
    ops.append({"id": f"export|g={g}|order={order}", "kind": "export",
                "g": g, "order": order})
    ops.append({"id": f"load|g={g}|order={order}", "kind": "load"})
    ops.append(build_op("u21_closed_form", g, *top, order, "file"))
    return ops


def verify_ops() -> list[dict]:
    return [{"id": f"verify|{name}", "kind": "verify", "suite": name}
            for name in VERIFY_SUITES]


def _cli(argv: list[str], out: str | None = None) -> dict:
    return {"id": "cli|" + " ".join(argv), "kind": "cli", "argv": argv, "out": out}


def _compute(group: str, route: str, fmt: str, g: int, d1: int, d2: int,
             provider: str = "relative") -> dict:
    return _cli(["compute", "--group", group, "--route", route,
                 "--genus", str(g), "--d1", str(d1), "--d2", str(d2),
                 "--order", str(default_order(g)), "--provider", provider,
                 "--format", fmt])


def cli_units() -> list[list[dict]]:
    """Groups of cli ops; an export and the compute reading it stay together.

    ``compute`` covers the three groups, both routes and all three
    formats at g = 2..8, all at tau >= 0: csv needs an absolute result,
    so csv ops use the ``maximal`` provider at the maximal point.
    """
    combos = (("u21", "closed"), ("u21", "stratum"), ("su21", "closed"),
              ("su21", "stratum"), ("pu21", "closed"))
    units = []
    for g in CLI_GENERA:
        for k, (group, route) in enumerate(combos):
            fmt = ("text", "json", "csv")[(g + k) % 3]
            if fmt == "csv":
                op = _compute(group, route, fmt, g, 2 * g - 2, g - 1, "maximal")
            elif k % 2:
                op = _compute(group, route, fmt, g, 1, 0)
            else:
                op = _compute(group, route, fmt, g, g - 1, g - 1)
            units.append([op])
    for g, d1, d2, fmt in ((2, 2, 1, "text"), (2, 0, 0, "json"),
                           (3, 1, 0, "text"), (4, 3, 3, "json")):
        units.append([_cli(["strata", "--genus", str(g), "--d1", str(d1),
                            "--d2", str(d2), "--order", str(default_order(g)),
                            "--format", fmt])])
    for args in (["--op", "sym", "--m", "3", "--genus", "3"],
                 ["--op", "gothen", "--m1", "1", "--m2", "2", "--genus", "2"],
                 ["--op", "bg-rank2", "--genus", "5"],
                 ["--op", "ab-semistable", "--d2", "1", "--genus", "4"]):
        g = int(args[args.index("--genus") + 1])
        units.append([_cli(["ingredients", *args, "--order",
                            str(default_order(g)), "--format", "csv"])])
    for g in (2, 5):
        path = f"{WORK}/provider-g{g}.json"
        order = str(default_order(g))
        units.append([
            _cli(["export", "--what", "provider", "--genus", str(g),
                  "--order", order, "--out", path], out=path),
            _cli(["compute", "--group", "u21", "--genus", str(g),
                  "--d1", str(2 * g - 2), "--d2", str(g - 1), "--order", order,
                  "--provider", f"file:{path}", "--format", "csv"]),
        ])
    return units


def ops(workload: str, seed: int) -> list[dict]:
    """The workload's ops in the order one pass runs them."""
    if workload == "sweep":
        out = sweep_ops()
        random.Random(seed).shuffle(out)
        return out
    if workload == "deep":
        return deep_ops()
    if workload == "verify":
        return verify_ops()
    if workload == "cli":
        units = cli_units()
        random.Random(seed).shuffle(units)
        return [op for unit in units for op in unit]
    raise ValueError(f"unknown workload {workload!r}")


def child_env(src, extra: dict | None = None) -> dict:
    """Environment for program processes: ``src``, the directory holding
    the ``higgsbetti`` package, first on the path and no default-order
    override."""
    env = dict(os.environ)
    env.pop("HIGGSBETTI_DEFAULT_ORDER", None)
    src = str(src)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env.update(extra or {})
    return env

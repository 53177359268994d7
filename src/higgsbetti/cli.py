"""Command-line interface: compute, strata, verify, ingredients, export.

Exit codes: 0 success, 1 verification failure, 2 parameter error.  Output
is deterministic (stable key order, exact decimal integers, no floats).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction

from . import assemble, bradlow, ingredients, params, series
from .errors import ParameterError
from .verify import SUITES, SuiteResult  # noqa: F401  (SuiteResult: what a suite returns)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAM = 2


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` and a final newline to stdout or to ``out_path``.

    The program's only file writer.  It overwrites an existing file in
    place and then cuts it to the new length, instead of truncating it on
    open: on ext4 (``auto_da_alloc``, the default) closing a file truncated
    to zero, or renamed over, starts writeback and waits for it, about
    45 ms per file.  Text mode, encoding and bytes are those of
    ``open(path, "w")``; a symlink is followed and stays a link; the inode,
    its hard links and its mode are kept; a new file gets 0o666 less the
    umask.  Only a regular file is cut, so ``/dev/null``, a FIFO or
    ``/dev/stdout`` work.  There is no ``fsync``: what is given up is
    ext4's implicit writeback on close, and neither way is atomic against
    a crash.  An ``OSError`` of the writer is a ``ParameterError`` (exit 2).
    """
    if not text.endswith("\n"):
        text += "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        # the opener leaves out the truncation that mode "w" asks for
        with open(out_path, "w", opener=lambda path, _flags: os.open(
                path, os.O_WRONLY | os.O_CREAT, 0o666)) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ParameterError(
            f"cannot write --out {out_path}: {exc.strerror or exc}") from exc


def _series_csv(s: series.TruncatedSeries) -> str:
    lines = ["degree,betti"]
    lines += [f"{k},{c}" for k, c in enumerate(s.coeffs)]
    return "\n".join(lines)


def _params_from_args(args) -> params.ModuliParams:
    return params.make_params(args.genus, args.d1, args.d2)


def _provider_from_args(args, p: params.ModuliParams) -> bradlow.BradlowProvider:
    spec = args.provider
    if spec == "maximal" and abs(p.tau) != 2 * p.g - 2:
        raise ParameterError(
            f"provider 'maximal' is valid only at |tau| = 2g-2 = {2 * p.g - 2}, "
            f"got tau = {p.tau}"
        )
    return bradlow.provider_for_spec(spec)


# ----------------------------------------------------------------- compute


def cmd_compute(args) -> int:
    p = _params_from_args(args)
    provider = _provider_from_args(args, p)
    key = (args.group, args.route)
    if key not in assemble.BUILDERS:
        raise ParameterError(f"group {args.group!r} has no {args.route!r} route")
    result = assemble.BUILDERS[key](p, provider, args.order, force=args.force)
    if args.format == "json":
        _emit(json.dumps(result.to_json_dict(), sort_keys=True, indent=2), args.out)
    elif args.format == "csv":
        if result.mode != "absolute":
            raise ParameterError(
                "csv output needs a concrete series; this result is relative "
                "(unknown Bradlow blocks); use --format json"
            )
        _emit(_series_csv(result.series), args.out)
    else:
        lines = [
            f"group {result.group}  (g, d1, d2) = ({p.g}, {p.d1}, {p.d2})  "
            f"order {result.order}  mode {result.mode}",
            f"series: {result.series}",
        ]
        for name, coeff in sorted(result.unknown.items()):
            lines.append(f"unknown block {name}: coefficient {coeff}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ strata


# the strata table prints the coefficients of degrees 0..HEAD_DEGREE
HEAD_DEGREE = 5


def cmd_strata(args) -> int:
    from . import strata  # only this command uses it; every process compiles its imports

    # a point with tau < 0 is tabulated at its dual, as assemblies are
    p, transforms = params.canonicalize(_params_from_args(args))
    order = series.resolve_order(p.g, args.order)
    head_order = min(order, HEAD_DEGREE)
    default = p.d1 + 2 * p.g - 2
    l_max = params.HalfInt(args.lmax_doubled) if args.lmax_doubled is not None \
        else params.HalfInt.from_int(default)
    # every index above d1 is a B3 row, so the table grows with l_max
    if l_max.value > default + params.MAX_ORDER:
        raise ParameterError(
            f"lmax {l_max} is more than {params.MAX_ORDER} above the default "
            f"d1 + 2g - 2 = {default}")
    descriptors = strata.enumerate_critical(p, l_max)
    present = {s.kind for s in descriptors}
    rows = []
    for s in descriptors:
        series_head = strata.critical_set_poincare(s, head_order).coeffs
        try:
            dims = strata.negative_dim(s)
        except ParameterError:
            dims = {}
        rows.append({
            "kind": s.kind.value,
            "l": str(s.ell),
            "range": strata.kind_range_description(s.kind, p),
            "region": params.region_of(p, s.ell),
            "dimensions": dims,
            "series_head": [str(c) for c in series_head],
            "note": strata.table_note(s.kind),
        })
    empty = [k.value for k in strata.StratumKind if k not in present]
    if args.format == "json":
        doc = {
            "params": p.describe(),
            "l_max": str(l_max),
            "order": order,
            "rows": rows,
            "empty_kinds": empty,
        }
        if transforms:
            doc["transforms"] = transforms
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    elif args.format == "csv":
        raise ParameterError("strata output supports text or json")
    else:
        dualized = f", dual of ({-p.d1}, {-p.d2})" if transforms else ""
        lines = [
            f"critical sets for (g, d1, d2) = ({p.g}, {p.d1}, {p.d2}), "
            f"l <= {l_max}{dualized}"
        ]
        for r in rows:
            dims = ", ".join(f"{k}={v}" for k, v in r["dimensions"].items()) or "-"
            head = " ".join(r["series_head"])
            lines.append(
                f"  {r['kind']:>2} @ l={r['l']:>4}  range {r['range']:<22}  "
                f"region {r['region']:>4}  dims [{dims}]  series {head} ..."
            )
            if r["note"]:
                lines.append(f"      note: {r['note']}")
        for k in empty:
            lines.append(f"  {k:>2}: none in range")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# ------------------------------------------------------------- ingredients


def cmd_ingredients(args) -> int:
    g = args.genus
    order = series.resolve_order(g, args.order)
    op = args.op
    value: int | None = None
    if op == "jacobian":
        out = ingredients.jacobian_poincare(g, order)
    elif op == "sym":
        out = ingredients.sym_poincare(args.m, g, order)
    elif op == "projective":
        out = ingredients.projective_poincare(args.n, order)
    elif op == "bg-rank1":
        out = ingredients.bg_rank1(g, order)
    elif op == "bg-rank2":
        out = ingredients.bg_rank2(g, order)
    elif op == "bg-u21":
        out = ingredients.bg_u21(g, order)
    elif op == "bg-su21":
        out = ingredients.bg_su21(g, order)
    elif op == "ab-semistable":
        out = ingredients.ab_semistable_rank2(args.d2, g, order)
    elif op == "gothen":
        out = ingredients.gothen_cover_poincare(
            ingredients.CoverParams(args.m1, args.m2, g), order)
    elif op == "vdim":
        value = ingredients.v_dim(ingredients.CoverParams(args.m1, args.m2, g))
        out = None
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown ingredient op {op!r}")
    if args.format == "json":
        doc = {"op": op, "order": None if out is None else order}
        if out is not None:
            doc["coefficients"] = [str(c) for c in out.coeffs]
        else:
            doc["value"] = str(value)
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    elif args.format == "csv":
        _emit(_series_csv(out) if out is not None else f"value\n{value}", args.out)
    else:
        _emit(str(out) if out is not None else str(value), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify


# largest genus of a verify grid: every suite together took 9 s at g = 12
# and 30 s at g = 16 on a 2-CPU AMD EPYC, growing about as g^4, so a grid
# up to MAX_GENUS would run for days
MAX_GRID_GENUS = 16


def _parse_grid(spec: str | None) -> dict[str, tuple[int, int]]:
    """Parse ``g=lo..hi`` (or ``g=n``): one genus range is the whole grid."""
    if not spec:
        return {}
    key, eq, rng = spec.partition("=")
    if not eq:
        raise ParameterError(f"bad grid {spec!r}; expected g=lo..hi")
    if key.strip() != "g":
        raise ParameterError(f"unknown grid key {key.strip()!r}; the grid takes g=lo..hi")
    lo, dots, hi = rng.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError as exc:
        raise ParameterError(
            f"bad grid range {rng!r}; the grid takes one g=lo..hi") from exc
    if lo > hi:
        raise ParameterError(f"grid range {rng!r} is empty")
    if lo < 2 or hi > MAX_GRID_GENUS:
        raise ParameterError(
            f"grid genus range {rng!r} must lie in 2..{MAX_GRID_GENUS}")
    return {"g": (lo, hi)}


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid)
    names = list(SUITES) if args.suite in (None, "all") else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ParameterError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    results = [SUITES[name](grid) for name in names]
    hard_failed = [r for r in results if r.hard and not r.passed]
    if args.format == "json":
        doc = {
            "passed": not hard_failed,
            "suites": [
                {"name": r.name, "hard": r.hard, "passed": r.passed,
                 "details": r.details, "counterexample": r.counterexample}
                for r in results
            ],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    elif args.format == "csv":
        raise ParameterError("verify output supports text or json")
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            tag = "" if r.hard else " (diagnostic)"
            lines.append(f"{r.name}{tag}: {status}")
            for d in r.details:
                lines.append(f"    {d}")
            if r.counterexample:
                lines.append(f"    counterexample: "
                             f"{json.dumps(r.counterexample, sort_keys=True)}")
        _emit("\n".join(lines), args.out)
    return EXIT_VERIFY if hard_failed else EXIT_OK


# ------------------------------------------------------------------ export


def cmd_export(args) -> int:
    if not args.out:
        raise ParameterError("export requires --out PATH")
    g = args.genus
    doc = bradlow.maximal_provider_record(g, series.resolve_order(g, args.order))
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return EXIT_OK


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsbetti",
        description="Exact equivariant Poincare polynomials of rank-(2,1) "
                    "Higgs bundle moduli, with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_params=True):
        if with_params:
            sp.add_argument("--genus", "-g", type=int, required=True)
            sp.add_argument("--d1", type=int, required=True)
            sp.add_argument("--d2", type=int, required=True)
        sp.add_argument("--order", type=int, default=None,
                        help="truncation order (default 8g+24)")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("compute", help="assemble a Poincare series")
    add_common(sp)
    sp.add_argument("--group", choices=("u21", "su21", "pu21"), required=True)
    sp.add_argument("--route", choices=("closed", "stratum"), default="closed")
    sp.add_argument("--provider", default="relative",
                    help="relative | maximal | file:PATH")
    sp.add_argument("--force", action="store_true",
                    help="compute even when the Toledo bound is violated")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("strata", help="enumerate critical sets")
    add_common(sp)
    sp.add_argument("--lmax", dest="lmax_doubled", type=_parse_lmax, default=None,
                    metavar="L", help="largest index l (integer or n/2)")
    sp.set_defaults(fn=cmd_strata)

    sp = sub.add_parser("verify", help="run identity verification suites")
    sp.add_argument("--suite", default="all",
                    help="suite name or 'all': " + ", ".join(SUITES))
    sp.add_argument("--grid", default=None, help="e.g. g=2..3")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("ingredients", help="evaluate one ingredient series")
    sp.add_argument("--op", required=True,
                    choices=("jacobian", "sym", "projective", "bg-rank1",
                             "bg-rank2", "bg-u21", "bg-su21", "ab-semistable",
                             "gothen", "vdim"))
    sp.add_argument("--genus", "-g", type=int, default=2)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--m1", type=int, default=0)
    sp.add_argument("--m2", type=int, default=0)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--d2", type=int, default=0)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_ingredients)

    sp = sub.add_parser("export", help="write a maximal-case provider file")
    sp.add_argument("--genus", "-g", type=int, required=True)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--what", choices=("provider",), default="provider")
    sp.set_defaults(fn=cmd_export)

    return parser


def _parse_lmax(text: str) -> int:
    """Parse an integer or n/2 half-integer into a doubled value."""
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    if (2 * frac).denominator != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a half-integer")
    return int(2 * frac)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        genus = getattr(args, "genus", 2)
        if not 2 <= genus <= params.MAX_GENUS:
            raise ParameterError(
                f"genus {genus} is outside the supported range 2..{params.MAX_GENUS}")
        if (getattr(args, "order", None) or 0) > params.MAX_ORDER:
            raise ParameterError(
                f"order {args.order} is above the largest supported, {params.MAX_ORDER}")
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: compute, strata, verify, ingredients, export.

Exit codes: 0 success, 1 verification failure, 2 parameter error.  Output
is deterministic (stable key order, exact decimal integers, no floats).
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from typing import TYPE_CHECKING

from . import assemble, bradlow, ingredients, params, series
from .errors import ParameterError

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAM = 2

# Every process compiles each module it imports, so the modules only some
# commands run (verify, strata, json) are imported where those run.


def __getattr__(name: str):
    # SUITES (the suites verify runs, which code may swap) and SuiteResult
    # (what a suite returns) stay names of this module
    if name in ("SUITES", "SuiteResult"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _render(args, **build) -> None:
    """Emit the format ``args.format``, built by its callable alone: a
    format can be costly (JSON expands every term of a result).  ``json``
    returns a document, written with sorted keys and an indent of 2;
    ``text`` and ``csv`` return the text."""
    if args.format == "json":
        import json
        out = json.dumps(build["json"](), sort_keys=True, indent=2)
    else:
        out = build[args.format]()
    _emit(out, args.out)


def _series_csv(s: series.TruncatedSeries) -> str:
    return "\n".join(["degree,betti", *(f"{k},{c}" for k, c in enumerate(s.coeffs))])


# ----------------------------------------------------------------- compute


def cmd_compute(args) -> int:
    p = params.make_params(args.genus, args.d1, args.d2)
    provider = bradlow.provider_for_spec(args.provider, p)
    key = (args.group, args.route)
    if key not in assemble.BUILDERS:
        raise ParameterError(f"group {args.group!r} has no {args.route!r} route")
    result = assemble.BUILDERS[key](p, provider, args.order)

    def csv() -> str:
        if result.mode != "absolute":
            raise ParameterError(
                "csv output needs a concrete series; this result is relative "
                "(unknown Bradlow blocks); use --format json"
            )
        return _series_csv(result.series)

    def text() -> str:
        return "\n".join([
            f"group {result.group}  (g, d1, d2) = ({p.g}, {p.d1}, {p.d2})  "
            f"order {result.order}  mode {result.mode}",
            f"series: {result.series}",
            *(f"unknown block {name}: coefficient {coeff}"
              for name, coeff in sorted(result.unknown.items()))])

    _render(args, json=result.to_json_dict, text=text, csv=csv)
    return EXIT_OK


# ------------------------------------------------------------------ strata


def cmd_strata(args) -> int:
    from . import strata

    doc = strata.critical_table(params.make_params(args.genus, args.d1, args.d2),
                                args.lmax, args.order)

    def text() -> str:
        p = doc["params"]
        dualized = f", dual of ({-p['d1']}, {-p['d2']})" if "transforms" in doc else ""
        lines = [f"critical sets for (g, d1, d2) = ({p['g']}, {p['d1']}, {p['d2']}), "
                 f"l <= {doc['l_max']}{dualized}"]
        for r in doc["rows"]:
            dims = ", ".join(f"{k}={v}" for k, v in r["dimensions"].items()) or "-"
            head = " ".join(r["series_head"])
            lines.append(
                f"  {r['kind']:>2} @ l={r['l']:>4}  range {r['range']:<22}  "
                f"region {r['region']:>4}  dims [{dims}]  series {head} ..."
            )
            if r["note"]:
                lines.append(f"      note: {r['note']}")
        for k in doc["empty_kinds"]:
            lines.append(f"  {k:>2}: none in range")
        return "\n".join(lines)

    _render(args, json=lambda: doc, text=text)
    return EXIT_OK


# ------------------------------------------------------------- ingredients


def cmd_ingredients(args) -> int:
    order = series.resolve_order(args.genus, args.order)
    value = ingredients.OPS[args.op](args.genus, order, m=args.m, n=args.n,
                                     d2=args.d2, m1=args.m1, m2=args.m2)
    scalar = isinstance(value, int)  # vdim

    def doc() -> dict:
        if scalar:
            return {"op": args.op, "order": None, "value": str(value)}
        return {"op": args.op, "order": order,
                "coefficients": [str(c) for c in value.coeffs]}

    _render(args, json=doc, text=lambda: str(value),
            csv=lambda: f"value\n{value}" if scalar else _series_csv(value))
    return EXIT_OK


# ------------------------------------------------------------------ verify


# largest genus of a verify grid.  At g = 16 alone, in one process pinned
# to one CPU of a 2-CPU Intel Xeon (medians of eight runs), shift-invariance
# takes 2.0 s, route-su21 1.8 s, route-u21 1.4 s, series-laws 0.65 s and
# the other four 0.2 s together: 6.0 s, and g = 2..16 about 24 s (hosts of
# that name have run the same grids about twice as fast).  Time grows
# about as g^4 per genus, so a grid up to MAX_GENUS would run for days
MAX_GRID_GENUS = 16


def _parse_grid(spec: str | None) -> dict[str, tuple[int, int]]:
    """Parse ``g=lo..hi`` (or ``g=n``): one genus range is the whole grid."""
    if not spec:
        return {}
    key, eq, rng = spec.partition("=")
    if not eq:
        raise ParameterError(f"bad grid {_quoted(spec)}; expected g=lo..hi")
    if key.strip() != "g":
        raise ParameterError(
            f"unknown grid key {_quoted(key.strip())}; the grid takes g=lo..hi")
    lo, dots, hi = rng.partition("..")
    hi = hi if dots else lo
    bad = f"bad grid range {_quoted(rng)}; the grid takes one g=lo..hi"
    if not (re.fullmatch(_INT, lo) and re.fullmatch(_INT, hi)):
        raise ParameterError(bad)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:  # beyond the interpreter's digit limit
        raise ParameterError(bad) from None
    if lo > hi:
        raise ParameterError(f"grid range {_quoted(rng)} is empty")
    if lo < 2 or hi > MAX_GRID_GENUS:
        raise ParameterError(
            f"grid genus range {_quoted(rng)} must lie in 2..{MAX_GRID_GENUS}")
    return {"g": (lo, hi)}


def cmd_verify(args) -> int:
    from .verify import SUITES

    grid = _parse_grid(args.grid)
    if args.suite != "all" and args.suite not in SUITES:
        raise ParameterError(f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [SUITES[name](grid) for name in names]
    hard_failed = any(r.hard and not r.passed for r in results)

    def text() -> str:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            tag = "" if r.hard else " (diagnostic)"
            lines.append(f"{r.name}{tag}: {status}")
            for d in r.details:
                lines.append(f"    {d}")
            if r.counterexample:
                import json  # a passing run writes no JSON
                lines.append(
                    f"    counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
        return "\n".join(lines)

    _render(args, text=text, json=lambda: {
        "passed": not hard_failed, "suites": [r._asdict() for r in results]})
    return EXIT_VERIFY if hard_failed else EXIT_OK


# ------------------------------------------------------------------ export


def cmd_export(args) -> int:
    if not args.out:
        raise ParameterError("export requires --out PATH")
    g = args.genus
    doc = bradlow.maximal_provider_record(g, series.resolve_order(g, args.order))
    _render(args, json=lambda: doc)
    return EXIT_OK


# -------------------------------------------------------------------- main


def build_parser(commands) -> argparse.ArgumentParser:
    """The parser of every command, where only the commands named in
    ``commands`` (an argv) get their arguments; the others keep their name
    and help, so the usage and error messages are the same."""
    parser = argparse.ArgumentParser(
        prog="higgsbetti",
        description="Exact equivariant Poincare polynomials of rank-(2,1) "
                    "Higgs bundle moduli, with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        """The subparser of ``name`` if it gets its arguments, else None."""
        sp = sub.add_parser(name, **kwargs)
        return sp if name in commands else None

    # each command's --format choices are the formats its _render call builds
    def add_common(sp, formats=("text", "json", "csv")):
        sp.add_argument("--genus", "-g", type=_parse_int, required=True)
        sp.add_argument("--d1", type=_parse_int, required=True)
        sp.add_argument("--d2", type=_parse_int, required=True)
        sp.add_argument("--order", type=_parse_int, default=None,
                        help="truncation order (default 8g+24)")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", default=None, help="write output to a file")

    if sp := command("compute", help="assemble a Poincare series"):
        add_common(sp)
        groups, routes = zip(*assemble.BUILDERS)
        sp.add_argument("--group", choices=tuple(dict.fromkeys(groups)), required=True)
        sp.add_argument("--route", choices=tuple(dict.fromkeys(routes)), default="closed")
        sp.add_argument("--provider", default="relative",
                        help="relative | maximal | file:PATH")
        sp.set_defaults(fn=cmd_compute)

    if sp := command("strata", help="enumerate critical sets"):
        add_common(sp, ("text", "json"))
        sp.add_argument("--lmax", type=_parse_lmax, default=None,
                        metavar="L", help="largest index l (integer or n/2; "
                        "write a negative one as --lmax=-3/2)")
        sp.set_defaults(fn=cmd_strata)

    if sp := command("verify", help="run identity verification suites",
                     formatter_class=_SuiteListFormatter):
        sp.add_argument("--suite", default="all", help="suite name or 'all': ")
        sp.add_argument("--grid", default=None, help="e.g. g=2..3")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=cmd_verify)

    if sp := command("ingredients", help="evaluate one ingredient series"):
        sp.add_argument("--op", required=True, choices=tuple(ingredients.OPS))
        sp.add_argument("--genus", "-g", type=_parse_int, default=2)
        sp.add_argument("--m", type=_parse_int, default=0)
        sp.add_argument("--m1", type=_parse_int, default=0)
        sp.add_argument("--m2", type=_parse_int, default=0)
        sp.add_argument("--n", type=_parse_int, default=0)
        sp.add_argument("--d2", type=_parse_int, default=0)
        sp.add_argument("--order", type=_parse_int, default=None)
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=cmd_ingredients)

    if sp := command("export", help="write a maximal-case provider file"):
        sp.add_argument("--genus", "-g", type=_parse_int, required=True)
        sp.add_argument("--order", type=_parse_int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--what", choices=("provider",), default="provider")
        sp.set_defaults(fn=cmd_export, format="json")

    return parser


class _SuiteListFormatter(argparse.HelpFormatter):
    """Ends the ``--suite`` help with the suite names, so that only
    ``verify --help`` imports verify to list them (``_get_help_string`` is
    the hook argparse's own ArgumentDefaultsHelpFormatter overrides)."""

    def _get_help_string(self, action):
        if action.dest != "suite":
            return action.help
        from .verify import SUITES
        return action.help + ", ".join(SUITES)


# the one spelling of an integer argument (int also takes 1_0, " 10", "\u0663")
_INT = "[+-]?[0-9]+"


def _quoted(text: str) -> str:
    """text quoted, cut at 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def _parse_int(text: str) -> int:
    if not re.fullmatch(_INT, text):
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not written [+-]digits")
    try:
        return int(text)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise argparse.ArgumentTypeError(f"{_quoted(text)}: {exc}") from None


def _parse_lmax(text: str) -> Fraction:
    """Parse an integer or an n/2 half-integer, written [+-]digits[/digits]
    (``Fraction`` would also take 2.5, 1_0 and 1e9999999, the last a
    10^9999999 built before any bound is checked)."""
    from fractions import Fraction  # only strata reads a rational argument

    if not re.fullmatch(f"{_INT}(/[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not written n or n/m")
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{_quoted(text)} has a zero denominator") from None
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise argparse.ArgumentTypeError(f"{_quoted(text)}: {exc}") from None
    if (2 * frac).denominator != 1:
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not a half-integer")
    return frac


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
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

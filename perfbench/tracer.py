"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions and methods of each
``higgsbetti`` module by timing wrappers.  Modules bind many of these
names by ``from ... import`` and the CLI keeps some in dicts
(``_COMPUTERS``, ``SUITES``, ``_ROUTES``), so every binding of the
original object in every loaded ``higgsbetti`` module, and in dicts held
by module globals (directly or inside a tuple value), is replaced, not
only the defining one.

Each wrapped call is a span: name, start, end, parent span and op id.
Self time is a span's duration minus the time its child spans cover.
Totals are kept per span name; spans outside the series kernel are also
kept in memory and written out at the end of a traced pass.  Series
kernel spans (products, constructions) are too many to keep and are only
totalled.  Cache hit ratios come from ``cache_info()`` deltas.

A function the program no longer has is skipped and listed in
``missing``; its metrics read 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

from workloads import BUILDERS, VERIFY_SUITES as SUITES

# projective_poincare counts towards the cache totals but has no metric
CACHED = ("sym_poincare", "jacobian_poincare", "bg_rank1", "bg_rank2",
          "ab_semistable_rank2", "projective_poincare")
REPORTED_CACHED = CACHED[:5]
ASSEMBLE_FNS = BUILDERS + ("verify_route_equivalence",)
STRATA_FNS = ("admits", "enumerate_critical", "critical_set_poincare",
              "kind_range_description", "table_note", "negative_dim",
              "negative_pair_kinds", "negative_pair_cohomology")
PARAMS_FNS = ("canonicalize", "delta_set", "region_of", "s_tau",
              "kirwan_su_surjective", "torelli_trivial", "gamma3_trivial")
PROVIDERS = ("SymbolicProvider", "MaximalCaseProvider", "FileBackedProvider")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list = []
        self.op = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.miss_self = 0.0
        self.main_s: list[float] = []
        self.suite_assemblies: dict[str, int] = defaultdict(int)
        self.cache_info: dict[str, object] = {}
        self.cache_start: dict[str, tuple[int, int]] = {}
        self.missing: list[str] = []
        self._modules: list = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, *, record=True, pre=None, post=None):
        """A wrapper timing each call of fn as a span called name.

        pre() runs before the call and its value reaches
        post(args, result, self_s, dur, state) after it; their own time
        is charged to no span.
        """
        stack, totals, spans = self.stack, self.totals, self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            hook0 = perf()
            state = pre() if pre else None
            parent = stack[-1] if stack else None
            rec = parent[1] if parent else -1
            if record:
                rec = len(spans)
                spans.append(None)
            frame = [0.0, rec]
            stack.append(frame)
            start = perf()
            if parent is not None:
                parent[0] += start - hook0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s = dur - frame[0]
                t = totals[name]
                t[0] += 1
                t[1] += self_s
                t[2] += dur
                if record:
                    spans[rec] = (name, start, end, parent[1] if parent else -1,
                                  self.op)
                if parent is not None:
                    parent[0] += dur
            if post:
                post(args, result, self_s, dur, state)
                if parent is not None:
                    parent[0] += perf() - end
            return result

        return wrapper

    def _rebind(self, orig, new) -> None:
        for module in self._modules:
            d = vars(module)
            for key, value in list(d.items()):
                if value is orig:
                    d[key] = new
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = new
                        elif isinstance(v, tuple) and any(x is orig for x in v):
                            value[k] = tuple(new if x is orig else x for x in v)

    def patch(self, module, attr, name, **hooks):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._rebind(orig, self.wrap(name, orig, **hooks))

    def patch_method(self, cls, attr, name, **hooks):
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, orig, **hooks))

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        from higgsbetti import (assemble, bradlow, cli, ingredients, params,
                                series, strata)

        self._modules = [m for n, m in sorted(sys.modules.items())
                         if n == "higgsbetti" or n.startswith("higgsbetti.")]
        self._install_series(series)
        self._install_ingredients(ingredients)
        for attr in ("ww_difference", "ww_from_invariants"):
            self.patch(bradlow, attr, "bradlow.ww")
        self.patch(bradlow, "provider_from_file", "bradlow.provider_load")
        for cls_name in PROVIDERS:
            cls = getattr(bradlow, cls_name, None)
            for attr in ("pairs_equivariant", "moduli_min"):
                self.patch_method(cls, attr, "bradlow.provider_lookup")
        for attr in ASSEMBLE_FNS:
            self.patch(assemble, attr, f"assemble.{attr}",
                       post=self._count_terms if attr in BUILDERS else None)
        result_cls = getattr(assemble, "AssemblyResult", None)
        self.patch_method(result_cls, "eliminate_pairs", "assemble.eliminate_pairs")
        self.patch_method(result_cls, "to_json_dict", "assemble.to_json")
        for attr in STRATA_FNS:
            self.patch(strata, attr, "strata")
        self.patch(params, "make_params", "params.make_params")
        for attr in PARAMS_FNS:
            self.patch(params, attr, "params.other")
        self._install_cli(cli)
        return self

    def _install_series(self, series) -> None:
        cls = series.TruncatedSeries
        orig_mul = cls.__dict__.get("__mul__")
        if orig_mul is None:
            self.missing.append("TruncatedSeries.__mul__")
        else:
            traced = self.wrap("series.mul", orig_mul, record=False,
                               post=self._count_product)

            def mul(a, b):
                if isinstance(b, cls):
                    return traced(a, b)
                return orig_mul(a, b)

            cls.__mul__ = cls.__rmul__ = mul
        self.patch(series, "_as_coeff_tuple", "series.construct", record=False)
        self.patch_method(getattr(series, "RationalExpr", None), "expand",
                          "series.expand", record=False)
        self.patch(series, "geometric_inverse", "series.geometric_inverse",
                   record=False)

    def _count_product(self, args, result, self_s, dur, state) -> None:
        n = len(result.coeffs) - 1
        self.counters["mul_work"] += (n + 1) * (n + 2) // 2
        hi, lo = max(result.coeffs), min(result.coeffs)
        bits = max(hi.bit_length(), (-lo).bit_length())
        if bits > self.counters["mul_max_bits"]:
            self.counters["mul_max_bits"] = bits

    def _install_ingredients(self, ingredients) -> None:
        for attr in CACHED:
            fn = getattr(ingredients, attr, None)
            info = getattr(fn, "cache_info", None)
            if info is None:
                self.patch(ingredients, attr, f"ingredients.{attr}")
                continue
            self.cache_info[attr] = info
            start = info()
            self.cache_start[attr] = (start.hits, start.misses)

            def post(args, result, self_s, dur, before, info=info):
                if info().misses > before:
                    self.miss_self += self_s
                    self.counters["cached_coeffs"] += len(result.coeffs)

            self.patch(ingredients, attr, f"ingredients.{attr}",
                       pre=lambda info=info: info().misses, post=post)
        self.patch(ingredients, "gothen_cover_poincare",
                   "ingredients.gothen_cover_poincare")

    def _count_terms(self, args, result, self_s, dur, state) -> None:
        self.counters["terms"] += len(result.terms)
        self.counters["results"] += 1

    def _assemblies(self) -> int:
        return sum(self.totals[f"assemble.{b}"][0] for b in BUILDERS)

    def _install_cli(self, cli) -> None:
        suites = getattr(cli, "SUITES", {})
        for name in SUITES:
            fn = suites.get(name)
            if fn is None:
                self.missing.append(f"cli.SUITES[{name}]")
                continue

            def post(args, result, self_s, dur, before, name=name):
                self.suite_assemblies[name] += self._assemblies() - before

            suites[name] = self.wrap(f"cli.suite.{name}", fn,
                                     pre=self._assemblies, post=post)
        self.patch(cli, "main", "cli.main",
                   post=lambda args, result, self_s, dur, state:
                   self.main_s.append(dur))

    # -- results ----------------------------------------------------------

    def raw(self) -> dict:
        """Mergeable totals of everything traced so far."""
        cache = {}
        entries = 0
        for attr, info in self.cache_info.items():
            now = info()
            h0, m0 = self.cache_start[attr]
            cache[attr] = [now.hits - h0, now.misses - m0]
            entries += now.currsize
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "cache": cache,
            "cache_entries": entries,
            "counters": dict(self.counters),
            "miss_self": self.miss_self,
            "main_s": list(self.main_s),
            "suite_assemblies": dict(self.suite_assemblies),
            "missing": list(self.missing),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def merge(raws: list[dict]) -> dict:
    """Sum the raw totals of several traced processes."""
    out = {"totals": {}, "cache": {}, "cache_entries": 0, "counters": {},
           "miss_self": 0.0, "main_s": [], "suite_assemblies": {},
           "missing": []}
    for raw in raws:
        for k, v in raw["totals"].items():
            t = out["totals"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                t[i] += v[i]
        for k, v in raw["cache"].items():
            c = out["cache"].setdefault(k, [0, 0])
            c[0] += v[0]
            c[1] += v[1]
        for k, v in raw["counters"].items():
            if k == "mul_max_bits":
                out["counters"][k] = max(out["counters"].get(k, 0), v)
            else:
                out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in raw["suite_assemblies"].items():
            out["suite_assemblies"][k] = out["suite_assemblies"].get(k, 0) + v
        out["cache_entries"] += raw["cache_entries"]
        out["miss_self"] += raw["miss_self"]
        out["main_s"] += raw["main_s"]
        out["missing"] = sorted(set(out["missing"]) | set(raw["missing"]))
    return out


def layer_metrics(raw: dict, interp_s: list[float], import_s: list[float],
                  output_bytes: int) -> dict[str, float]:
    """The per-layer metric values of one traced pass, by name."""
    totals = raw["totals"]
    counters = raw["counters"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def median(values):
        return statistics.median(values) if values else 0.0

    m: dict[str, float] = {}
    mul_self = self_s("series.mul")
    work = counters.get("mul_work", 0)
    m["series.mul.calls"] = calls("series.mul")
    m["series.mul.self_s"] = mul_self
    m["series.mul.work"] = work
    m["series.mul.rate"] = work / mul_self if mul_self > 0 else 0.0
    m["series.mul.max_bits"] = counters.get("mul_max_bits", 0)
    m["series.expand.calls"] = calls("series.expand")
    m["series.expand.self_s"] = self_s("series.expand")
    m["series.geometric_inverse.calls"] = calls("series.geometric_inverse")
    m["series.construct.calls"] = calls("series.construct")
    m["series.construct.self_s"] = self_s("series.construct")
    for fn in REPORTED_CACHED:
        hits, misses = raw["cache"].get(fn, [0, 0])
        m[f"ingredients.{fn}.calls"] = calls(f"ingredients.{fn}")
        m[f"ingredients.{fn}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["ingredients.gothen_cover_poincare.calls"] = calls("ingredients.gothen_cover_poincare")
    m["ingredients.miss.self_s"] = raw["miss_self"]
    m["ingredients.cache_entries"] = raw["cache_entries"]
    m["ingredients.cached_coeffs"] = counters.get("cached_coeffs", 0)
    m["bradlow.ww.calls"] = calls("bradlow.ww")
    m["bradlow.ww.self_s"] = self_s("bradlow.ww")
    m["bradlow.provider_load.s"] = incl_s("bradlow.provider_load")
    m["bradlow.provider_lookup.s"] = incl_s("bradlow.provider_lookup")
    for fn in ASSEMBLE_FNS:
        m[f"assemble.{fn}.calls"] = calls(f"assemble.{fn}")
        m[f"assemble.{fn}.self_s"] = self_s(f"assemble.{fn}")
    m["assemble.eliminate_pairs.self_s"] = self_s("assemble.eliminate_pairs")
    m["assemble.to_json.self_s"] = self_s("assemble.to_json")
    results = counters.get("results", 0)
    m["assemble.terms_per_result"] = counters.get("terms", 0) / results if results else 0.0
    m["strata.calls"] = calls("strata")
    m["strata.self_s"] = self_s("strata")
    m["params.make_params.calls"] = calls("params.make_params")
    m["params.self_s"] = self_s("params.make_params") + self_s("params.other")
    for name in SUITES:
        m[f"cli.suite.{name}.s"] = incl_s(f"cli.suite.{name}")
        m[f"cli.suite.{name}.assemblies"] = raw["suite_assemblies"].get(name, 0)
    m["cli.interp_s"] = median(interp_s)
    m["cli.import_s"] = median(import_s)
    m["cli.main_s"] = median(raw["main_s"])
    m["cli.output_bytes"] = output_bytes
    return m

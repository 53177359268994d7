"""Every builder's JSON output, pinned by sha256.

``data/pinned_json.json`` maps ``builder|g|d1|d2|provider`` to the sha256
of ``json.dumps(result.to_json_dict(), sort_keys=True, indent=2)`` (the
``compute --format json`` text) at the default order.  It covers every
valid point of g = 2..3 with tau >= 0 and its dual, so both signs of tau,
with the relative and the maximal provider.  Unlike the benchmark's
digests it hashes the per-term expansions too.

``data/pinned_cli.json`` pins, under ``strata|g|d1|d2``, the sha256 of
the ``strata --format json`` text of each of those points (its ``params``
block is ``ModuliParams.describe()``), and under ``verify|all|g=2..3`` the
sha256 of the bytes ``verify --suite all --grid g=2..3 --format json``
writes.

``data/pinned_deep.json`` pins the hundred-bit scale, where the packed
products need slots wider than 8 bytes: the sha256 of each result's
series and unknown coefficients for the five builders at g = 32, (d1, d2)
= (0, 0), and ``u21_closed_form`` at the maximal point with the maximal
provider, at orders 280 and 1120.

Re-record all three with ``python tests/test_pinned_json.py`` only after an
intended output change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from higgsbetti import cli, strata
from higgsbetti.assemble import BUILDERS
from higgsbetti.bradlow import MaximalCaseProvider
from higgsbetti.params import make_params, valid_points

DATA = Path(__file__).parent / "data"
PINNED = DATA / "pinned_json.json"
PINNED_DEEP = DATA / "pinned_deep.json"
PINNED_CLI = DATA / "pinned_cli.json"
PROVIDERS = {"relative": None, "maximal": MaximalCaseProvider()}
DEEP_GENUS, DEEP_ORDERS = 32, (280, 1120)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict[str, str]:
    out = {}
    for g in (2, 3):
        for base in valid_points(g):
            for p in (base, base.dual()):
                for (group, route), fn in sorted(BUILDERS.items()):
                    for name, provider in PROVIDERS.items():
                        doc = fn(p, provider).to_json_dict()
                        text = json.dumps(doc, sort_keys=True, indent=2)
                        key = f"{group}-{route}|{g}|{p.d1}|{p.d2}|{name}"
                        out[key] = _sha256(text)
    return out


def _strata_digests() -> dict[str, str]:
    out = {}
    for g in (2, 3):
        for base in valid_points(g):
            for p in (base, base.dual()):
                doc = strata.critical_table(p, None, None)
                text = json.dumps(doc, sort_keys=True, indent=2)
                out[f"strata|{g}|{p.d1}|{p.d2}"] = _sha256(text)
    return out


def _verify_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verify.json"
        cli.main(["verify", "--suite", "all", "--grid", "g=2..3",
                  "--format", "json", "--out", str(out)])
        data = out.read_bytes()
    return {"verify|all|g=2..3": hashlib.sha256(data).hexdigest()}


def _series_digest(result) -> str:
    """sha256 of a result's series and unknown coefficients."""
    parts = ["series=" + ",".join(map(str, result.series.coeffs))]
    for name, s in sorted(result.unknown.items()):
        parts.append(f"{name}=" + ",".join(map(str, s.coeffs)))
    return _sha256(";".join(parts))


def _deep_digests() -> dict[str, str]:
    g = DEEP_GENUS
    cases = [(group, route, 0, 0, "relative") for group, route in sorted(BUILDERS)]
    cases.append(("u21", "closed", 2 * g - 2, g - 1, "maximal"))
    out = {}
    for order in DEEP_ORDERS:
        for group, route, d1, d2, name in cases:
            result = BUILDERS[group, route](make_params(g, d1, d2), PROVIDERS[name], order)
            out[f"{group}-{route}|{g}|{d1}|{d2}|{name}|{order}"] = _series_digest(result)
    return out


def _assert_matches(pinned_path: Path, got: dict[str, str]) -> None:
    pinned = json.loads(pinned_path.read_text())
    assert sorted(got) == sorted(pinned)
    changed = [k for k in sorted(got) if got[k] != pinned[k]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def test_json_output_matches_the_pinned_digests():
    _assert_matches(PINNED, _digests())


def test_strata_and_verify_json_match_the_pinned_digests():
    _assert_matches(PINNED_CLI, _strata_digests() | _verify_digests())


def test_deep_scale_series_match_the_pinned_digests():
    _assert_matches(PINNED_DEEP, _deep_digests())


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, digests in ((PINNED, _digests()), (PINNED_DEEP, _deep_digests()),
                          (PINNED_CLI, _strata_digests() | _verify_digests())):
        path.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    sys.exit(0)

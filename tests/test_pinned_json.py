"""Every builder's JSON output, pinned by sha256.

``data/pinned_json.json`` maps ``builder|g|d1|d2|provider`` to the sha256
of ``json.dumps(result.to_json_dict(), sort_keys=True, indent=2)`` (the
``compute --format json`` text) at the default order.  It covers every
valid point of g = 2..3 with tau >= 0 and its dual, so both signs of tau,
with the relative and the maximal provider.  Unlike the benchmark's
digests it hashes the per-term expansions too.  Re-record it with
``python tests/test_pinned_json.py`` only after an intended output change.
"""

import hashlib
import json
import sys
from pathlib import Path

from higgsbetti.assemble import BUILDERS
from higgsbetti.bradlow import MaximalCaseProvider
from higgsbetti.params import valid_points

PINNED = Path(__file__).parent / "data" / "pinned_json.json"
PROVIDERS = {"relative": None, "maximal": MaximalCaseProvider()}


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
                        out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_json_output_matches_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    got = _digests()
    assert sorted(got) == sorted(pinned)
    changed = [k for k in sorted(got) if got[k] != pinned[k]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(_digests(), sort_keys=True, indent=1) + "\n")
    sys.exit(0)

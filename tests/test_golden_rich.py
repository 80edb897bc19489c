"""Byte-identity contract for a rich-inputs-shaped config.

The README goldens register 45 markers. This config registers 1800 (100
on each of 18 concept types), builds 20 gamma-CGs of at least 50 nodes
and puts 12 variables on each, so the marker index, the carrier lists of
auto-gcg and the sorted slot domains auto-var samples from all act at the
scale they are meant for. It runs under two fixed `PYTHONHASHSEED` values too, as
`test_golden_hashseed.py` does for the README config, so an order taken
from iterating a set of ids fails every test run.

The digest may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import json

import pytest

from cggen.cli import main
from test_golden import tree_digest
from test_golden_hashseed import run_generate

RICH_CONFIG = {
    "seed": 42,
    "autoVoc": {"conceptDepth": 5, "relationDepth": 4, "maxChildren": 3, "markersPerType": 100},
    "autoGcg": {"count": 20, "minSize": 50},
    "autoVar": {
        "conceptVars": 4,
        "relationVars": 4,
        "markerVars": 4,
        "valuesPerVariable": 8,
        "specialisations": 3,
    },
    "generator": {"maxCGs": 3, "minSize": 200, "maxSpe": 3},
}

GOLDEN_FILES = 26
GOLDEN_SHA256 = "03fc1dd9947424e58cec66aaf94699653084cf336d3aa991bd9d83424718aa27"


def test_rich_output_digest_is_pinned(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(RICH_CONFIG))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    vocabulary = json.loads((out / "vocabulary.json").read_text())
    # The registered markers alone: no draw of these three CGs mints one.
    assert len(vocabulary["markers"]) == 1800
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_rich_digest_under_fixed_hash_seed(tmp_path, hash_seed):
    out = run_generate(tmp_path, RICH_CONFIG, hash_seed)
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)

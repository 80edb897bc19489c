"""Byte-identity contract for the README config with no vocabulary markers.

At `markersPerType` 0 the vocabulary registers no marker, so auto-gcg mints
`gcg-m*` markers for the first arguments it builds and later arguments draw
those minted markers as carriers. The README golden (`test_golden.py`, three
markers per type) never reaches that path: every type already has a carrier.

The digest may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import json

from cggen.cli import main
from test_golden import README_CONFIG, tree_digest

MINTED_CONFIG = {
    **README_CONFIG,
    "autoVoc": {**README_CONFIG["autoVoc"], "markersPerType": 0},
}

GOLDEN_FILES = 73
GOLDEN_SHA256 = "04aa18e454a8506850cae926f0b5516fa87d90747a18b0cd270b26a511de4c6a"


def test_minted_carrier_output_digest_is_pinned(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(MINTED_CONFIG))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    vocabulary = json.loads((out / "vocabulary.json").read_text())
    assert any(m["id"].startswith("gcg-m") for m in vocabulary["markers"])
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)

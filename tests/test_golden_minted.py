"""Byte-identity contract for the README config with no vocabulary markers.

At `markersPerType` 0 the vocabulary registers no marker, so auto-gcg mints
`gcg-m*` markers for the first arguments it builds and later arguments draw
those minted markers as carriers. The README golden (`test_golden.py`, three
markers per type) never reaches that path: every type already has a carrier.

The digest may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import json

from cggen.formats import load_dataset
from oracles import derivations_text
from test_golden import README_CONFIG, tree_digest
from test_golden_large import generate_recording

MINTED_CONFIG = {
    **README_CONFIG,
    "autoVoc": {**README_CONFIG["autoVoc"], "markersPerType": 0},
}

GOLDEN_FILES = 73
GOLDEN_SHA256 = "66f04731ac79218fddadc4c73729277be102f0184f1d641c70677079791ca640"


def test_minted_carrier_output_digest_is_pinned(tmp_path, capsys, monkeypatch):
    out, generated = generate_recording(tmp_path, monkeypatch, MINTED_CONFIG)
    capsys.readouterr()
    vocabulary = json.loads((out / "vocabulary.json").read_text())
    assert any(m["id"].startswith("gcg-m") for m in vocabulary["markers"])
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)
    derivations = (out / "dataset" / "derivations.jsonl").read_text(encoding="utf-8")
    assert derivations == derivations_text(generated)
    loaded = load_dataset(out / "dataset")
    # Each merge's marker, all minted by auto-gcg here, is its kept node's in the CG.
    markers = {
        graph.concepts[kept].marker
        for graph, provenance in zip(loaded.graphs, generated)
        for draw in provenance.draws
        for kept in [*draw.merged.values(), *(kept for _, kept in draw.skipped_merges)]
    }
    assert markers and all(marker.startswith("gcg-m") for marker in markers)

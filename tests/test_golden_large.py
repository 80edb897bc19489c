"""Byte-identity contract for the README config at a large CG size.

Two CGs of at least 2000 nodes take 1239 draws, with 7371 merges and 6758
skipped merges. The README golden (`test_golden.py`, 50 CGs of 30 nodes)
barely reaches the skipped-merge path, where a marker already sits on a
node of an incomparable type; this one runs it thousands of times.

The digest may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import json

from cggen.cli import main
from test_golden import README_CONFIG, tree_digest

LARGE_CONFIG = {
    **README_CONFIG,
    "generator": {"maxCGs": 2, "minSize": 2000, "maxSpe": 3},
}

GOLDEN_FILES = 25
GOLDEN_SHA256 = "9d768b0425f587b15d3477c76511cb8c9b85e1b7dc2899a647fc084819229280"


def test_large_cg_output_digest_is_pinned(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(LARGE_CONFIG))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "dataset" / "derivations.jsonl").read_text().splitlines()[1:]
    draws = [draw for line in lines for draw in json.loads(line)["draws"]]
    assert len(draws) == 1239
    assert sum(len(draw["merged"]) for draw in draws) == 7371
    assert sum(len(draw["skippedMerges"]) for draw in draws) == 6758
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)

"""Byte-identity contract for the README config at a large CG size.

Two CGs of at least 2000 nodes take 1239 draws, with 7371 merges and 6758
skipped merges. The README golden (`test_golden.py`, 50 CGs of 30 nodes)
barely reaches the skipped-merge path, where a marker already sits on a
node of an incomparable type; this one runs it thousands of times.

The digest may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import json

from cggen import cli
from cggen.cli import main
from cggen.formats import load_dataset
from oracles import derivations_text
from test_golden import README_CONFIG, tree_digest

LARGE_CONFIG = {
    **README_CONFIG,
    "generator": {"maxCGs": 2, "minSize": 2000, "maxSpe": 3},
}

GOLDEN_FILES = 25
GOLDEN_SHA256 = "2a3061d653fd94593906ee6a81801ed70130155f60f4e01dfa054c4b1e57c638"


def generate_recording(tmp_path, monkeypatch, config):
    """``cggen generate`` on ``config``: its output and each provenance it generated."""
    generated = []

    def recording(*args):
        for graph, provenance, minted in generate_cgs(*args):
            generated.append(provenance)
            yield graph, provenance, minted

    generate_cgs = cli.generate_cgs
    monkeypatch.setattr(cli, "generate_cgs", recording)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    return out, tuple(generated)


def test_large_cg_output_digest_is_pinned(tmp_path, capsys, monkeypatch):
    out, generated = generate_recording(tmp_path, monkeypatch, LARGE_CONFIG)
    capsys.readouterr()
    text = (out / "dataset" / "derivations.jsonl").read_text(encoding="utf-8")
    lines = text.splitlines()[1:]
    draws = [draw for line in lines for draw in json.loads(line)["draws"]]
    assert len(draws) == 1239
    assert sum(len(draw["merged"]) for draw in draws) == 7371
    skipped = [kept for draw in draws for kept in draw["skippedMerges"].values()]
    assert sum(map(len, skipped)) == 6758
    # The benchmark's generator.merges and generator.skipped_merges count
    # records: one per merged entry and one per kept id of skippedMerges.
    records = [draw for provenance in generated for draw in provenance.draws]
    assert sum(len(draw.merged) for draw in records) == 7371
    assert sum(len(draw.skipped_merges) for draw in records) == 6758 > len(skipped)
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)
    # Each merge record is written as the (absorbed, kept) pair it was generated as.
    assert text == derivations_text(generated)
    assert len(load_dataset(out / "dataset").graphs) == 2

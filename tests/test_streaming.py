"""`cggen generate`, `validate` and `stats` hold one CG at a time; generate
checks its inputs before writing.

Each CG is encoded as soon as it is generated, and its graph is built one
at a time when read back, so the graphs alive when a CG document is encoded
or a CG is built must not depend on how many CGs the run makes.
"""

import copy
import gc
import json

import pytest

from cggen import ConceptualGraph, GeneratorConfig, StructureError, cli, formats, generate_cgs
from cggen.cli import main
from test_golden import README_CONFIG


def counted(monkeypatch, name):
    """The ConceptualGraph objects alive at each call of ``formats.<name>``, as a list."""
    counts = []
    real = getattr(formats, name)

    def counting(*args):
        counts.append(sum(type(obj) is ConceptualGraph for obj in gc.get_objects()))
        return real(*args)

    monkeypatch.setattr(formats, name, counting)
    return counts


def generate(tmp_path, max_cgs):
    """The output directory of a README run at ``max_cgs`` CGs."""
    config = copy.deepcopy(README_CONFIG)
    config["generator"]["maxCGs"] = max_cgs
    path = tmp_path / f"run-{max_cgs}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"out-{max_cgs}"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    return out


def most_live_graphs(tmp_path, monkeypatch, max_cgs):
    """The most ConceptualGraph objects alive as any CG of a README run is encoded."""
    with monkeypatch.context() as patch:
        counts = counted(patch, "_cg_document")
        generate(tmp_path, max_cgs)
    assert len(counts) == max_cgs
    return max(counts)


def test_live_graphs_do_not_grow_with_the_dataset(tmp_path, monkeypatch, capsys):
    assert most_live_graphs(tmp_path, monkeypatch, 2) == most_live_graphs(tmp_path, monkeypatch, 8)


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_read_back_holds_one_cg_at_a_time(tmp_path, monkeypatch, capsys, command):
    most = []
    for max_cgs in (2, 8):
        out = generate(tmp_path, max_cgs)
        with monkeypatch.context() as patch:
            counts = counted(patch, "_cg")
            target = out if command == "validate" else out / "dataset"
            assert main([command, str(target)]) == 0
        assert len(counts) == max_cgs
        most.append(max(counts))
    assert most[0] == most[1]


@pytest.fixture
def unknown_label_inputs(tmp_path):
    """A run config over file inputs whose first gamma-CG has an unknown relation type."""
    staged = tmp_path / "staged"
    stage = {key: README_CONFIG[key] for key in ("seed", "autoVoc", "autoGcg")}
    stage_path = tmp_path / "stage.json"
    stage_path.write_text(json.dumps(stage))
    assert main(["auto-gcg", "--config", str(stage_path), "--out", str(staged)]) == 0
    gamma_path = staged / "gamma" / "gcg-0.json"
    doc = json.loads(gamma_path.read_text())
    doc["relations"][0]["type"] = "NoSuchRel"
    gamma_path.write_text(json.dumps(doc))
    config = {
        "seed": 1,
        "inputs": {"vocabulary": str(staged / "vocabulary.json"), "gammas": str(staged / "gamma")},
        "generator": README_CONFIG["generator"],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path, staged


def test_invalid_inputs_fail_before_any_output_file(
    tmp_path, monkeypatch, capsys, unknown_label_inputs
):
    config_path, _ = unknown_label_inputs
    out = tmp_path / "out"
    written_at_failure = []
    real = cli.generate_cgs

    def watched(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except StructureError:
            written_at_failure.append(sorted(out.rglob("*")))
            raise

    monkeypatch.setattr(cli, "generate_cgs", watched)
    capsys.readouterr()
    assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 1
    assert "unknown-relation-type" in capsys.readouterr().err
    assert written_at_failure == [[]]
    assert not out.exists()


def test_generate_cgs_checks_inputs_when_called(unknown_label_inputs):
    _, staged = unknown_label_inputs
    vocab = formats.load_vocabulary(staged / "vocabulary.json")
    gammas = [formats.load_gamma_cg(path) for path in sorted((staged / "gamma").glob("*.json"))]
    with pytest.raises(StructureError, match="unknown-relation-type"):
        generate_cgs(vocab, gammas, GeneratorConfig(max_cgs=2, min_size=30))

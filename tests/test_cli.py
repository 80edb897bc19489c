import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cggen import (
    GammaCG,
    Variable,
    VariableTarget,
    load_gamma_cg,
    load_vocabulary,
    save_gamma_cg,
    save_vocabulary,
)
from cggen import cli, formats, generator
from cggen.cli import main
from cggen.core import ConceptNode, ConceptualGraph, RelationNode
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_RELATION_TYPE
from oracles import cg_doc, derivations_text, parse_dot
from test_field_parity import read, source, write
from test_formats import batch_text

FULL_AUTO = {
    "seed": 424242,
    "autoVoc": {
        "conceptDepth": 4,
        "relationDepth": 3,
        "maxChildren": 3,
        "markersPerType": 3,
    },
    "autoGcg": {"count": 8, "minSize": 8},
    "autoVar": {
        "conceptVars": 1,
        "relationVars": 1,
        "markerVars": 1,
        "valuesPerVariable": 4,
        "specialisations": 2,
    },
    "generator": {"maxCGs": 6, "minSize": 20, "maxSpe": 2},
}


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def config_with(path, value, drop=()):
    """A copy of FULL_AUTO with the dotted ``path`` set to ``value``."""
    config = json.loads(json.dumps(FULL_AUTO))
    for section in drop:
        del config[section]
    *sections, key = path.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return config


# (dotted path, value, field the error names, sections to drop)
MALFORMED_RUN_VALUES = [
    ("generator.maxSpe", "x", "generator.maxSpe", ()),
    ("generator.maxSpe", None, "generator.maxSpe", ()),
    ("generator.maxSpe", [1], "generator.maxSpe", ()),
    ("generator.maxSpe", 2.7, "generator.maxSpe", ()),
    ("generator.maxSpe", True, "generator.maxSpe", ()),
    ("generator.maxCGs", True, "generator.maxCGs", ()),
    ("generator.minSize", True, "generator.minSize", ()),
    ("seed", True, "seed", ()),
    ("autoVoc.arities", [1, True], "autoVoc.arities[1]", ()),
    ("autoVoc.conceptDepth", {"mean": True}, "autoVoc.conceptDepth.mean", ()),
    ("autoGcg.count", {"mean": float("nan")}, "autoGcg.count.mean", ()),
    ("autoVar.markerVars", {"mean": None}, "autoVar.markerVars.mean", ()),
    ("autoVar.markerVars", {"mean": 3, "stddev": "q"}, "autoVar.markerVars.stddev", ()),
    ("inputs.vocabulary", 5, "inputs.vocabulary", ("autoVoc",)),
    ("inputs.vocabulary", ["v.json"], "inputs.vocabulary", ("autoVoc",)),
]


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenerate:
    def test_full_auto_writes_expected_layout(self, tmp_path, capsys):
        config = write_config(tmp_path, FULL_AUTO)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "vocabulary.json").is_file()
        assert sorted(p.name for p in (out / "gamma").iterdir()) == [
            f"gcg-{i}.json" for i in range(8)
        ]
        dataset = out / "dataset"
        assert sorted(p.name for p in dataset.iterdir()) == [
            *(f"cg-{i:04d}.json" for i in range(6)),
            "derivations.jsonl",
            "manifest.json",
        ]
        printed = capsys.readouterr().out
        assert "seed: 424242" in printed
        assert "NbN" in printed

    def test_same_seed_identical_directories(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["generate", "--config", str(config), "--out", str(one)]) == 0
        assert main(["generate", "--config", str(config), "--out", str(two)]) == 0
        assert tree_bytes(one) == tree_bytes(two)

    def test_jobs_1_gives_the_default_bytes(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["generate", "--config", str(config), "--out", str(one)]) == 0
        assert (
            main(["generate", "--config", str(config), "--out", str(two), "--jobs", "1"])
            == 0
        )
        assert tree_bytes(one) == tree_bytes(two)

    @pytest.mark.parametrize("jobs", ["0", "-3", "4"])
    def test_jobs_other_than_1_exit_2(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, FULL_AUTO)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["generate", "--config", str(config), "--out", str(out), "--jobs", jobs])
        assert exited.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        assert "--jobs" not in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["generate", "--config", str(config), "--out", str(one)]) == 0
        assert (
            main(
                ["generate", "--config", str(config), "--out", str(two), "--seed", "1"]
            )
            == 0
        )
        assert tree_bytes(one) != tree_bytes(two)

    @pytest.mark.parametrize("seed", ["x", True, 1.5])
    def test_malformed_seed_rejected_under_seed_override(self, tmp_path, capsys, seed):
        config = write_config(tmp_path, dict(FULL_AUTO, seed=seed))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, path, value, drop, message",
        [
            ("generate", "inputs.gammas", [], (), "exactly one gamma-CG source is required"),
            ("generate", "inputs.vocabulary", "", (), "exactly one vocabulary source is required"),
            ("generate", "inputs.gammas", [], ("autoGcg",), "inputs.gammas lists no files"),
            ("auto-var", "inputs.gammas", [], ("autoGcg",), "inputs.gammas lists no files"),
            ("generate", "inputs.gammas", "", ("autoGcg",), "inputs.gammas must not be empty"),
            ("auto-var", "inputs.gammas", "", ("autoGcg",), "inputs.gammas must not be empty"),
            (
                "generate",
                "inputs.vocabulary",
                "",
                ("autoVoc",),
                "inputs.vocabulary must not be empty",
            ),
        ],
    )
    def test_empty_source_counts_as_given(
        self, tmp_path, capsys, command, path, value, drop, message
    ):
        config = write_config(tmp_path, config_with(path, value, drop))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_both_vocabulary_sources_rejected(self, tmp_path):
        config = dict(FULL_AUTO)
        config["inputs"] = {"vocabulary": "voc.json"}
        path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_both_gamma_sources_rejected(self, tmp_path):
        config = dict(FULL_AUTO)
        config["inputs"] = {"gammas": "gamma"}
        path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_no_gamma_source_rejected(self, tmp_path):
        config = {k: v for k, v in FULL_AUTO.items() if k != "autoGcg"}
        path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = dict(FULL_AUTO)
        config["generater"] = config.pop("generator")
        path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        # The generator has no relation-domain policy; auto-var always builds
        # signature-compatible relation domains.
        generator_section = dict(FULL_AUTO["generator"], relationDomainPolicy="arity-only")
        path = write_config(tmp_path, dict(FULL_AUTO, generator=generator_section), "policy.json")
        capsys.readouterr()
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "p")]) == 2
        assert "unknown keys in generator: relationDomainPolicy" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert (
            main(
                [
                    "generate",
                    "--config",
                    str(tmp_path / "absent.json"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 2
        )

    def test_nonempty_out_dir_rejected(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        out = tmp_path / "out"
        out.mkdir()
        (out / "leftover.txt").write_text("x")
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2

    def test_entropy_seed_echoed(self, tmp_path, capsys):
        config = {k: v for k, v in FULL_AUTO.items() if k != "seed"}
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("seed: ")
        echoed = int(line.split(":")[1])
        manifest = json.loads((out / "dataset" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == echoed

    def test_null_inputs_read_as_none(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        null = write_config(tmp_path, dict(FULL_AUTO, inputs=None), "null.json")
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["generate", "--config", str(config), "--out", str(one)]) == 0
        assert main(["generate", "--config", str(null), "--out", str(two)]) == 0
        assert tree_bytes(one) == tree_bytes(two)

    @pytest.mark.parametrize(
        "command, path, value, message",
        [
            ("generate", "generator.maxSpe", "x", "generator.maxSpe must be an integer"),
            ("generate", "autoVar.markerVars", "x", "autoVar.markerVars must be a number"),
            ("generate", "inputs.gammas", 5, "inputs.gammas must be a directory"),
            ("auto-gcg", "autoGcg.count", "x", "autoGcg.count must be a number"),
        ],
    )
    def test_sections_checked_before_the_first_stage(
        self, tmp_path, monkeypatch, capsys, command, path, value, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("auto_vocabulary ran although the config is malformed")

        monkeypatch.setattr(cli, "auto_vocabulary", unreachable)
        drop = ("autoGcg",) if path.startswith("inputs.") else ()
        config = write_config(tmp_path, config_with(path, value, drop))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("generator.maxCGs", 0, "generator.maxCGs: max_cgs must be >= 1"),
            ("generator.minSize", 0, "generator.minSize: min_size must be >= 1"),
            ("generator.maxSpe", -1, "generator.maxSpe: max_spe must be >= 0"),
            (
                "autoVar.markerVars",
                {"mean": 2, "stddev": -1},
                "autoVar.markerVars.stddev: stddev must be >= 0",
            ),
            ("autoVoc.arities", [1, 0], "autoVoc.arities: arities must be positive"),
            ("autoVoc.arities", [], "autoVoc: at least one relation arity is required"),
        ],
    )
    def test_range_error_names_the_key(self, tmp_path, capsys, path, value, message):
        config = write_config(tmp_path, config_with(path, value))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_first_missing_key_named_whatever_the_hash_seed(self, tmp_path, hash_seed):
        # The keys of a section are checked in the field order of its record,
        # not in the order of a set, which depends on how strings hash.
        config = config_with("autoVar.conceptVars", 1)
        del config["autoVar"]["valuesPerVariable"], config["autoVar"]["specialisations"]
        path = write_config(tmp_path, config)
        code = "import sys; from cggen.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["generate", "--config", str(path), "--out", str(tmp_path / "o")]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 2
        assert done.stderr == "error: autoVar.valuesPerVariable is required\n"


    @pytest.mark.parametrize(
        "path, value, field, drop",
        MALFORMED_RUN_VALUES,
        ids=[f"{path}={json.dumps(value)}" for path, value, _, _ in MALFORMED_RUN_VALUES],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, path, value, field, drop):
        config = write_config(tmp_path, config_with(path, value, drop))
        out = tmp_path / "out"
        # An uncaught exception would propagate out of main as a traceback.
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be" in err
        assert not out.exists()


class TestHandWrittenInputs:
    """``cggen generate`` and ``cggen auto-var`` on gamma-CG files written by hand."""

    @staticmethod
    def inputs(tmp_path, tiny_vocab, gammas):
        """A run config reading tiny_vocab and ``gammas``, each from a file of its own."""
        directory = tmp_path / "inputs"
        directory.mkdir()
        save_vocabulary(directory / "vocabulary.json", tiny_vocab)
        paths = []
        for index, gcg in enumerate(gammas):
            paths.append(str(directory / f"in-{index}.json"))
            save_gamma_cg(paths[-1], gcg)
        return {
            "seed": 1,
            "inputs": {"vocabulary": str(directory / "vocabulary.json"), "gammas": paths},
            "generator": {"maxCGs": 3, "minSize": 8},
        }

    @staticmethod
    def gamma(name, variables=()):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Person"), "c1": ConceptNode("c1", "Place")},
            {"r0": RelationNode("r0", "locatedIn", ("c0", "c1"))},
        )
        return GammaCG(name, graph, tuple(variables))

    @pytest.mark.parametrize("command", ["generate", "auto-var"])
    @pytest.mark.parametrize(
        "names, line",
        [
            (["../../escaped"], "../../escaped: bad-name: '../../escaped' is not a plain file name"),
            (["sub/gcg"], "sub/gcg: bad-name: 'sub/gcg' is not a plain file name"),
            ([".."], "..: bad-name: '..' is not a plain file name"),
            (
                ["gcg-0", "gcg-1", "gcg-0"],
                "gcg-0: duplicate-name: an earlier gamma-CG is named 'gcg-0'",
            ),
        ],
        ids=["escapes-out", "sub-directory", "parent", "repeated"],
    )
    def test_gamma_name_that_is_no_distinct_file_name_exit_1(
        self, tmp_path, tiny_vocab, capsys, command, names, line
    ):
        # A gamma-CG is saved as gamma/<name>.json: "../../escaped" under
        # --out o2/x would write o2/escaped.json, and a repeated name would
        # overwrite a file. Both are refused before anything is written.
        config = self.inputs(tmp_path, tiny_vocab, [self.gamma(name) for name in names])
        if command == "auto-var":
            config["autoVar"] = FULL_AUTO["autoVar"]
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "o2" / "x"
        argv = [command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        assert line in capsys.readouterr().err.splitlines()
        assert sorted(tmp_path.rglob("*")) == [*before, tmp_path / "run.json"]

    def test_valid_inputs_that_never_draw_exit_1(self, tmp_path, tiny_vocab, capsys):
        # Valid, yet never drawable: c1, under a concept variable, leaves
        # knows admissible on r0, and knows then bounds c1 by Person, which
        # Place is not.
        broken = self.gamma(
            "broken",
            [
                Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows",)),
                Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c1"), ("Place",)),
            ],
        )
        config = write_config(tmp_path, self.inputs(tmp_path, tiny_vocab, [broken]))
        inputs = tmp_path / "inputs"
        vocab = str(inputs / "vocabulary.json")
        assert main(["validate", str(inputs / "in-0.json"), "--vocab", vocab]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: every gamma-CG failed instantiation repeatedly\n"
        )
        assert not out.exists()


class TestStages:
    def test_auto_voc_structure(self, tmp_path):
        config = write_config(
            tmp_path,
            {"seed": 5, "autoVoc": FULL_AUTO["autoVoc"]},
        )
        out = tmp_path / "voc-out"
        assert main(["auto-voc", "--config", str(config), "--out", str(out)]) == 0
        vocab = load_vocabulary(out / "vocabulary.json")
        concepts = vocab.concepts
        assert max(len(concepts.up[t]) - 1 for t in concepts.labels) == 3  # 4 levels
        marker_counts = {}
        for marker in vocab.markers.values():
            marker_counts[marker.type_id] = marker_counts.get(marker.type_id, 0) + 1
        assert all(count == 3 for count in marker_counts.values())

    def test_stages_chain_via_files(self, tmp_path):
        voc_cfg = write_config(
            tmp_path, {"seed": 5, "autoVoc": FULL_AUTO["autoVoc"]}, "voc.json"
        )
        out1 = tmp_path / "s1"
        assert main(["auto-voc", "--config", str(voc_cfg), "--out", str(out1)]) == 0

        gcg_cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "autoGcg": FULL_AUTO["autoGcg"],
                "inputs": {"vocabulary": str(out1 / "vocabulary.json")},
            },
            "gcg.json",
        )
        out2 = tmp_path / "s2"
        assert main(["auto-gcg", "--config", str(gcg_cfg), "--out", str(out2)]) == 0
        gamma_files = sorted((out2 / "gamma").glob("*.json"))
        assert len(gamma_files) == 8

        var_cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "autoVar": FULL_AUTO["autoVar"],
                "inputs": {
                    "vocabulary": str(out2 / "vocabulary.json"),
                    "gammas": str(out2 / "gamma"),
                },
            },
            "var.json",
        )
        out3 = tmp_path / "s3"
        assert main(["auto-var", "--config", str(var_cfg), "--out", str(out3)]) == 0
        before = [load_gamma_cg(p) for p in gamma_files]
        after = [load_gamma_cg(p) for p in sorted((out3 / "gamma").glob("*.json"))]
        for a, b in zip(before, after):
            assert len(b.variables) == len(a.variables) + 3

        gen_cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "generator": FULL_AUTO["generator"],
                "inputs": {
                    "vocabulary": str(out3 / "vocabulary.json"),
                    "gammas": str(out3 / "gamma"),
                },
            },
            "gen.json",
        )
        out4 = tmp_path / "s4"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(out4)]) == 0
        assert main(["validate", str(out4)]) == 0

    def test_auto_var_on_already_variable_gammas(self, tmp_path):
        # Running the stage twice increases the counts again.
        voc_cfg = write_config(
            tmp_path,
            {
                "seed": 6,
                "autoVoc": FULL_AUTO["autoVoc"],
                "autoGcg": FULL_AUTO["autoGcg"],
                "autoVar": FULL_AUTO["autoVar"],
                "generator": FULL_AUTO["generator"],
            },
        )
        out1 = tmp_path / "r1"
        assert main(["generate", "--config", str(voc_cfg), "--out", str(out1)]) == 0
        var_cfg = write_config(
            tmp_path,
            {
                "seed": 7,
                "autoVar": FULL_AUTO["autoVar"],
                "inputs": {
                    "vocabulary": str(out1 / "vocabulary.json"),
                    "gammas": str(out1 / "gamma"),
                },
            },
            "var2.json",
        )
        out2 = tmp_path / "r2"
        assert main(["auto-var", "--config", str(var_cfg), "--out", str(out2)]) == 0
        before = [load_gamma_cg(p) for p in sorted((out1 / "gamma").glob("*.json"))]
        after = [load_gamma_cg(p) for p in sorted((out2 / "gamma").glob("*.json"))]
        for a, b in zip(before, after):
            assert len(b.variables) == len(a.variables) + 3

    def test_auto_gcg_without_relation_types(self, tmp_path, tiny_vocab):
        from cggen import Vocabulary

        empty = Vocabulary(tiny_vocab.concepts, {}, {}, {})
        voc_path = tmp_path / "voc.json"
        save_vocabulary(voc_path, empty)
        config = write_config(
            tmp_path,
            {
                "seed": 1,
                "autoGcg": {"count": 2, "minSize": 4},
                "inputs": {"vocabulary": str(voc_path)},
            },
        )
        assert (
            main(["auto-gcg", "--config", str(config), "--out", str(tmp_path / "o")])
            == 2
        )


class TestPartialOutputRemoved:
    """A command that fails leaves --out as it found it."""

    @pytest.fixture
    def configs(self, tmp_path):
        staged = tmp_path / "staged"
        gcg_cfg = write_config(
            tmp_path,
            {"seed": 5, "autoVoc": FULL_AUTO["autoVoc"], "autoGcg": FULL_AUTO["autoGcg"]},
            "gcg.json",
        )
        assert main(["auto-gcg", "--config", str(gcg_cfg), "--out", str(staged)]) == 0
        var_doc = {
            "seed": 5,
            "autoVar": FULL_AUTO["autoVar"],
            "inputs": {
                "vocabulary": str(staged / "vocabulary.json"),
                "gammas": str(staged / "gamma"),
            },
        }
        return {
            "generate": write_config(tmp_path, FULL_AUTO),
            "auto-voc": write_config(
                tmp_path, {"seed": 5, "autoVoc": FULL_AUTO["autoVoc"]}, "voc.json"
            ),
            "auto-gcg": gcg_cfg,
            "auto-var": write_config(tmp_path, var_doc, "var.json"),
        }

    @pytest.mark.parametrize("existed", [False, True], ids=["out-absent", "out-empty"])
    @pytest.mark.parametrize("command", ["generate", "auto-voc", "auto-gcg", "auto-var"])
    def test_failed_save_removes_what_it_wrote(
        self, configs, tmp_path, monkeypatch, command, existed
    ):
        save_vocabulary = formats.save_vocabulary

        def save_then_fail(path, vocab):
            save_vocabulary(path, vocab)
            assert path.is_file()
            raise OSError("disk full")

        monkeypatch.setattr(formats, "save_vocabulary", save_then_fail)
        out = tmp_path / "out"
        if existed:
            out.mkdir()
        with pytest.raises(OSError, match="disk full"):
            main([command, "--config", str(configs[command]), "--out", str(out)])
        if existed:
            assert out.is_dir()
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()

    def test_config_error_removes_created_parents(self, tmp_path):
        # --out is entered before the config is checked, so a bad config
        # must remove every directory that --out created.
        config = write_config(tmp_path, {**FULL_AUTO, "generator": {"maxCGs": 0}})
        out = tmp_path / "new" / "nested" / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "command, work",
        [
            ("generate", "generate_cgs"),
            ("auto-voc", "auto_vocabulary"),
            ("auto-gcg", "auto_gamma_cgs"),
            ("auto-var", "auto_variables"),
        ],
    )
    def test_nonempty_out_rejected_before_work(
        self, configs, tmp_path, monkeypatch, capsys, command, work
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{work} ran although --out is not empty")

        monkeypatch.setattr(cli, work, unreachable)
        out = tmp_path / "out"
        out.mkdir()
        (out / "leftover.txt").write_text("x")
        assert main([command, "--config", str(configs[command]), "--out", str(out)]) == 2
        assert "is not empty" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["leftover.txt"]


class TestValidateStatsDot:
    @pytest.fixture
    def generated(self, tmp_path):
        config = write_config(tmp_path, FULL_AUTO)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_validate_generated_output(self, generated):
        assert main(["validate", str(generated)]) == 0

    def test_validate_and_generator_report_the_same_domain_violation(
        self, generated, capsys
    ):
        path = generated / "gamma" / "gcg-0.json"
        doc = json.loads(path.read_text())
        doc["variables"][0]["domain"] = ["no-such-label"]
        path.write_text(json.dumps(doc))
        vocab_path = generated / "vocabulary.json"
        expected = generator.validate_inputs(load_vocabulary(vocab_path), [load_gamma_cg(path)])
        assert len(expected) == 1 and "inadmissible-value" in expected[0]
        directory_argv = ["validate", str(generated)]
        file_argv = ["validate", str(path), "--vocab", str(vocab_path)]
        for argv in (directory_argv, file_argv):
            capsys.readouterr()
            assert main(argv) == 1
            lines = capsys.readouterr().out.splitlines()
            assert [line.replace(str(path), "gcg-0") for line in lines] == expected

    def test_validate_vocabulary_with_repeated_parent(self, tiny_vocab, tmp_path, capsys):
        path = tmp_path / "voc.json"
        save_vocabulary(path, tiny_vocab)
        doc = json.loads(path.read_text())
        entry = next(item for item in doc["conceptTypes"]["types"] if item["parents"])
        entry["parents"] = entry["parents"] * 2
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        expected = f"type {entry['id']!r} lists parent {entry['parents'][0]!r} twice"
        assert line.startswith(f"{path}: ") and line.endswith(expected)

    def test_validate_broken_cg_file(self, generated, tmp_path, capsys):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "NoSuchType")}, {})
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cg_doc(graph)))
        rc = main(
            ["validate", str(path), "--vocab", str(generated / "vocabulary.json")]
        )
        assert rc == 1
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 1
        assert "unknown-concept-type" in lines[0]

    def test_validate_cg_without_vocab_is_config_error(self, generated, tmp_path):
        dataset_file = next((generated / "dataset").glob("cg-*.json"))
        assert main(["validate", str(dataset_file)]) == 2

    def test_validate_parses_each_file_once(self, generated, monkeypatch):
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
        vocab = generated / "vocabulary.json"
        files = [generated / "dataset" / "cg-0000.json", generated / "gamma" / "gcg-0.json", vocab]
        assert main(["validate", "--vocab", str(vocab), *map(str, files)]) == 0
        # --vocab's file, then each argument's.
        assert parsed == [path.read_text() for path in [vocab, *files]]

    @pytest.mark.parametrize(
        "name, vocab, message",
        [
            ("dataset/cg-0000.json", False, "--vocab is required to validate a cg file"),
            ("gamma/gcg-0.json", False, "--vocab is required to validate a gamma-cg file"),
            ("dataset/manifest.json", True, "cannot validate documents of kind 'dataset-manifest'"),
            # Its header line names the kind of a file that is no one JSON value.
            ("dataset/derivations.jsonl:1", True, "cannot validate documents of kind 'derivations'"),
        ],
    )
    def test_file_refused_before_its_fields_are_checked(
        self, generated, capsys, name, vocab, message
    ):
        # The formatVersion is gone too, so a load would fail on it first.
        doc = json.loads(read(generated, name))
        del doc["formatVersion"]
        write(generated, name, json.dumps(doc))
        path, _ = source(generated, name)
        argv = ["validate", str(path)]
        if vocab:
            argv += ["--vocab", str(generated / "vocabulary.json")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_stats_zero_stddev_for_identical_cgs(self, generated, tmp_path, capsys):
        from cggen import (
            GenerationProvenance,
            GeneratorConfig,
            compute_stats,
            load_cg,
            load_dataset,
            save_dataset,
        )

        graph = load_cg(generated / "dataset" / "cg-0000.json")
        directory = tmp_path / "twins"
        save_dataset(
            directory,
            [graph, graph],
            config=GeneratorConfig(max_cgs=2, min_size=1, seed=0),
            provenances=[GenerationProvenance(draws=())] * 2,
            stats=compute_stats([graph, graph]),
        )
        derivations = (directory / "derivations.jsonl").read_text(encoding="utf-8")
        assert derivations == derivations_text([GenerationProvenance(())] * 2)
        assert load_dataset(directory).graphs == (graph, graph)
        capsys.readouterr()
        assert main(["stats", str(directory)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert "± 0.0" in row

    def test_export_dot_stdout_and_file(self, generated, tmp_path, capsys):
        source = str(generated / "dataset" / "cg-0000.json")
        assert main(["export-dot", source]) == 0
        text = capsys.readouterr().out
        parse_dot(text)
        target = tmp_path / "cg.gv"
        assert main(["export-dot", source, "--out", str(target)]) == 0
        assert target.read_text() == text


class TestUnwritableOutput:
    """An output path the OS refuses is a configuration error, exit 2."""

    def test_export_dot_into_missing_directory(self, tmp_path, capsys):
        source = tmp_path / "cg.json"
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top")}, {})
        source.write_text(json.dumps(cg_doc(graph)))
        target = tmp_path / "missing-dir" / "x.dot"
        capsys.readouterr()
        assert main(["export-dot", str(source), "--out", str(target)]) == 2
        assert f"cannot write {target}: No such file or directory" in capsys.readouterr().err
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["generate", "auto-voc", "auto-gcg", "auto-var"])
    def test_out_under_a_regular_file(self, tmp_path, capsys, command):
        blocker = tmp_path / "file.json"
        blocker.write_text("{}")
        out = blocker / "sub"
        config = write_config(tmp_path, FULL_AUTO)
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}: Not a directory" in err
        assert blocker.read_text() == "{}"


def _drop_nodes_mean(out):
    path = out / "dataset" / "manifest.json"
    doc = json.loads(path.read_text())
    del doc["stats"]["nbNodes"]["mean"]
    path.write_text(json.dumps(doc))
    return "manifest.json", "stats.nbNodes.mean"


def _edit_manifest(out, edit):
    path = out / "dataset" / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _list_max_cgs(out):
    _edit_manifest(out, lambda doc: doc["config"].update(maxCGs=[]))
    return "manifest.json", "field config.maxCGs must be int, found list"


def _cg_file_outside(label, name):
    """A mutation listing ``name`` as ``cgFiles[1]``, beside a copy of cg-0001 outside the dataset."""

    def mutate(out):
        dataset = out / "dataset"
        shutil.copy(dataset / "cg-0001.json", out / "outside.json")
        listed = name.replace("{out}", str(out))
        _edit_manifest(out, lambda doc: doc["cgFiles"].__setitem__(1, listed))
        return "manifest.json", "cgFiles[1]"

    mutate.__name__ = f"_cg_file_{label}"
    return mutate


def _duplicate_cg_file(out):
    _edit_manifest(out, lambda doc: doc["cgFiles"].__setitem__(1, doc["cgFiles"][0]))
    return "manifest.json", "duplicate 'cg-0000.json' at cgFiles[1]"


def _bool_seed(out):
    _edit_manifest(out, lambda doc: doc["config"].update(seed=True))
    return "manifest.json", "field config.seed must be int, found bool"


def _nan_nodes_mean(out):
    # json.loads reads the NaN that json.dumps writes.
    _edit_manifest(out, lambda doc: doc["stats"]["nbNodes"].update(mean=float("nan")))
    return "manifest.json", "field stats.nbNodes.mean must be int or float, found nan"


def _huge_nodes_mean(out):
    # An integer beyond the float range, which json.loads reads exactly.
    _edit_manifest(out, lambda doc: doc["stats"]["nbNodes"].update(mean=10**400))
    return "manifest.json", "field stats.nbNodes.mean must be int or float, found 1000"


def _negative_max_cgs(out):
    _edit_manifest(out, lambda doc: doc["config"].update(maxCGs=-7))
    return "manifest.json", "field config.maxCGs must be int >= 1, found -7"


def _negative_nodes_stddev(out):
    _edit_manifest(out, lambda doc: doc["stats"]["nbNodes"].update(stddev=-1.0))
    return "manifest.json", "field stats.nbNodes.stddev must be int or float >= 0, found -1.0"


def _edit_first_derivation(out, edit):
    """Edit line 2 of the derivations file, the derivation of cg-0000.json."""
    doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
    edit(doc)
    write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))


def _drop_last_derivation(out):
    path = out / "dataset" / "derivations.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return "derivations.jsonl", "no line 7, the derivation of cg-0005.json"


def _null_derivation(out):
    write(out / "dataset", "derivations.jsonl:2", "null")
    return "derivations.jsonl:2", "top-level value must be an object"


def _drop_derivations_file(out):
    (out / "dataset" / "derivations.jsonl").unlink()
    return "derivations.jsonl", "no such file"


def _empty_derivations_file(out):
    (out / "dataset" / "derivations.jsonl").write_text("")
    return "derivations.jsonl:1:1", "Expecting value"


def _extra_derivation_line(out):
    path = out / "dataset" / "derivations.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]))
    return "derivations.jsonl", "more lines than a header and one per CG"


def _format_1_derivations_header(out):
    write(out / "dataset", "derivations.jsonl:1", '{"formatVersion": "1.0.0", "kind": "derivations"}')
    return "derivations.jsonl:1", "unsupported major version '1.0.0'"


def _provenance_header(out):
    write(out / "dataset", "derivations.jsonl:1", '{"formatVersion": "3.0.0", "kind": "provenance"}')
    return "derivations.jsonl:1", "expected kind 'derivations', found 'provenance'"


def _derivations_not_utf8(out):
    path = out / "dataset" / "derivations.jsonl"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return "derivations.jsonl", "not UTF-8 text"


def _directory_for_derivations_file(out):
    path = out / "dataset" / "derivations.jsonl"
    path.unlink()
    path.mkdir()
    return "derivations.jsonl", "cannot read: Is a directory"


def _deeply_nested_derivation(out):
    write(out / "dataset", "derivations.jsonl:2", "[" * 200000 + "]" * 200000)
    return "derivations.jsonl:2", "nested too deeply to read"


def _cut_derivation(out):
    # A line cut short, as a write that stopped part way leaves it; the
    # decoder's message differs between Python versions, its position not.
    text = read(out / "dataset", "derivations.jsonl:3")
    write(out / "dataset", "derivations.jsonl:3", text[: len(text) // 2])
    return "derivations.jsonl", "derivations.jsonl:3:"


def _drop_draw_gamma(out):
    _edit_first_derivation(out, lambda doc: doc["draws"][0].pop("gamma"))
    return "derivations.jsonl:2", "draws[0].gamma"


def _string_specialisation_steps(out):
    _edit_first_derivation(
        out, lambda doc: doc["draws"][0].update(specialisations={"concept-type:c0": "two"})
    )
    return "derivations.jsonl:2", "draws[0].specialisations.concept-type:c0"


def _bool_step(out):
    _edit_first_derivation(
        out, lambda doc: doc["draws"][0].update(specialisations={"concept-type:c0": False})
    )
    return "derivations.jsonl:2", "draws[0].specialisations.concept-type:c0 must be int"


def _negative_step(out):
    # Each step goes one type down, so no count of them is negative.
    doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
    steps = doc["draws"][0]["specialisations"]
    slot = next(iter(steps))
    steps[slot] = -7
    write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))
    message = f"field draws[0].specialisations.{slot} must be int >= 0, found -7"
    return "derivations.jsonl:2", message


def _first_merge(doc):
    """The index of cg-0000's first draw that merges a node, and that node's id."""
    j = next(j for j, draw in enumerate(doc["draws"]) if draw["merged"])
    return j, next(iter(doc["draws"][j]["merged"]))


def _int_kept_id(out):
    doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
    j, other = _first_merge(doc)
    doc["draws"][j]["merged"][other] = 4
    write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))
    return "derivations.jsonl:2", f"field draws[{j}].merged.{other} must be str, found int"


def _string_skipped_kept_ids(out):
    _edit_first_derivation(out, lambda doc: doc["draws"][0].update(skippedMerges={"c1": "c0"}))
    return "derivations.jsonl:2", "field draws[0].skippedMerges.c1 must be list, found str"


def _format_2_merge_triples(out):
    # Format 2 wrote each merge as a [marker, kept, absorbed] triple.
    doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
    j, other = _first_merge(doc)
    kept = doc["draws"][j]["merged"][other]
    doc["draws"][j]["merged"] = [["m", kept, other]]
    write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))
    return "derivations.jsonl:2", f"field draws[{j}].merged must be dict, found list"


def _bool_arity(out):
    # true equals 1, the arity of relationTypes[0].
    path = out / "vocabulary.json"
    doc = json.loads(path.read_text())
    assert doc["relationTypes"][0]["arity"] == 1
    doc["relationTypes"][0]["arity"] = True
    path.write_text(json.dumps(doc))
    return "vocabulary.json", "relationTypes[0].arity must be int, found bool"


def _set_first_assignment(out, value):
    doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
    for j, draw in enumerate(doc["draws"]):
        if draw["assignments"]:
            name = next(iter(draw["assignments"]))
            draw["assignments"][name] = value
            write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))
            return "derivations.jsonl:2", f"draws[{j}].assignments.{name}"
    raise AssertionError("no draw with assignments")


def _int_assignment(out):
    return _set_first_assignment(out, 5)


def _list_assignment(out):
    return _set_first_assignment(out, [1])


def _unhashable_relation_arg(out):
    path = out / "dataset" / "cg-0000.json"
    doc = json.loads(path.read_text())
    doc["relations"][0]["args"] = [[1]]
    path.write_text(json.dumps(doc))
    return "cg-0000.json", "relations[0].args[0] must be str, found list"


def _number_relation_arg(out):
    path = out / "dataset" / "cg-0000.json"
    doc = json.loads(path.read_text())
    doc["relations"][0]["args"][0] = 7
    path.write_text(json.dumps(doc))
    return "cg-0000.json", "relations[0].args[0] must be str, found int"


def _not_utf8(out):
    path = out / "dataset" / "cg-0000.json"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return "cg-0000.json", "not UTF-8 text"


def _directory_for_file(out):
    path = out / "dataset" / "cg-0000.json"
    path.unlink()
    path.mkdir()
    return "cg-0000.json", "cannot read: Is a directory"


def _duplicate_concept_id(out):
    path = out / "dataset" / "cg-0000.json"
    doc = json.loads(path.read_text())
    doc["concepts"].append(dict(doc["concepts"][0]))
    path.write_text(json.dumps(doc))
    index = len(doc["concepts"]) - 1
    return "cg-0000.json", f"duplicate node id {doc['concepts'][0]['id']!r} at concepts[{index}].id"


def _duplicate_relation_id(out):
    # A second r0 with another relation's type and arguments: a valid graph
    # once either copy is dropped.
    path = out / "dataset" / "cg-0000.json"
    doc = json.loads(path.read_text())
    first = doc["relations"][0]
    other = next(r for r in doc["relations"] if r["type"] != first["type"])
    doc["relations"].append(dict(other, id=first["id"]))
    path.write_text(json.dumps(doc))
    index = len(doc["relations"]) - 1
    return "cg-0000.json", f"duplicate node id {first['id']!r} at relations[{index}].id"


def _deeply_nested(out):
    path = out / "dataset" / "cg-0000.json"
    path.write_text("[" * 200000 + "]" * 200000)
    return "cg-0000.json", "nested too deeply to read"


def _mixed_domain(out):
    path = out / "gamma" / "gcg-0.json"
    doc = json.loads(path.read_text())
    doc["variables"][0]["domain"] = [1, "a"]
    path.write_text(json.dumps(doc))
    return "gcg-0.json", "variables[0].domain[0]"


def _variable_target(doc, kind):
    return next(v["target"]["node"] for v in doc["variables"] if v["target"]["kind"] == kind)


def _relation_variable_on_unknown_type(doc):
    node = _variable_target(doc, "relation-type")
    next(r for r in doc["relations"] if r["id"] == node)["type"] = "NoSuchRel"
    return "unknown-relation-type"


def _concept_variable_under_unknown_type(doc):
    node = _variable_target(doc, "concept-type")
    free = _variable_target(doc, "relation-type")
    relation = next(r for r in doc["relations"] if node in r["args"] and r["id"] != free)
    relation["type"] = "NoSuchRel"
    return "unknown-relation-type"


def _marker_variable_on_unknown_marker(doc):
    node = _variable_target(doc, "marker")
    next(c for c in doc["concepts"] if c["id"] == node)["marker"] = "NoSuchMarker"
    return "unknown-marker"


def _batch_end_cg_fault(out):
    # cg-0001.json ends the first read batch under TestMalformedDataset's split bound.
    path = out / "dataset" / "cg-0001.json"
    doc = json.loads(path.read_text())
    doc["relations"][0]["args"][0] = 7
    path.write_text(json.dumps(doc))
    return "cg-0001.json", "relations[0].args[0] must be str, found int"


def _batch_start_line_fault(out):
    # The line of cg-0002.json, which starts the second batch under the split bound.
    write(out / "dataset", "derivations.jsonl:4", "null")
    return "derivations.jsonl:4", "top-level value must be an object"


def _faults_across_a_batch_edge(out):
    _batch_start_line_fault(out)
    return _batch_end_cg_fault(out)


# Each breaks one document or line of a generated output, and returns the
# file and the field its error names.
MALFORMED_DATASETS = [
    _drop_nodes_mean,
    _list_max_cgs,
    _cg_file_outside("absolute", "{out}/outside.json"),
    _cg_file_outside("parent", "../outside.json"),
    _cg_file_outside("dot", "."),
    _duplicate_cg_file,
    _bool_seed,
    _nan_nodes_mean,
    _huge_nodes_mean,
    _negative_max_cgs,
    _negative_nodes_stddev,
    _drop_last_derivation,
    _null_derivation,
    _drop_derivations_file,
    _empty_derivations_file,
    _extra_derivation_line,
    _format_1_derivations_header,
    _provenance_header,
    _derivations_not_utf8,
    _directory_for_derivations_file,
    _deeply_nested_derivation,
    _cut_derivation,
    _drop_draw_gamma,
    _string_specialisation_steps,
    _bool_step,
    _negative_step,
    _int_kept_id,
    _string_skipped_kept_ids,
    _format_2_merge_triples,
    _int_assignment,
    _list_assignment,
    _unhashable_relation_arg,
    _number_relation_arg,
    _not_utf8,
    _directory_for_file,
    _duplicate_concept_id,
    _duplicate_relation_id,
    _deeply_nested,
    _batch_end_cg_fault,
    _batch_start_line_fault,
    _faults_across_a_batch_edge,
]


class TestMalformedDataset:
    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pristine")
        config = write_config(root, FULL_AUTO)
        out = root / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        return out

    def check_exit_2(self, pristine, tmp_path, capsys, mutate, argv):
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        file_name, field = mutate(out)
        capsys.readouterr()
        assert main([argv[0], str(out / argv[1])]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert file_name in err and field in err
        return err

    @pytest.mark.parametrize("argv", [("validate", ""), ("stats", "dataset")])
    @pytest.mark.parametrize("mutate", MALFORMED_DATASETS)
    def test_dataset_format_error_exit_2(self, pristine, tmp_path, capsys, argv, mutate):
        self.check_exit_2(pristine, tmp_path, capsys, mutate, argv)

    @pytest.fixture(scope="class")
    def split_bound(self, pristine):
        """A read batch bound that ends the first batch with cg-0001.json."""
        return batch_text(pristine / "dataset", 2)

    def test_split_bound_ends_the_first_batch_with_cg_0001(
        self, pristine, split_bound, monkeypatch
    ):
        dataset = pristine / "dataset"
        names = json.loads((dataset / "manifest.json").read_text())["cgFiles"]
        path = dataset / "derivations.jsonl"
        monkeypatch.setattr(formats, "_READ_BATCH_BYTES", split_bound)
        with path.open("rb") as lines:
            lines.readline()
            batches = formats._batches(dataset, names, lines, path)
            first, second = next(batches), next(batches)
        assert [entry[0] for entry in first] == ["cg-0000.json", "cg-0001.json"]
        assert second[0][0] == "cg-0002.json"

    @pytest.mark.parametrize("command", ["validate", "stats"])
    @pytest.mark.parametrize("mutate", MALFORMED_DATASETS)
    def test_read_batches_answer_as_one_cg_at_a_time(
        self, pristine, split_bound, tmp_path, capsys, monkeypatch, command, mutate
    ):
        # A bound of 0 reads each CG alone; the others batch them.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        mutate(out)
        target = out if command == "validate" else out / "dataset"
        answers = []
        for bound in (0, split_bound, formats._READ_BATCH_BYTES):
            monkeypatch.setattr(formats, "_READ_BATCH_BYTES", bound)
            capsys.readouterr()
            code = main([command, str(target)])
            answers.append((code, *capsys.readouterr()))
        assert answers[1:] == answers[:1] * 2

    def test_cgs_checked_against_the_manifest_config_exit_1(self, pristine, tmp_path, capsys):
        # cggen validate counts and sizes the CGs against the manifest's own
        # config, naming the file at fault.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        dataset = out / "dataset"
        names = json.loads((dataset / "manifest.json").read_text())["cgFiles"]
        sizes = [formats.load_cg(dataset / name).size for name in names]
        _edit_manifest(out, lambda doc: doc["config"].update(minSize=min(sizes)))
        assert main(["validate", str(out)]) == 0
        _edit_manifest(out, lambda doc: doc["config"].update(maxCGs=7, minSize=100000))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{dataset / 'manifest.json'}: count-mismatch: cgCount {len(names)} is not"
            " config.maxCGs 7",
            *(
                f"{dataset / name}: too-small: {size} nodes, below config.minSize 100000"
                for name, size in zip(names, sizes)
            ),
        ]

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_load_error_after_a_violation_reports_only_itself(
        self, pristine, tmp_path, capsys, command
    ):
        # cggen validate reads one CG at a time, so cg-0000's violation is
        # found before cg-0001 fails to load; only the load error is reported.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        first = out / "dataset" / "cg-0000.json"
        doc = json.loads(first.read_text())
        doc["relations"][0]["type"] = "NoSuchRel"
        first.write_text(json.dumps(doc))
        second = out / "dataset" / "cg-0001.json"
        doc = json.loads(second.read_text())
        doc["relations"][0]["args"][0] = "nosuch"
        second.write_text(json.dumps(doc))
        relation = doc["relations"][0]["id"]
        line = f"{second}: relation {relation!r} references missing concept 'nosuch'"
        capsys.readouterr()
        target = out if command == "validate" else out / "dataset"
        assert main([command, str(target)]) == 1
        captured = capsys.readouterr()
        if command == "validate":
            assert (captured.out, captured.err) == (line + "\n", "")
        else:
            assert (captured.out, captured.err) == ("", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["validate", "stats"])
    @pytest.mark.parametrize("fault", ["missing", "unmarked"])
    def test_kept_node_not_a_marked_concept_exit_1(
        self, pristine, tmp_path, capsys, command, fault
    ):
        # A merge entry's marker is read from its kept node, which must be a
        # concept of the CG that carries one.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        doc = json.loads(read(out / "dataset", "derivations.jsonl:2"))
        j, other = _first_merge(doc)
        if fault == "missing":
            kept = doc["draws"][j]["merged"][other] = "nosuch"
            write(out / "dataset", "derivations.jsonl:2", json.dumps(doc))
            expected = "is not a concept of cg-0000.json"
        else:
            kept = doc["draws"][j]["merged"][other]
            path = out / "dataset" / "cg-0000.json"
            cg = json.loads(path.read_text())
            next(c for c in cg["concepts"] if c["id"] == kept)["marker"] = None
            path.write_text(json.dumps(cg))
            expected = "of cg-0000.json has no marker"
        line = (
            f"{out / 'dataset' / 'derivations.jsonl'}:2: draws[{j}].merged.{other}:"
            f" kept node {kept!r} {expected}"
        )
        capsys.readouterr()
        target = out if command == "validate" else out / "dataset"
        assert main([command, str(target)]) == 1
        captured = capsys.readouterr()
        if command == "validate":
            assert (captured.out, captured.err) == (line + "\n", "")
        else:
            assert (captured.out, captured.err) == ("", f"error: {line}\n")

    @pytest.mark.parametrize(
        "names, expected",
        [
            (
                {"gcg-1": "gcg-0"},
                ["gcg-1.json: duplicate-name: an earlier gamma-CG is named 'gcg-0'"],
            ),
            (
                {"gcg-2": "../elsewhere"},
                ["gcg-2.json: bad-name: '../elsewhere' is not a plain file name"],
            ),
            (
                {"gcg-3": "gcg-9"},
                ["gcg-3.json: name-mismatch: 'gcg-9' is not the file's stem 'gcg-3'"],
            ),
            (
                {"gcg-1": "gcg-0", "gcg-2": "../elsewhere"},
                [
                    "gcg-1.json: duplicate-name: an earlier gamma-CG is named 'gcg-0'",
                    "gcg-2.json: bad-name: '../elsewhere' is not a plain file name",
                ],
            ),
        ],
        ids=["duplicate", "not-a-file-name", "not-the-stem", "both"],
    )
    def test_gamma_name_that_is_not_its_file_exit_1(
        self, pristine, tmp_path, capsys, names, expected
    ):
        # Each gamma-CG of an output is gamma/<name>.json.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        for stem, name in names.items():
            path = out / "gamma" / f"{stem}.json"
            doc = json.loads(path.read_text())
            doc["name"] = name
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        captured = capsys.readouterr()
        lines = [f"{out / 'gamma'}/{line}" for line in expected]
        assert (captured.out, captured.err) == ("".join(line + "\n" for line in lines), "")

    @pytest.mark.parametrize("argv", [("validate", ""), ("stats", "dataset")])
    def test_malformed_cg_reported_before_a_later_malformed_derivation(
        self, pristine, tmp_path, capsys, argv
    ):
        def both(out):
            write(out / "dataset", "derivations.jsonl:4", "null")
            path = out / "dataset" / "cg-0001.json"
            doc = json.loads(path.read_text())
            doc["relations"][0]["args"][0] = 7
            path.write_text(json.dumps(doc))
            return "cg-0001.json", "relations[0].args[0] must be str, found int"

        err = self.check_exit_2(pristine, tmp_path, capsys, both, argv)
        assert "derivations.jsonl" not in err

    def test_gamma_domain_format_error_exit_2(self, pristine, tmp_path, capsys):
        self.check_exit_2(pristine, tmp_path, capsys, _mixed_domain, ("validate", ""))

    def test_vocabulary_format_error_exit_2(self, pristine, tmp_path, capsys):
        self.check_exit_2(pristine, tmp_path, capsys, _bool_arity, ("validate", ""))

    def test_gamma_number_relation_arg_exit_2(self, pristine, tmp_path, capsys):
        def number_arg(out):
            path = out / "gamma" / "gcg-0.json"
            doc = json.loads(path.read_text())
            doc["relations"][-1]["args"][-1] = 7
            path.write_text(json.dumps(doc))
            index = len(doc["relations"]) - 1
            position = len(doc["relations"][-1]["args"]) - 1
            return "gcg-0.json", f"relations[{index}].args[{position}] must be str, found int"

        self.check_exit_2(pristine, tmp_path, capsys, number_arg, ("validate", ""))

    def test_gamma_duplicate_node_id_exit_2(self, pristine, tmp_path, capsys):
        def duplicate(out):
            path = out / "gamma" / "gcg-0.json"
            doc = json.loads(path.read_text())
            doc["concepts"].append(dict(doc["concepts"][-1]))
            path.write_text(json.dumps(doc))
            index = len(doc["concepts"]) - 1
            node_id = doc["concepts"][-1]["id"]
            return "gcg-0.json", f"duplicate node id {node_id!r} at concepts[{index}].id"

        self.check_exit_2(pristine, tmp_path, capsys, duplicate, ("validate", ""))

    def test_deeply_nested_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        capsys.readouterr()
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{path}: nested too deeply to read" in err

    @pytest.mark.parametrize("command", ["export-dot", "generate"])
    def test_directory_as_input_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "x.json"
        path.mkdir()
        out = tmp_path / "out"
        argv = {
            "export-dot": ["export-dot", str(path)],
            "generate": ["generate", "--config", str(path), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{path}: cannot read: Is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            _relation_variable_on_unknown_type,
            _concept_variable_under_unknown_type,
            _marker_variable_on_unknown_marker,
        ],
    )
    def test_gamma_unknown_label_reported_not_raised(self, pristine, tmp_path, capsys, mutate):
        # A variable's admissible domain is computed from the labels around
        # it; an unknown one is reported as such, naming the file.
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        path = out / "gamma" / "gcg-0.json"
        doc = json.loads(path.read_text())
        code = mutate(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith(f"{path}: ") for line in lines)
        assert any(line.startswith(f"{path}: {code} ") for line in lines)
        vocab = load_vocabulary(out / "vocabulary.json")
        expected = generator.validate_inputs(vocab, [load_gamma_cg(path)])
        assert [line.replace(str(path), "gcg-0") for line in lines] == expected

    @pytest.mark.parametrize("command", ["auto-var", "generate"])
    def test_auto_var_input_with_unknown_label_reported(self, pristine, tmp_path, capsys, command):
        # Auto-var computes domains from the labels of the gamma-CGs it reads;
        # an unknown one is reported before it runs, as generate_dataset does.
        inputs = tmp_path / "inputs"
        shutil.copytree(pristine, inputs)
        path = inputs / "gamma" / "gcg-0.json"
        doc = json.loads(path.read_text())
        for relation in doc["relations"]:
            relation["type"] = "NoSuchRel"
        path.write_text(json.dumps(doc))
        config = {
            "seed": 1,
            "inputs": {
                "vocabulary": str(inputs / "vocabulary.json"),
                "gammas": str(inputs / "gamma"),
            },
            "autoVar": FULL_AUTO["autoVar"],
        }
        if command == "generate":
            config["generator"] = FULL_AUTO["generator"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        vocab = load_vocabulary(inputs / "vocabulary.json")
        expected = generator.validate_inputs(vocab, [load_gamma_cg(path)])
        assert any(line.startswith("gcg-0: unknown-relation-type ") for line in expected)
        assert err[1:] == expected
        assert not out.exists()

"""The writers must emit the layout docs/formats.md documents.

That is json.dumps(value) + "\\n" for every document and for each line of a
dataset's derivations file. The dict documents come from tests/oracles.py,
built independently of the library's writers.
"""

import json
import sys

import pytest

from cggen import (
    CONCEPT,
    RELATION,
    AutoGcgConfig,
    AutoVocConfig,
    ConceptNode,
    ConceptualGraph,
    GammaCG,
    GeneratorConfig,
    Marker,
    ParamSpec,
    RelationNode,
    Signature,
    TypeHierarchy,
    Variable,
    VariableTarget,
    Vocabulary,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
    compute_stats,
    derive_rng,
    generate_dataset,
    load_dataset,
    save_dataset,
    save_gamma_cg,
    save_vocabulary,
)
from cggen import formats
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_MARKER, TARGET_RELATION_TYPE
from cggen.generator import ComponentDraw, GenerationProvenance
from conftest import REFERENCE_VAR_CONFIG, REFERENCE_VOC_CONFIG, fresh_rng
from oracles import cg_doc, derivations_text, gamma_cg_doc, vocabulary_doc

# Non-ASCII, astral (a surrogate pair in JSON), quote, backslash and controls.
ODD = ["café", "\U0001f600x", 'q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f", " "]


# Draws that share these dicts: each must be written as an equal copy would be.
SHARED_ASSIGNMENTS = {ODD[0]: "alice", "v2": ODD[5]}
SHARED_STEPS = {"concept-type:c0": 2, "marker:c1": 0}


def expected(doc):
    return json.dumps(doc) + "\n"


def odd_graph():
    concepts = {
        f"c{i}-{text}": ConceptNode(f"c{i}-{text}", f"T{text}", text) for i, text in enumerate(ODD)
    }
    concepts["generic"] = ConceptNode("generic", "Top", None)
    ids = sorted(concepts)
    relations = {
        "r1": RelationNode("r1", "unaryé", (ids[0],)),
        "r2": RelationNode("r2", 'bin"ary', (ids[1], ids[1])),
        "r3": RelationNode("r3", "tern\\ary", (ids[2], "generic", ids[0])),
    }
    return ConceptualGraph(concepts, relations)


def wide_graph():
    """Relations of arity 0, 4 and 5: each arity has its own relation template."""
    concepts = {f"c{i}": ConceptNode(f"c{i}", "Top", ODD[i]) for i in range(5)}
    relations = {
        "r0": RelationNode("r0", "nullary", ()),
        "r1": RelationNode("r1", "quaternary", ("c3", "c0", "c3", "c1")),
        "r2": RelationNode("r2", "quinary", ("c4", "c3", "c2", "c1", "c0")),
        "r3": RelationNode("r3", "nullary", ()),
    }
    return ConceptualGraph(concepts, relations)


def gamma_with_variables():
    graph = odd_graph()
    concept = sorted(graph.concepts)[0]
    return GammaCG(
        "gé\U0001f600",
        graph,
        (
            Variable("v\"1", VariableTarget(TARGET_RELATION_TYPE, "r2"), (ODD[1], "knows")),
            Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, concept), (ODD[4],)),
            Variable("v3", VariableTarget(TARGET_MARKER, concept), ()),
        ),
    )


def readme_vocabulary(markers_per_type):
    """The README config's vocabulary, as `cggen generate` builds it at seed 42."""
    config = AutoVocConfig(
        concept_depth=ParamSpec.fixed(4),
        relation_depth=ParamSpec.fixed(3),
        max_children=ParamSpec.fixed(3),
        markers_per_type=ParamSpec.fixed(markers_per_type),
    )
    return auto_vocabulary(config, derive_rng(42, "auto-voc"))


def odd_vocabulary():
    """ODD strings as ids and labels, a type with two parents and an arity-4 relation."""
    top, a, b, both = ODD[0], ODD[1], ODD[2], ODD[3]
    concepts = TypeHierarchy(
        CONCEPT,
        top,
        {top: "Top", a: ODD[4], b: ODD[5], both: "bé"},
        {top: (), a: (top,), b: (top,), both: (a, b)},
    )
    quaternary = TypeHierarchy(
        RELATION, "T4", {"T4": "T4", 'r"4': "r\\4"}, {"T4": (), 'r"4': ("T4",)}, arity=4
    )
    unary = TypeHierarchy(RELATION, "T1", {"T1": "T1é"}, {"T1": ()}, arity=1)
    signatures = {
        "T4": Signature("T4", (top,) * 4),
        'r"4': Signature('r"4', (both, a, top, b)),
        "T1": Signature("T1", (top,)),
    }
    types = [both, a, b, top, both, a]
    markers = {text + "m": Marker(text + "m", type_id) for text, type_id in zip(ODD, types)}
    return Vocabulary(concepts, {4: quaternary, 1: unary}, signatures, markers)


@pytest.fixture(scope="module")
def generated():
    vocab = auto_vocabulary(REFERENCE_VOC_CONFIG, fresh_rng("writer-voc"))
    gcg_result = auto_gamma_cgs(
        vocab, AutoGcgConfig(ParamSpec.fixed(4), ParamSpec.fixed(7)), fresh_rng("writer-gcg")
    )
    var_result = auto_variables(
        gcg_result.vocabulary,
        list(gcg_result.gammas),
        REFERENCE_VAR_CONFIG,
        fresh_rng("writer-var"),
    )
    config = GeneratorConfig(max_cgs=6, min_size=25, max_spe=2, seed=3)
    dataset = generate_dataset(gcg_result.vocabulary, list(var_result.gammas), config)
    return list(var_result.gammas), dataset, config


class TestCgWriter:
    @pytest.mark.parametrize(
        "graph",
        [
            ConceptualGraph({}, {}),
            ConceptualGraph({"c0": ConceptNode("c0", "Top")}, {}),
            odd_graph(),
            wide_graph(),
        ],
        ids=["empty", "one-generic", "odd-strings-arity-1-3", "arity-0-4-5"],
    )
    def test_matches_json_dumps(self, graph):
        assert formats._cg_document(graph).decode() == expected(cg_doc(graph))

    def test_generated_graphs(self, generated):
        _, dataset, _ = generated
        for graph in dataset.graphs:
            assert formats._cg_document(graph).decode() == expected(cg_doc(graph))

    def test_short_writes_are_completed(self, monkeypatch, tmp_path):
        # os.write may take fewer bytes than it is given; the writer writes the rest.
        write = formats.os.write
        monkeypatch.setattr(formats.os, "write", lambda fd, data: write(fd, data[:7]))
        path = tmp_path / "cg.json"
        data = formats._cg_document(odd_graph())
        formats._write_bytes(path, data)
        assert path.read_bytes() == data


class TestVocabularyWriter:
    @pytest.mark.parametrize(
        "vocab",
        [readme_vocabulary(3), readme_vocabulary(100), readme_vocabulary(0), odd_vocabulary()],
        ids=["readme", "100-markers-per-type", "no-markers", "odd-strings-dag-arity-4"],
    )
    def test_matches_json_dumps(self, vocab, tmp_path):
        path = tmp_path / "vocabulary.json"
        save_vocabulary(path, vocab)
        assert path.read_text(encoding="utf-8") == expected(vocabulary_doc(vocab))


class TestGammaCgWriter:
    @pytest.mark.parametrize(
        "gcg",
        [
            GammaCG("empty", ConceptualGraph({}, {})),
            GammaCG("plain", odd_graph()),
            gamma_with_variables(),
            GammaCG(
                "wide",
                wide_graph(),
                (Variable("v", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("nullary",)),),
            ),
        ],
        ids=["empty", "no-variables", "variables", "arity-0-4-5"],
    )
    def test_matches_json_dumps(self, gcg, tmp_path):
        path = tmp_path / "gamma.json"
        save_gamma_cg(path, gcg)
        assert path.read_text(encoding="utf-8") == expected(gamma_cg_doc(gcg))

    def test_generated_gammas(self, generated, tmp_path):
        gammas, _, _ = generated
        for gcg in gammas:
            path = tmp_path / f"{gcg.name}.json"
            save_gamma_cg(path, gcg)
            assert path.read_text(encoding="utf-8") == expected(gamma_cg_doc(gcg))


PERSON = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})


def kept_nodes(provenance, marker):
    """A CG of ``PERSON`` and each kept node of ``provenance``, carrying ``marker``."""
    pairs = [
        pair for draw in provenance.draws for pair in [*draw.merged.items(), *draw.skipped_merges]
    ]
    concepts = {kept: ConceptNode(kept, "Person", marker) for _, kept in pairs}
    return ConceptualGraph({**PERSON.concepts, **concepts}, {})


def derivations(directory, provenances, marker="m"):
    """The derivations file that ``write_dataset`` writes for CGs with these derivations."""
    cgs = [(kept_nodes(provenance, marker), provenance) for provenance in provenances]
    formats.write_dataset(directory, cgs, GeneratorConfig(max_cgs=len(cgs), min_size=1))
    return (directory / "derivations.jsonl").read_text(encoding="utf-8")


class TestDerivationsWriter:
    @pytest.mark.parametrize(
        "provenances",
        [
            [GenerationProvenance(())],
            [
                GenerationProvenance(
                    (
                        ComponentDraw("g0", {}, {}, {}, ()),
                        ComponentDraw(
                            ODD[1],
                            {ODD[0]: ODD[2], "v2": ODD[4]},
                            {f"concept-type:{ODD[3]}": 2, "marker:c0": 0},
                            {"cé4": "c0", ODD[5]: ODD[2]},
                            ((ODD[4], "c1"), (ODD[4], ODD[3])),
                        ),
                    )
                ),
                GenerationProvenance((ComponentDraw("g1", {"v1": "x"}, {}, {}, ()),)),
            ],
            # Draws that share assignments and specialisations objects must
            # still get their own merges.
            [
                GenerationProvenance(
                    (
                        ComponentDraw("g0", SHARED_ASSIGNMENTS, SHARED_STEPS, dict(merged), ()),
                        # Equal to the first draw's dict, but another object.
                        ComponentDraw(
                            "g1", dict(SHARED_ASSIGNMENTS), SHARED_STEPS, {}, merged[::-1]
                        ),
                    )
                )
                for merged in [(("c2", "c1"),), (("c4", ODD[1]), (ODD[0], "c6"))]
            ],
        ],
        ids=[
            "cg-without-draws",
            "odd-strings-and-empty-members",
            "shared-objects-with-different-merges",
        ],
    )
    def test_matches_json_dumps(self, provenances, tmp_path):
        text = derivations(tmp_path / "ds", provenances)
        assert text == derivations_text(provenances)
        # The loader checks every draw against its CG, and reads the CGs back.
        loaded = load_dataset(tmp_path / "ds").graphs
        assert loaded == tuple(kept_nodes(provenance, "m") for provenance in provenances)

    def test_marker_minted_for_a_cg_stays_in_the_cg(self, tmp_path):
        # Only the CG's document holds a cg<i>-m<n> marker and its kept nodes.
        draw = ComponentDraw("g0", {}, {}, {"c3": "c1"}, (("c4", "c2"), ("c4", "c5")))
        provenances = [GenerationProvenance((draw,))]
        text = derivations(tmp_path, provenances, "cg0-m0")
        assert "cg0-m" not in text
        assert json.loads(text.splitlines()[1])["draws"][0]["skippedMerges"] == {"c4": ["c2", "c5"]}
        assert text == derivations_text(provenances)
        assert load_dataset(tmp_path).graphs == (kept_nodes(provenances[0], "cg0-m0"),)

    def test_repeated_key_keeps_dict_semantics(self, tmp_path):
        # Only skipped_merges is still pairs: an absorbed node compared with
        # several kept nodes is one key listing them in comparison order.
        skipped = (("c5", "c1"), ("c5", "c3"), ("c5", "c2"), ("c6", "c1"))
        draw = ComponentDraw("g0", {"a": "1"}, {"s": 1}, {"c4": "c0"}, skipped)
        provenances = [GenerationProvenance((draw,))]
        text = derivations(tmp_path, provenances)
        assert text == derivations_text(provenances)
        document = json.loads(text.splitlines()[1])["draws"][0]
        assert list(document["skippedMerges"].items()) == [("c5", ["c1", "c3", "c2"]), ("c6", ["c1"])]

    def test_no_cache_state_outlives_a_write(self, tmp_path):
        assignments = {"v0": "alice", "v1": "bob"}
        steps = {"concept-type:c0": 1}
        references = sys.getrefcount(assignments), sys.getrefcount(steps)
        for number, merged in enumerate([{"c2": "c1"}, {"c5": "c4"}]):
            draw = ComponentDraw("g0", assignments, steps, merged, ())
            provenances = [GenerationProvenance((draw,))]
            text = derivations(tmp_path / f"ds-{number}", provenances)
            assert text == derivations_text(provenances)
            del draw, provenances
            # Nothing the write cached still holds the dicts it was given.
            assert (sys.getrefcount(assignments), sys.getrefcount(steps)) == references

    def test_generated_derivations(self, generated, tmp_path):
        _, dataset, config = generated
        directory = tmp_path / "ds"
        save_dataset(
            directory,
            dataset.graphs,
            config=config,
            provenances=dataset.provenances,
            stats=compute_stats(dataset.graphs),
        )
        text = (directory / "derivations.jsonl").read_text(encoding="utf-8")
        assert text == derivations_text(dataset.provenances)

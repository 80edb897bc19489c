"""The fixed-layout writers must emit exactly json.dumps(doc, indent=2) + "\\n".

The dict documents come from tests/oracles.py, built independently of the
library's writers.
"""

import json

import pytest

from cggen import (
    AutoGcgConfig,
    ConceptNode,
    ConceptualGraph,
    GammaCG,
    GeneratorConfig,
    ParamSpec,
    RelationNode,
    Variable,
    VariableTarget,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
    compute_stats,
    generate_dataset,
    save_cg,
    save_dataset,
    save_gamma_cg,
)
from cggen import formats
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_MARKER, TARGET_RELATION_TYPE
from cggen.generator import ComponentDraw, GenerationProvenance
from conftest import REFERENCE_VAR_CONFIG, REFERENCE_VOC_CONFIG, fresh_rng
from oracles import cg_doc, gamma_cg_doc, provenance_doc

# Non-ASCII, astral (a surrogate pair in JSON), quote, backslash and controls.
ODD = ["café", "\U0001f600x", 'q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f", " "]


def expected(doc):
    return json.dumps(doc, indent=2) + "\n"


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
    def test_matches_json_dumps(self, graph, tmp_path):
        path = tmp_path / "cg.json"
        save_cg(path, graph)
        assert path.read_text(encoding="utf-8") == expected(cg_doc(graph))

    def test_generated_graphs(self, generated, tmp_path):
        _, dataset, _ = generated
        for index, graph in enumerate(dataset.graphs):
            path = tmp_path / f"cg{index}.json"
            save_cg(path, graph)
            assert path.read_text(encoding="utf-8") == expected(cg_doc(graph))


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


def provenance_path(tmp_path, provenances):
    # The writer that save_dataset uses, called directly so that an empty
    # perCG is covered too.
    path = tmp_path / "provenance.json"
    formats._write(path, "provenance", formats._provenance_members(provenances))
    return path


class TestProvenanceWriter:
    @pytest.mark.parametrize(
        "provenances",
        [
            [],
            [GenerationProvenance(0, ())],
            [
                GenerationProvenance(
                    0,
                    (
                        ComponentDraw("g0", (), (), (), ()),
                        ComponentDraw(
                            ODD[1],
                            ((ODD[0], ODD[2]), ("v2", ODD[4])),
                            ((f"concept-type:{ODD[3]}", 2), ("marker:c0", 0)),
                            (("mé", "c0", "c4"), (ODD[5], ODD[2], "c9")),
                            ((ODD[4], "c1", "c2"),),
                        ),
                    ),
                ),
                GenerationProvenance(1, (ComponentDraw("g1", (("v1", "x"),), (), (), ()),)),
            ],
            # The loader takes any list of strings as a merge entry; every
            # length must still be laid out as json.dumps lays it out.
            [
                GenerationProvenance(
                    0,
                    (
                        ComponentDraw(
                            "g0",
                            (),
                            (),
                            ((), (ODD[0],), (ODD[1], ODD[2]), tuple(ODD[2:6])),
                            ((ODD[3], ODD[4], ODD[5], ODD[0]), (), (ODD[4],)),
                        ),
                    ),
                ),
            ],
        ],
        ids=[
            "no-cgs",
            "cg-without-draws",
            "odd-strings-and-empty-members",
            "merge-entries-of-0-1-2-4-items",
        ],
    )
    def test_matches_json_dumps(self, provenances, tmp_path):
        path = provenance_path(tmp_path, provenances)
        text = path.read_text(encoding="utf-8")
        assert text == expected(provenance_doc(provenances))
        # Saving what the loader read back gives the same bytes.
        loaded = formats._load_provenance(path)
        assert provenance_path(tmp_path, loaded).read_text(encoding="utf-8") == text

    def test_repeated_key_keeps_dict_semantics(self, tmp_path):
        draw = ComponentDraw(
            "g0",
            (("a", "1"), ("b", "2"), ("a", "3")),
            (("s", 1), ("t", 2), ("s", 5)),
            (),
            (),
        )
        provenances = [GenerationProvenance(0, (draw,))]
        text = provenance_path(tmp_path, provenances).read_text(encoding="utf-8")
        assert text == expected(provenance_doc(provenances))
        document = json.loads(text)["perCG"][0]["draws"][0]
        assert list(document["assignments"].items()) == [("a", "3"), ("b", "2")]
        assert list(document["specialisations"].items()) == [("s", 5), ("t", 2)]

    def test_generated_provenance(self, generated, tmp_path):
        _, dataset, config = generated
        directory = tmp_path / "ds"
        save_dataset(
            directory,
            dataset.graphs,
            config=config,
            provenances=dataset.provenances,
            stats=compute_stats(dataset.graphs),
        )
        text = (directory / "provenance.json").read_text(encoding="utf-8")
        assert text == expected(provenance_doc(dataset.provenances))

"""Record semantics: immutable fields, one constructor for positional and
keyword calls, and an import that loads no record machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cggen
from cggen import (
    CONCEPT,
    RELATION,
    AutoGcgConfig,
    AutoGcgResult,
    AutoVarConfig,
    AutoVarResult,
    AutoVocConfig,
    CggenError,
    ConceptNode,
    ConceptualGraph,
    DatasetResult,
    DatasetStats,
    GammaCG,
    GenerationProvenance,
    GeneratorConfig,
    Marker,
    MarkerMint,
    ParamSpec,
    RelationNode,
    Signature,
    TypeHierarchy,
    ValidationReport,
    Variable,
    VariableTarget,
    Violation,
    Vocabulary,
)
from cggen.generator import ComponentDraw

SRC = Path(cggen.__file__).resolve().parents[1]

P = ParamSpec(2.0, 0.5)
GRAPH = ConceptualGraph(
    {"c0": ConceptNode("c0", "Person", "alice"), "c1": ConceptNode("c1", "Place")},
    {"r0": RelationNode("r0", "locatedIn", ("c0", "c1"))},
)
TARGET = VariableTarget("concept-type", "c1")
VARIABLE = Variable("x", TARGET, ("Place",))
GAMMA = GammaCG("g", GRAPH, (VARIABLE,))
HIERARCHY_NAMES = ("kind", "root", "labels", "parents", "arity")
AUTO_VOC_NAMES = ("concept_depth", "relation_depth", "max_children", "markers_per_type", "arities")
CONFIG_NAMES = ("max_cgs", "min_size", "max_spe", "seed")
GAMMA_NAMES = ("name", "graph", "variables")
VOCABULARY_NAMES = ("concepts", "relations", "signatures", "markers")


def record_instances(vocab):
    """One instance of every record class that ``cggen.__all__`` exports."""
    provenance = GenerationProvenance((ComponentDraw("g", (("x", "Place"),), (), (), ()),))
    return [
        P,
        AutoVocConfig(P, P, P, P, (1, 2)),
        AutoGcgConfig(P, P),
        AutoVarConfig(P, P, P, P, P),
        AutoGcgResult((GAMMA,), vocab),
        AutoVarResult((GAMMA,), ("warning",)),
        Signature("knows", ("Person", "Person")),
        Marker("alice", "Person"),
        vocab.concepts,
        vocab,
        GRAPH.concepts["c0"],
        GRAPH.relations["r0"],
        GRAPH,
        Violation("code", "c0", "message"),
        ValidationReport((Violation("code", "c0", "message"),)),
        TARGET,
        VARIABLE,
        GAMMA,
        GeneratorConfig(3, 5, 2, 7),
        provenance,
        DatasetResult((GRAPH,), (provenance,), vocab),
        DatasetStats(1, 3.0, 0.0, 4.0, 0.0, {2: 1.0}),
    ]


def test_every_exported_record_class_is_covered(tiny_vocab):
    exported = {
        value
        for value in map(cggen.__dict__.get, cggen.__all__)
        if isinstance(value, type) and not issubclass(value, BaseException)
    }
    assert {type(record) for record in record_instances(tiny_vocab)} == exported - {MarkerMint}


def test_record_attributes_are_read_only(tiny_vocab):
    for record in record_instances(tiny_vocab):
        names = [
            name
            for name in dir(record)
            if not name.startswith("_") and not callable(getattr(record, name))
        ]
        assert names, type(record)
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
            assert getattr(record, name) is before, (type(record), name)


def _outcome(build):
    try:
        record = build()
    except CggenError as exc:
        return type(exc), str(exc)
    return type(record), record


def _cases(vocab):
    """(class, field names, values) for every record whose constructor checks or rewrites."""
    concept = (CONCEPT, "Top", {"Top": "top", "A": "a"}, {"Top": (), "A": ("Top",)})
    missing_arg = {"r0": RelationNode("r0", "locatedIn", ("c0", "c9"))}
    unknown_node = Variable("y", VariableTarget("marker", "c9"), ())
    parts = (vocab.concepts, vocab.relations, vocab.signatures)
    return [
        (ParamSpec, ("mean", "stddev"), (1, 2)),
        (ParamSpec, ("mean", "stddev"), (1, -1)),
        (AutoVocConfig, AUTO_VOC_NAMES, (P, P, P, P, (3, 1, 1))),
        (AutoVocConfig, AUTO_VOC_NAMES, (P, P, P, P, ())),
        (AutoVocConfig, AUTO_VOC_NAMES, (P, P, P, P, (2, 0))),
        (GeneratorConfig, CONFIG_NAMES, (3, 5, 2, 7)),
        (GeneratorConfig, CONFIG_NAMES, (0, 5, 2, 7)),
        (GeneratorConfig, CONFIG_NAMES, (3, 5, -1, 7)),
        (VariableTarget, ("kind", "node_id"), ("marker", "c0")),
        (VariableTarget, ("kind", "node_id"), ("label", "c0")),
        (Variable, ("name", "target", "domain"), ("x", TARGET, ("b", "a", "a"))),
        (GammaCG, GAMMA_NAMES, ("g", GRAPH, (VARIABLE,))),
        (GammaCG, GAMMA_NAMES, ("g", GRAPH, (VARIABLE, VARIABLE))),
        (GammaCG, GAMMA_NAMES, ("g", GRAPH, (unknown_node,))),
        (ConceptualGraph, ("concepts", "relations"), (GRAPH.concepts, GRAPH.relations)),
        (ConceptualGraph, ("concepts", "relations"), (GRAPH.concepts, missing_arg)),
        (TypeHierarchy, HIERARCHY_NAMES, (*concept, None)),
        (TypeHierarchy, HIERARCHY_NAMES, (*concept, 2)),
        (TypeHierarchy, HIERARCHY_NAMES, (RELATION, *concept[1:], 2)),
        (TypeHierarchy, HIERARCHY_NAMES, ("other", *concept[1:], None)),
        (Vocabulary, VOCABULARY_NAMES, (*parts, vocab.markers)),
        (Vocabulary, VOCABULARY_NAMES, (*parts, {"m": Marker("m", "Nope")})),
    ]


def test_constructors_agree_by_position_and_keyword(tiny_vocab):
    outcomes = []
    for cls, names, values in _cases(tiny_vocab):
        by_position = _outcome(lambda: cls(*values))
        assert _outcome(lambda: cls(**dict(zip(names, values)))) == by_position
        assert _outcome(lambda: cls(values[0], **dict(zip(names[1:], values[1:])))) == by_position
        outcomes.append(by_position)
    # Both kinds of outcome occur: records and errors.
    assert {issubclass(kind, CggenError) for kind, _ in outcomes} == {False, True}


def test_constructors_rewrite_and_default(tiny_vocab):
    assert Variable(name="x", target=TARGET, domain=("b", "a", "a")).domain == ("a", "b")
    assert AutoVocConfig(P, P, P, P, arities=(3, 1, 1)).arities == (1, 3)
    assert AutoVocConfig(P, P, P, markers_per_type=P).arities == (1, 2, 3)
    assert GeneratorConfig(3, min_size=5) == GeneratorConfig(3, 5, 0, 0)
    assert GammaCG("g", graph=GRAPH).variables == ()
    assert ParamSpec(mean=1).stddev == 0.0
    parts = (tiny_vocab.concepts, tiny_vocab.relations)
    bare = Vocabulary(*parts, signatures=tiny_vocab.signatures)
    assert bare.markers == {}
    assert bare.markers is not Vocabulary(*parts, tiny_vocab.signatures).markers
    with pytest.raises(cggen.ConfigError, match="stddev must be >= 0"):
        ParamSpec(1, stddev=-1)


def loaded_by_cli_import(*modules):
    """Those of ``modules`` that ``import cggen.cli`` loads in a fresh interpreter."""
    # -S keeps the interpreter's site imports out of sys.modules.
    code = "import sys, cggen.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *modules],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_record_machinery():
    assert loaded_by_cli_import("dataclasses", "inspect", "concurrent.futures") == "[]"


def test_import_loads_no_openssl():
    # Only an unseeded run needs secrets, and with it OpenSSL; derive_rng
    # imports its SHA-256 when it is called, and cggen validate and cggen
    # stats never call it.
    assert loaded_by_cli_import("_hashlib", "hashlib", "secrets") == "[]"

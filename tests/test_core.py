import pytest

from cggen import (
    CONCEPT,
    RELATION,
    ConceptNode,
    ConceptualGraph,
    Marker,
    RelationNode,
    Signature,
    StructureError,
    TypeHierarchy,
    UnknownIdentifierError,
    ArityError,
    Vocabulary,
    VocabularyError,
    restriction_for,
    validate_graph,
)
from cggen.core import _walk_down
from conftest import fresh_rng, make_hierarchy, random_dag_hierarchy
from oracles import brute_subtype


class TestSubtype:
    """a <= b is ``b in up[a]``; ``require`` checks a type before the lookup."""

    def test_reflexive_at_root(self, tiny_vocab):
        assert "Top" in tiny_vocab.concepts.up["Top"]

    def test_direct_edge(self, tiny_vocab):
        assert "Entity" in tiny_vocab.concepts.up["Person"]

    def test_siblings_incomparable(self, tiny_vocab):
        concepts = tiny_vocab.concepts
        assert not brute_subtype(concepts, "Person", "Place")
        assert "Place" not in concepts.up["Person"]
        assert "Person" not in concepts.up["Place"]

    def test_unknown_identifier(self, tiny_vocab):
        concepts = tiny_vocab.concepts
        concepts.require("Person")
        with pytest.raises(UnknownIdentifierError, match="unknown concept type 'Nope'"):
            concepts.require("Nope")
        relations = tiny_vocab.relations[2]
        with pytest.raises(UnknownIdentifierError, match="unknown relation type 'Person'"):
            relations.require("Person")

    def test_matches_brute_force_on_random_dags(self):
        rng = fresh_rng("dag-closure")
        for trial in range(20):
            hierarchy = random_dag_hierarchy(rng, rng.randint(2, 50))
            ids = hierarchy.type_ids()
            for _ in range(200):
                a, b = rng.choice(ids), rng.choice(ids)
                assert (b in hierarchy.up[a]) == brute_subtype(hierarchy, a, b)

    def test_unchecked_lookup_matches_brute_force_on_every_pair(self):
        # The up/down/children maps are read unchecked, on validated types.
        rng = fresh_rng("dag-up")
        for trial in range(5):
            hierarchy = random_dag_hierarchy(rng, rng.randint(2, 40))
            for order in (hierarchy.up, hierarchy.down, hierarchy.children):
                assert set(order) == set(hierarchy.labels)
            for a in hierarchy.labels:
                for b in hierarchy.labels:
                    assert (b in hierarchy.up[a]) == brute_subtype(hierarchy, a, b)
                    assert (b in hierarchy.down[a]) == brute_subtype(hierarchy, b, a)
                    assert (b in hierarchy.children[a]) == (a in hierarchy.parents[b])
                assert list(hierarchy.children[a]) == sorted(hierarchy.children[a])

    def test_partial_order_properties(self):
        rng = fresh_rng("poset")
        for trial in range(5):
            hierarchy = random_dag_hierarchy(rng, rng.randint(2, 50))
            ids = hierarchy.type_ids()
            up = hierarchy.up
            for a in ids:
                assert a in up[a]
            for _ in range(300):
                a, b, c = (rng.choice(ids) for _ in range(3))
                if b in up[a] and a in up[b]:
                    assert a == b
                if b in up[a] and c in up[b]:
                    assert c in up[a]


class TestRandomDescendant:
    """``_walk_down``, which autogen calls with a move count drawn in [0, steps]."""

    def test_zero_steps(self, tiny_vocab):
        rng = fresh_rng("rd0")
        assert _walk_down(tiny_vocab.concepts, "Entity", 0, rng) == ("Entity", 0)

    def test_leaf_stays(self, tiny_vocab):
        rng = fresh_rng("rd-leaf")
        for _ in range(20):
            assert _walk_down(tiny_vocab.concepts, "Student", 5, rng) == ("Student", 0)

    def test_one_step_distribution(self):
        # A node with exactly 3 children: all of them (and the node itself,
        # from zero-move draws) must appear across many samples.
        hierarchy = make_hierarchy(
            CONCEPT, "root", [("a", "root"), ("b", "root"), ("c", "root")]
        )
        rng = fresh_rng("rd-dist")
        seen = {_walk_down(hierarchy, "root", rng.randint(0, 1), rng)[0] for _ in range(2000)}
        assert seen == {"root", "a", "b", "c"}

    def test_result_below_start_and_depth_bounded(self):
        rng = fresh_rng("rd-bound")
        for _ in range(10):
            hierarchy = random_dag_hierarchy(rng, 30)
            ids = hierarchy.type_ids()
            for _ in range(100):
                start = rng.choice(ids)
                steps = rng.randint(0, 4)
                result, taken = _walk_down(hierarchy, start, steps, rng)
                assert taken <= steps
                assert start in hierarchy.up[result]
                # On a DAG the bound is on the walk: at most `steps` child edges.
                reachable = {start}
                for _ in range(steps):
                    reachable |= {c for t in reachable for c in hierarchy.children[t]}
                assert result in reachable


class TestHierarchyInvariants:
    def test_cycle_rejected(self):
        with pytest.raises(VocabularyError, match="cycle"):
            TypeHierarchy(
                CONCEPT,
                "r",
                {"r": "r", "a": "a", "b": "b"},
                {"r": (), "a": ("b",), "b": ("a",)},
            )

    def test_duplicate_label_rejected(self):
        with pytest.raises(VocabularyError, match="duplicate label"):
            TypeHierarchy(
                CONCEPT,
                "r",
                {"r": "r", "a": "same", "b": "same"},
                {"r": (), "a": ("r",), "b": ("r",)},
            )

    def test_repeated_parent_rejected(self):
        # Listed twice, "a" would be a child of "r" twice over and be picked
        # twice as often as "b" by _walk_down.
        with pytest.raises(VocabularyError, match="type 'a' lists parent 'r' twice"):
            TypeHierarchy(
                CONCEPT,
                "r",
                {"r": "r", "a": "a", "b": "b"},
                {"r": (), "a": ("r", "r"), "b": ("r",)},
            )

    def test_parentless_non_root_rejected(self):
        with pytest.raises(VocabularyError, match="no parent"):
            TypeHierarchy(CONCEPT, "r", {"r": "r", "a": "a"}, {"r": (), "a": ()})

    def test_root_with_parent_rejected(self):
        with pytest.raises(VocabularyError, match="no parents"):
            TypeHierarchy(CONCEPT, "r", {"r": "r", "a": "a"}, {"r": ("a",), "a": ("r",)})

    def test_relation_hierarchy_needs_arity(self):
        with pytest.raises(VocabularyError, match="arity"):
            TypeHierarchy(RELATION, "r", {"r": "r"}, {"r": ()})


class TestVocabularyInvariants:
    def test_non_monotone_signature_names_pair(self, tiny_vocab):
        concepts = tiny_vocab.concepts
        binary = make_hierarchy(RELATION, "T2", [("sub", "T2")], arity=2)
        signatures = {
            "T2": Signature("T2", ("Person", "Top")),
            "sub": Signature("sub", ("Place", "Top")),  # Place !<= Person
        }
        with pytest.raises(VocabularyError) as err:
            Vocabulary(concepts, {2: binary}, signatures, {})
        assert "sub" in str(err.value) and "T2" in str(err.value)

    def test_signature_length_must_match_arity(self, tiny_vocab):
        binary = make_hierarchy(RELATION, "T2", [], arity=2)
        with pytest.raises(VocabularyError, match="restrictions for arity"):
            Vocabulary(
                tiny_vocab.concepts, {2: binary}, {"T2": Signature("T2", ("Top",))}, {}
            )

    def test_marker_type_must_exist(self, tiny_vocab):
        binary = make_hierarchy(RELATION, "T2", [], arity=2)
        with pytest.raises(VocabularyError, match="marker"):
            Vocabulary(
                tiny_vocab.concepts,
                {2: binary},
                {"T2": Signature("T2", ("Top", "Top"))},
                {"x": Marker("x", "Ghost")},
            )

    def test_label_disjointness(self):
        concepts = make_hierarchy(CONCEPT, "Top", [("shared", "Top")])
        binary = make_hierarchy(RELATION, "T2", [("shared2", "T2")], arity=2)
        # Same display label on a concept and a relation type.
        bad = TypeHierarchy(
            RELATION,
            "T2",
            {"T2": "T2", "shared2": "shared"},
            {"T2": (), "shared2": ("T2",)},
            arity=2,
        )
        signatures = {
            "T2": Signature("T2", ("Top", "Top")),
            "shared2": Signature("shared2", ("Top", "Top")),
        }
        with pytest.raises(VocabularyError, match="overlap"):
            Vocabulary(concepts, {2: bad}, signatures, {})
        Vocabulary(concepts, {2: binary}, signatures | {
            "shared2": Signature("shared2", ("Top", "Top"))
        }, {})


class TestRestrictionFor:
    def test_direct_lookup(self, tiny_vocab):
        assert restriction_for(tiny_vocab, "locatedIn", 0) == "Entity"
        assert restriction_for(tiny_vocab, "locatedIn", 1) == "Place"

    def test_position_out_of_range(self, tiny_vocab):
        with pytest.raises(ArityError):
            restriction_for(tiny_vocab, "locatedIn", 2)

    def test_unknown_relation(self, tiny_vocab):
        with pytest.raises(UnknownIdentifierError):
            restriction_for(tiny_vocab, "nope", 0)


def cg(concepts, relations):
    return ConceptualGraph(
        {c.node_id: c for c in concepts}, {r.node_id: r for r in relations}
    )


class TestGraphStructure:
    def test_dangling_argument_rejected(self):
        with pytest.raises(StructureError, match="missing concept"):
            cg([], [RelationNode("r0", "knows", ("c0", "c1"))])

    def test_id_namespaces_disjoint(self):
        with pytest.raises(StructureError, match="both kinds"):
            cg([ConceptNode("x", "Person")], [RelationNode("x", "state", ())])

    def test_key_must_name_its_node(self):
        concepts = {"c0": ConceptNode("c0", "Person")}
        with pytest.raises(StructureError) as caught:
            ConceptualGraph({**concepts, "c1": ConceptNode("c9", "Person")}, {})
        assert str(caught.value) == "concept key 'c1' names node 'c9'"
        with pytest.raises(StructureError) as caught:
            ConceptualGraph(concepts, {"r0": RelationNode("r1", "knows", ("c0", "c0"))})
        assert str(caught.value) == "relation key 'r0' names node 'r1'"

    def test_first_fault_is_named(self):
        # A relation key naming another node is reported before a missing
        # concept, and missing concepts in relation and argument order.
        concepts = {"c0": ConceptNode("c0", "Person")}
        relations = {
            "r0": RelationNode("r0", "knows", ("c0", "c7")),
            "r1": RelationNode("r1", "knows", ("c5", "c0")),
        }
        with pytest.raises(StructureError) as caught:
            ConceptualGraph(concepts, relations)
        assert str(caught.value) == "relation 'r0' references missing concept 'c7'"
        relations["r2"] = RelationNode("r9", "knows", ("c0", "c0"))
        with pytest.raises(StructureError) as caught:
            ConceptualGraph(concepts, relations)
        assert str(caught.value) == "relation key 'r2' names node 'r9'"

    def test_multigraph_positions_allowed(self, tiny_vocab):
        graph = cg(
            [ConceptNode("c0", "Person", "alice")],
            [RelationNode("r0", "knows", ("c0", "c0"))],
        )
        assert graph.relations["r0"].args == ("c0", "c0")
        assert not validate_graph(tiny_vocab, graph).violations


class TestValidateGraph:
    def test_empty_graph_ok(self, tiny_vocab):
        assert not validate_graph(tiny_vocab, ConceptualGraph({}, {})).violations

    def test_valid_small_graph(self, tiny_vocab):
        graph = cg(
            [
                ConceptNode("c0", "Student", "carol"),
                ConceptNode("c1", "Person", "bob"),
            ],
            [RelationNode("r0", "knows", ("c0", "c1"))],
        )
        assert not validate_graph(tiny_vocab, graph).violations

    def test_signature_violation_by_incomparable_sibling(self, tiny_vocab):
        # Replace a valid argument label with an incomparable sibling: one
        # signature violation, nothing else.
        graph = cg(
            [
                ConceptNode("c0", "Person"),
                ConceptNode("c1", "Place"),  # valid for locatedIn position 1
            ],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        assert not validate_graph(tiny_vocab, graph).violations
        broken = cg(
            [
                ConceptNode("c0", "Person"),
                ConceptNode("c1", "Act"),  # sibling branch: not <= Place
            ],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        report = validate_graph(tiny_vocab, broken)
        assert [(v.code, v.subject) for v in report.violations] == [
            ("signature-violation", "r0")
        ]

    def test_unknown_labels_reported(self, tiny_vocab):
        graph = cg(
            [ConceptNode("c0", "Ghost", "nobody")],
            [RelationNode("r0", "unheard", ("c0",))],
        )
        codes = {v.code for v in validate_graph(tiny_vocab, graph).violations}
        assert codes == {"unknown-concept-type", "unknown-relation-type"}

    def test_every_violation_kind_in_order(self, tiny_vocab):
        # Concepts first, then relations, each by id; an argument whose
        # concept type is unknown is reported on the concept node only.
        graph = cg(
            [
                ConceptNode("c0", "Ghost", "nobody"),
                ConceptNode("c1", "Person", "nobody"),
                ConceptNode("c2", "Place", "alice"),
                ConceptNode("c3", "Person"),
                ConceptNode("c4", "Act"),
            ],
            [
                RelationNode("r0", "unheard", ("c0",)),
                RelationNode("r1", "knows", ("c3",)),
                RelationNode("r2", "knows", ("c4", "c0")),
                RelationNode("r3", "locatedIn", ("c3", "c4")),
                RelationNode("r4", "gives", ("c0", "c3", "c3")),
            ],
        )
        assert validate_graph(tiny_vocab, graph).lines() == [
            "unknown-concept-type c0: type 'Ghost' not in vocabulary",
            "unknown-marker c1: marker 'nobody' not in vocabulary",
            "marker-type-violation c2: type 'Place' is not <= marker type 'Person'",
            "unknown-relation-type r0: type 'unheard' not in vocabulary",
            "arity-mismatch r1: 1 arguments for arity-2 type 'knows'",
            "signature-violation r2: argument 0 ('c4': 'Act') is not <= restriction 'Person'",
            "signature-violation r3: argument 1 ('c4': 'Act') is not <= restriction 'Place'",
        ]

    def test_marker_type_violation(self, tiny_vocab):
        graph = cg([ConceptNode("c0", "Place", "alice")], [])
        report = validate_graph(tiny_vocab, graph)
        assert [v.code for v in report.violations] == ["marker-type-violation"]

    def test_more_specific_than_marker_type_accepted(self, tiny_vocab):
        graph = cg([ConceptNode("c0", "Student", "alice")], [])
        assert not validate_graph(tiny_vocab, graph).violations

    def test_arity_mismatch(self, tiny_vocab):
        graph = cg(
            [ConceptNode("c0", "Person")],
            [RelationNode("r0", "knows", ("c0",))],
        )
        assert [v.code for v in validate_graph(tiny_vocab, graph).violations] == [
            "arity-mismatch"
        ]

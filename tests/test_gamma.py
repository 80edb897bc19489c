import pytest

from cggen import (
    CONCEPT,
    RELATION,
    ConceptNode,
    ConceptualGraph,
    GammaCG,
    InstantiationError,
    RelationNode,
    Signature,
    StructureError,
    UnknownIdentifierError,
    Variable,
    VariableTarget,
    Vocabulary,
    auto_gamma_cgs,
    AutoGcgConfig,
    ParamSpec,
    auto_variables,
    auto_vocabulary,
    AutoVarConfig,
    AutoVocConfig,
    MarkerMint,
    derive_rng,
    instantiate,
    slot_domain,
    validate_gamma,
    validate_graph,
)
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_MARKER, TARGET_RELATION_TYPE, DrawPlan
from conftest import fresh_rng, make_hierarchy
from test_golden import README_CONFIG
from oracles import (
    brute_concept_domain,
    brute_instantiate,
    brute_marker_domain,
    brute_relation_domain,
    outcome_graph,
)


def gcg_of(graph, variables=(), name="g"):
    return GammaCG(name, graph, tuple(variables))


def domain_of(vocab, gcg, kind, node_id):
    """``slot_domain`` of the slot ``kind`` of ``node_id``."""
    return slot_domain(vocab, gcg, VariableTarget(kind, node_id))


def instantiated(vocab, gcg, rng, mint):
    """The graph one instantiate call draws from the gamma-CG."""
    return outcome_graph(gcg, instantiate(vocab, gcg, rng, mint=mint))


@pytest.fixture
def sample_gcg(tiny_vocab):
    graph = ConceptualGraph(
        {
            "c0": ConceptNode("c0", "Person", "alice"),
            "c1": ConceptNode("c1", "Place", "home"),
            "c2": ConceptNode("c2", "Person", "bob"),
            "c3": ConceptNode("c3", "Entity"),
        },
        {
            "r0": RelationNode("r0", "locatedIn", ("c0", "c1")),
            "r1": RelationNode("r1", "knows", ("c0", "c2")),
            "r2": RelationNode("r2", "gives", ("c0", "c3", "c2")),
        },
    )
    return gcg_of(graph)


class TestStructure:
    def test_duplicate_slot_rejected(self, sample_gcg):
        variables = [
            Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Person",)),
            Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Student",)),
        ]
        with pytest.raises(StructureError, match="claimed by two"):
            gcg_of(sample_gcg.graph, variables)

    def test_missing_target_rejected(self, sample_gcg):
        with pytest.raises(StructureError, match="missing relation"):
            gcg_of(
                sample_gcg.graph,
                [Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "zz"), ("knows",))],
            )

    def test_domain_canonicalized(self):
        variable = Variable(
            "v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("b", "a", "b")
        )
        assert variable.domain == ("a", "b")


class TestRelationTypeDomain:
    def test_singleton_vocabulary(self):
        concepts = make_hierarchy(CONCEPT, "Top", [])
        binary = make_hierarchy(RELATION, "T2", [], arity=2)
        vocab = Vocabulary(
            concepts, {2: binary}, {"T2": Signature("T2", ("Top", "Top"))}, {}
        )
        graph = ConceptualGraph(
            {
                "c0": ConceptNode("c0", "Top"),
                "c1": ConceptNode("c1", "Top"),
            },
            {"r0": RelationNode("r0", "T2", ("c0", "c1"))},
        )
        assert domain_of(vocab, gcg_of(graph), TARGET_RELATION_TYPE, "r0") == ("T2",)

    def test_same_arity_only(self, tiny_vocab, sample_gcg):
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "r2")
        assert domain == ("T3", "gives")
        assert domain == tuple(sorted(brute_relation_domain(tiny_vocab, sample_gcg, "r2")))

    def test_signature_excludes(self, tiny_vocab, sample_gcg):
        # r0 has args (Person, Place); "knows" needs (Person, Person).
        assert domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "r0") == (
            "T2",
            "locatedIn",
        )

    def test_argument_under_concept_variable_is_open(self, tiny_vocab, sample_gcg):
        # A concept variable on c1 lifts the Place argument, so "knows" is
        # admitted; "attends" still needs a Student at c0 (a Person).
        variable = Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c1"), ("Person",))
        gcg = gcg_of(sample_gcg.graph, [variable])
        domain = domain_of(tiny_vocab, gcg, TARGET_RELATION_TYPE, "r0")
        assert domain == ("T2", "knows", "locatedIn")
        assert domain == tuple(sorted(brute_relation_domain(tiny_vocab, gcg, "r0")))

    def test_not_a_relation(self, tiny_vocab, sample_gcg):
        with pytest.raises(UnknownIdentifierError):
            domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "c0")

    def test_unknown_argument_type(self, tiny_vocab):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Person"), "c1": ConceptNode("c1", "NoSuchType")},
            {"r0": RelationNode("r0", "locatedIn", ("c0", "c1"))},
        )
        with pytest.raises(UnknownIdentifierError):
            domain_of(tiny_vocab, gcg_of(graph), TARGET_RELATION_TYPE, "r0")


class TestConceptTypeDomain:
    def test_isolated_node_admits_everything(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_CONCEPT_TYPE, "c0") == (
            tiny_vocab.concepts.type_ids()
        )

    def test_top_restriction_admits_everything(self, tiny_vocab):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Entity")},
            {"r0": RelationNode("r0", "T1", ("c0",))},
        )
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_CONCEPT_TYPE, "c0") == (
            tiny_vocab.concepts.type_ids()
        )

    def test_intersection_of_restrictions(self, tiny_vocab, sample_gcg):
        # c0 fills locatedIn[0] (Entity), knows[0] (Person), gives[0] (Person).
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, "c0")
        assert domain == ("Person", "Student")
        assert domain == tuple(sorted(brute_concept_domain(tiny_vocab, sample_gcg, "c0")))

    def test_not_a_concept(self, tiny_vocab, sample_gcg):
        with pytest.raises(UnknownIdentifierError):
            domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, "r0")

    def test_unknown_relation_types_raise_for_the_lowest_relation_id(self, tiny_vocab):
        # "r10" sorts before "r2" but is added after it; the node "c1"
        # sits in neither and must not matter.
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Person"), "c1": ConceptNode("c1", "Place")},
            {
                "r2": RelationNode("r2", "NoSuchB", ("c0", "c1")),
                "r10": RelationNode("r10", "NoSuchA", ("c1", "c0")),
            },
        )
        with pytest.raises(UnknownIdentifierError, match="^unknown relation type 'NoSuchA'$"):
            domain_of(tiny_vocab, gcg_of(graph), TARGET_CONCEPT_TYPE, "c0")

    def test_marker_type_bounds_unless_redrawn(self, tiny_vocab, sample_gcg):
        # c1 (marker home: Place) fills locatedIn[1] (Place). A relation
        # variable on r0 lifts the restriction and a marker variable on c1
        # the marker's bound; only both together admit every type.
        def domain(*targets):
            variables = [
                Variable(f"v{i}", VariableTarget(kind, node), ("x",))
                for i, (kind, node) in enumerate(targets)
            ]
            gcg = gcg_of(sample_gcg.graph, variables)
            found = domain_of(tiny_vocab, gcg, TARGET_CONCEPT_TYPE, "c1")
            assert found == tuple(sorted(brute_concept_domain(tiny_vocab, gcg, "c1")))
            return found

        assert domain() == ("Place",)
        assert domain((TARGET_RELATION_TYPE, "r0")) == ("Place",)
        assert domain((TARGET_MARKER, "c1")) == ("Place",)
        assert domain((TARGET_RELATION_TYPE, "r0"), (TARGET_MARKER, "c1")) == (
            tiny_vocab.concepts.type_ids()
        )

    def test_matches_brute_force_everywhere(self, tiny_vocab, sample_gcg):
        for node_id in sample_gcg.graph.concepts:
            assert domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, node_id) == (
                tuple(sorted(brute_concept_domain(tiny_vocab, sample_gcg, node_id)))
            )


class TestMarkerDomain:
    def test_top_node_admits_top_markers(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top", "thing")}, {})
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_MARKER, "c0") == ("thing",)

    def test_markers_typed_at_or_above_the_node(self, tiny_vocab, sample_gcg):
        # c0 is a Person: the Person, Entity and Top markers, never carol
        # (Student) nor home (Place), whatever its current marker.
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_MARKER, "c0")
        assert domain == ("alice", "bob", "rex", "thing")
        assert domain == tuple(sorted(brute_marker_domain(tiny_vocab, sample_gcg, "c0")))

    def test_admissible_concept_values_widen(self, tiny_vocab, sample_gcg):
        # A concept variable on c0 adds the markers above its admissible
        # values: Student admits carol; Place, not <= Person, adds nothing.
        variable = Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Place", "Student"))
        gcg = gcg_of(sample_gcg.graph, [variable])
        domain = domain_of(tiny_vocab, gcg, TARGET_MARKER, "c0")
        assert domain == ("alice", "bob", "carol", "rex", "thing")
        assert domain == tuple(sorted(brute_marker_domain(tiny_vocab, gcg, "c0")))

    def test_unknown_type_on_unmarked_node(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Nope")}, {})
        with pytest.raises(UnknownIdentifierError, match="Nope"):
            domain_of(tiny_vocab, gcg_of(graph), TARGET_MARKER, "c0")


class TestValidateDomain:
    def test_computed_domain_is_valid(self, tiny_vocab, sample_gcg):
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, "c0")
        variable = Variable(
            "v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), tuple(domain)
        )
        gcg = gcg_of(sample_gcg.graph, [variable])
        assert validate_gamma(tiny_vocab, gcg) == []

    def test_wrong_arity_and_signature_values_flagged(self, tiny_vocab, sample_gcg):
        variable = Variable(
            "v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows", "locatedIn", "state")
        )
        gcg = gcg_of(sample_gcg.graph, [variable])
        assert validate_gamma(tiny_vocab, gcg) == [
            "inadmissible-value v1: 'knows' is not admissible for relation-type of 'r0'",
            "inadmissible-value v1: 'state' is not admissible for relation-type of 'r0'",
        ]

    def test_concept_value_above_the_marker_type_flagged(self, tiny_vocab):
        # The isolated c0 keeps marker alice (Person), so an Entity can never be drawn.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person", "alice")}, {})
        variable = Variable(
            "v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Entity", "Person")
        )
        gcg = gcg_of(graph, [variable])
        assert validate_gamma(tiny_vocab, gcg) == [
            "inadmissible-value v1: 'Entity' is not admissible for concept-type of 'c0'"
        ]

    def test_empty_domain_flagged(self, tiny_vocab, sample_gcg):
        variable = Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ())
        gcg = gcg_of(sample_gcg.graph, [variable])
        assert validate_gamma(tiny_vocab, gcg) == [
            "empty-domain v1: variable domain must be non-empty"
        ]

    def test_unmarked_marker_slot_rejects_markers_below_or_beside(self, tiny_vocab):
        # An unmarked Person draws markers typed at or above Person: never
        # home (Place) nor carol (Student).
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        variable = Variable(
            "v1", VariableTarget(TARGET_MARKER, "c0"), ("alice", "carol", "home", "rex", "thing")
        )
        lines = validate_gamma(tiny_vocab, gcg_of(graph, [variable]))
        flagged = [line.split()[2] for line in lines]
        assert flagged == ["'carol'", "'home'"]

    @pytest.mark.parametrize("marker", [None, "alice"])
    @pytest.mark.parametrize("concept_domain", [None, ("Person", "Student")])
    def test_marker_slot_admits_what_the_draw_draws(
        self, tiny_vocab, mint, concept_domain, marker
    ):
        # The concept variable on c0 (an isolated node) is always admissible,
        # so the marker variable alone decides whether a line is reported.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person", marker)}, {})
        for marker_id in sorted(tiny_vocab.markers):
            variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), (marker_id,))]
            if concept_domain:
                variables.append(
                    Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), concept_domain)
                )
            gcg = gcg_of(graph, variables)
            rng = fresh_rng("unmarked-slot", marker_id)
            drawn = {
                brute_instantiate(tiny_vocab, gcg, rng, mint=mint)[0].concepts["c0"].marker
                for _ in range(40)
            }
            valid = validate_gamma(tiny_vocab, gcg) == []
            assert valid == (marker_id in drawn), marker_id
            if valid:
                drawn = {instantiate(tiny_vocab, gcg, rng, mint=mint).markers["c0"] for _ in range(40)}
                assert marker_id in drawn
            else:
                with pytest.raises(StructureError, match="inadmissible-value v1"):
                    instantiate(tiny_vocab, gcg, rng, mint=mint)


class TestInstantiate:
    def test_zero_variables_returns_graph_unchanged(self, tiny_vocab, mint, sample_gcg):
        result = instantiated(tiny_vocab, sample_gcg, fresh_rng("inst0"), mint)
        assert result == sample_gcg.graph

    def test_three_variable_kinds(self, tiny_vocab, mint, sample_gcg):
        variables = [
            Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Person", "Student")),
            Variable("v2", VariableTarget(TARGET_MARKER, "c2"), ("alice", "bob", "thing")),
            Variable("v3", VariableTarget(TARGET_RELATION_TYPE, "r1"), ("knows", "attends", "T2")),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        rng = fresh_rng("inst3")
        for _ in range(50):
            result = instantiated(tiny_vocab, gcg, rng, mint)
            assert result.concepts["c0"].type_id in ("Person", "Student")
            assert result.concepts["c2"].marker in ("alice", "bob", "thing")
            assert result.relations["r1"].type_id in ("knows", "attends", "T2")
            assert not validate_graph(tiny_vocab, result).violations

    def test_domain_coverage(self, tiny_vocab, mint):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top")}, {})
        variable = Variable(
            "v1",
            VariableTarget(TARGET_CONCEPT_TYPE, "c0"),
            ("Top", "Entity", "Act", "Place"),
        )
        gcg = gcg_of(graph, [variable])
        rng = fresh_rng("coverage")
        seen = {
            instantiated(tiny_vocab, gcg, rng, mint).concepts["c0"].type_id
            for _ in range(1000)
        }
        assert seen == {"Top", "Entity", "Act", "Place"}

    def test_relation_draw_constrains_concept_draw(self, tiny_vocab, mint, sample_gcg):
        # The relation variable forces "attends", whose signature demands a
        # Student at position 0; only that value of the concept domain stays.
        variables = [
            Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r1"), ("attends",)),
            Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Person", "Student")),
        ]
        # c0 also carries marker alice (type Person); Student <= Person holds.
        gcg = gcg_of(sample_gcg.graph, variables)
        rng = fresh_rng("order")
        for _ in range(20):
            result = instantiated(tiny_vocab, gcg, rng, mint)
            assert result.relations["r1"].type_id == "attends"
            assert result.concepts["c0"].type_id == "Student"
            assert not validate_graph(tiny_vocab, result).violations

    def test_relation_value_against_fixed_arguments_rejected(self, tiny_vocab, mint, sample_gcg):
        # r0's argument c1 is a Place, so "knows" (Person, Person) can never
        # be drawn: the gamma-CG is rejected, not drawn around.
        variables = [
            Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows", "locatedIn")),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        with pytest.raises(StructureError) as raised:
            instantiate(tiny_vocab, gcg, fresh_rng("fixed-args"), mint=mint)
        assert str(raised.value) == (
            "invalid gamma-CG 'g':\n"
            "inadmissible-value v1: 'knows' is not admissible for relation-type of 'r0'"
        )
        assert not mint.minted

    def test_type_variable_empty_effective_domain_raises(self, tiny_vocab, mint, sample_gcg):
        # Valid, yet never drawable: c1, under a concept variable, leaves
        # knows admissible on r0, and knows then bounds c1 by Person, which
        # Place is not.
        variables = [
            Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows",)),
            Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c1"), ("Place",)),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        assert validate_gamma(tiny_vocab, gcg) == []
        with pytest.raises(InstantiationError, match="'v2' of 'g' has no admissible concept type"):
            instantiate(tiny_vocab, gcg, fresh_rng("empty-type"), mint=mint)

    def test_marker_variable_minting_fallback(self, tiny_vocab, mint):
        # carol (Student) is admissible because c0 may draw Student; a draw
        # of Person leaves no marker to take, so one of type Person is minted.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person", "alice")}, {})
        variables = [
            Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Person", "Student")),
            Variable("v2", VariableTarget(TARGET_MARKER, "c0"), ("carol",)),
        ]
        gcg = gcg_of(graph, variables)
        rng = fresh_rng("mark-mint")
        drawn = set()
        for _ in range(20):
            result = instantiated(tiny_vocab, gcg, rng, mint)
            node = result.concepts["c0"]
            if node.type_id == "Student":
                assert node.marker == "carol"
            else:
                assert mint.minted[node.marker].type_id == "Person"
            drawn.add(node.type_id)
            assert not validate_graph(tiny_vocab.with_markers(mint.minted.values()), result).violations
        assert drawn == {"Person", "Student"}

    def test_marker_not_above_the_node_type_rejected(self, tiny_vocab, mint):
        # alice (Person) can never sit on a Place: rejected, not minted around.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Place", "home")}, {})
        variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), ("alice",))]
        with pytest.raises(StructureError, match="'alice' is not admissible for marker"):
            instantiate(tiny_vocab, gcg_of(graph, variables), fresh_rng("mark-mint"), mint=mint)
        assert not mint.minted

    def test_marker_variable_on_unmarked_node(self, tiny_vocab, mint):
        # The slot is declared individual by the variable itself.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), ("alice", "bob"))]
        gcg = gcg_of(graph, variables)
        result = instantiated(tiny_vocab, gcg, fresh_rng("unmarked"), mint)
        assert result.concepts["c0"].marker in ("alice", "bob")
        assert not validate_graph(tiny_vocab, result).violations


class TestUnvalidatedInput:
    """instantiate on a gamma-CG nothing has validated: rejected with its report, not a KeyError."""

    @staticmethod
    def gcg(c0=("Person", "alice"), c1=("Place", "home"), relation="locatedIn", variables=()):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", *c0), "c1": ConceptNode("c1", *c1)},
            {"r0": RelationNode("r0", relation, ("c0", "c1"))},
        )
        return gcg_of(graph, variables)

    @pytest.mark.parametrize(
        "labels, variables",
        [
            # A relation variable on a relation node of unknown type.
            (dict(relation="NoSuchRel"), [("relation-type", "r0", ("locatedIn",))]),
            # A relation variable beside a fixed argument of unknown type.
            (dict(c1=("NoSuchType",)), [("relation-type", "r0", ("locatedIn",))]),
            # A concept variable beside a relation of unknown type.
            (dict(relation="NoSuchRel"), [("concept-type", "c0", ("Person",))]),
            # A concept variable on a node whose marker is unknown.
            (dict(c0=("Person", "nobody")), [("concept-type", "c0", ("Person",))]),
            # A marker variable on a node of unknown type, with and without a
            # registered candidate.
            (dict(c0=("NoSuchType", "alice")), [("marker", "c0", ("alice",))]),
            (dict(c0=("NoSuchType", "alice")), [("marker", "c0", ("nobody",))]),
        ],
    )
    def test_unknown_label_raises_structure_error(self, tiny_vocab, mint, labels, variables):
        gcg = self.gcg(
            variables=[
                Variable(f"v{i}", VariableTarget(kind, node), domain)
                for i, (kind, node, domain) in enumerate(variables)
            ],
            **labels,
        )
        lines = validate_gamma(tiny_vocab, gcg)
        assert lines
        with pytest.raises(StructureError) as raised:
            instantiate(tiny_vocab, gcg, fresh_rng("unvalidated"), mint=mint)
        assert str(raised.value) == "\n".join(["invalid gamma-CG 'g':", *lines])


def readme_auto_inputs():
    """The vocabulary and gamma-CGs `cggen generate` builds from the README config."""
    seed = README_CONFIG["seed"]
    voc, gcg, var = (README_CONFIG[key] for key in ("autoVoc", "autoGcg", "autoVar"))
    fixed = ParamSpec.fixed
    vocab = auto_vocabulary(
        AutoVocConfig(
            concept_depth=fixed(voc["conceptDepth"]),
            relation_depth=fixed(voc["relationDepth"]),
            max_children=fixed(voc["maxChildren"]),
            markers_per_type=fixed(voc["markersPerType"]),
        ),
        derive_rng(seed, "auto-voc"),
    )
    components = auto_gamma_cgs(
        vocab,
        AutoGcgConfig(fixed(gcg["count"]), fixed(gcg["minSize"])),
        derive_rng(seed, "auto-gcg"),
    )
    variables = auto_variables(
        components.vocabulary,
        list(components.gammas),
        AutoVarConfig(
            concept_vars=fixed(var["conceptVars"]),
            relation_vars=fixed(var["relationVars"]),
            marker_vars=fixed(var["markerVars"]),
            values_per_variable=fixed(var["valuesPerVariable"]),
            specialisations=fixed(var["specialisations"]),
        ),
        derive_rng(seed, "auto-var"),
    )
    return components.vocabulary, list(variables.gammas)


def tiny_gammas(vocab, sample_gcg):
    """Hand-written variable sets on the sample graph plus dense auto-var ones."""
    def var(name, kind, node, domain):
        return Variable(name, VariableTarget(kind, node), domain)

    hand = [
        [
            var("v1", TARGET_CONCEPT_TYPE, "c0", ("Person", "Student")),
            var("v2", TARGET_MARKER, "c2", ("alice", "bob", "carol")),
            var("v3", TARGET_RELATION_TYPE, "r1", ("knows", "attends", "T2")),
        ],
        [
            var("v1", TARGET_RELATION_TYPE, "r1", ("attends", "knows")),
            var("v2", TARGET_CONCEPT_TYPE, "c0", ("Person", "Student", "Top")),
            var("v3", TARGET_MARKER, "c0", ("alice", "carol")),
        ],
        # Valid once pruned, never drawable: knows bounds c1 by Person.
        [
            var("v1", TARGET_RELATION_TYPE, "r0", ("knows",)),
            var("v2", TARGET_CONCEPT_TYPE, "c1", ("Place",)),
        ],
        [var("v1", TARGET_MARKER, "c3", ("home", "rex", "thing"))],
        # A draw of Person leaves no marker: one is minted.
        [
            var("v1", TARGET_CONCEPT_TYPE, "c0", ("Person", "Student")),
            var("v2", TARGET_MARKER, "c0", ("carol", "home")),
        ],
        [var("v1", TARGET_RELATION_TYPE, "r0", ("knows", "locatedIn"))],
    ]
    dense = auto_variables(
        vocab,
        [sample_gcg] * 10,
        AutoVarConfig(
            concept_vars=ParamSpec.fixed(3),
            relation_vars=ParamSpec.fixed(2),
            marker_vars=ParamSpec.fixed(2),
            values_per_variable=ParamSpec.fixed(3),
            specialisations=ParamSpec.fixed(1),
        ),
        fresh_rng("oracle-vars"),
    )
    return [gcg_of(sample_gcg.graph, v, f"hand-{i}") for i, v in enumerate(hand)] + [
        GammaCG(f"dense-{i}", gcg.graph, gcg.variables) for i, gcg in enumerate(dense.gammas)
    ]


def pruned(vocab, gcg):
    """``gcg`` with each variable's domain cut to the values ``slot_domain`` admits."""
    return GammaCG(
        gcg.name,
        gcg.graph,
        tuple(
            Variable(v.name, v.target, set(v.domain) & set(slot_domain(vocab, gcg, v.target)))
            for v in gcg.variables
        ),
    )


class TestDrawPlanMatchesBruteForce:
    """A plan of the pruned domains draws what filtering the stored ones draws, RNG call for call.

    The brute force filters every stored domain in full at each draw, as
    the draw did before it trusted validation; the plan and ``instantiate``
    read the validated, pruned domains as they are.
    """

    SEEDS = 50

    @staticmethod
    def attempt(draw, rng):
        try:
            return draw(rng)
        except InstantiationError as exc:
            return str(exc)

    def check(self, vocab, gammas):
        drawn = failed = 0
        for gcg in gammas:
            cut = pruned(vocab, gcg)
            assert validate_gamma(vocab, cut) == []
            brute_mint, plan_mint, bare_mint = (MarkerMint(vocab, "oracle") for _ in range(3))
            plan = DrawPlan(vocab, cut)
            for seed in range(self.SEEDS):
                rngs = [derive_rng(seed, "oracle", gcg.name) for _ in range(3)]
                expected = self.attempt(
                    lambda rng: brute_instantiate(vocab, gcg, rng, mint=brute_mint), rngs[0]
                )
                if not isinstance(expected, str):
                    # The plan specialises its type slots in the brute force's order.
                    keys = [f"{kind}:{node}" for kind, node in expected[2]]
                    assert [key for key, *_ in plan.slots] == keys
                for rng, mint, draw in (
                    (rngs[1], plan_mint, lambda rng: plan.draw(rng, plan_mint)),
                    (
                        rngs[2],
                        bare_mint,
                        lambda rng: instantiate(vocab, cut, rng, mint=bare_mint),
                    ),
                ):
                    got = self.attempt(draw, rng)
                    if isinstance(expected, str):
                        assert got == expected
                    else:
                        graph, assignments, _ = expected
                        assert outcome_graph(gcg, got) == graph
                        assert got.assignments == assignments
                    assert rng.getstate() == rngs[0].getstate()
                    assert mint.minted == brute_mint.minted
                failed += isinstance(expected, str)
                drawn += 1
        return drawn, failed

    def test_readme_auto_inputs(self):
        vocab, gammas = readme_auto_inputs()
        assert len(gammas) == 20
        drawn, failed = self.check(vocab, gammas)
        # No draw fails on these inputs; the tiny fixture compares failures.
        assert drawn and not failed

    def test_tiny_fixture(self, tiny_vocab, sample_gcg):
        drawn, failed = self.check(tiny_vocab, tiny_gammas(tiny_vocab, sample_gcg))
        assert 0 < failed < drawn


class TestWidenedDomainsDrawAsPruned(TestDrawPlanMatchesBruteForce):
    """The draw never takes a value outside ``slot_domain``.

    The brute force draws from every variable's domain widened to all values
    of its kind, and the plan from that widened domain pruned to
    ``slot_domain``: the draws are the same.
    """

    @staticmethod
    def widened(vocab, gcg):
        """``gcg`` with every variable's domain widened to all values of its kind."""
        values = {
            TARGET_RELATION_TYPE: vocab.relation_type_ids(),
            TARGET_CONCEPT_TYPE: vocab.concepts.type_ids(),
            TARGET_MARKER: tuple(vocab.markers),
        }
        return GammaCG(
            gcg.name,
            gcg.graph,
            tuple(Variable(v.name, v.target, values[v.target.kind]) for v in gcg.variables),
        )

    def check(self, vocab, gammas):
        return super().check(vocab, [self.widened(vocab, gcg) for gcg in gammas])


class TestDomainOraclesOnRandomVocabularies:
    def test_small_sweep(self):
        # A lighter version of the acceptance sweep: 10 random vocabularies,
        # each gamma-CG checked bare and with auto-var's variables, which
        # must pass validation.
        rng = fresh_rng("gamma-sweep")
        for trial in range(10):
            vocab = auto_vocabulary(
                AutoVocConfig(
                    concept_depth=ParamSpec.fixed(rng.randint(2, 4)),
                    relation_depth=ParamSpec.fixed(rng.randint(2, 3)),
                    max_children=ParamSpec.fixed(3),
                    markers_per_type=ParamSpec.fixed(2),
                ),
                rng,
            )
            result = auto_gamma_cgs(
                vocab, AutoGcgConfig(ParamSpec.fixed(2), ParamSpec.fixed(6)), rng
            )
            vocab = result.vocabulary
            with_variables = auto_variables(
                vocab,
                result.gammas,
                AutoVarConfig(
                    concept_vars=ParamSpec.fixed(2),
                    relation_vars=ParamSpec.fixed(2),
                    marker_vars=ParamSpec.fixed(2),
                    values_per_variable=ParamSpec.fixed(3),
                    specialisations=ParamSpec.fixed(3),
                ),
                rng,
            ).gammas
            for gcg in with_variables:
                assert validate_gamma(vocab, gcg) == []
            for gcg in result.gammas + with_variables:
                for node_id in gcg.graph.relations:
                    assert domain_of(vocab, gcg, TARGET_RELATION_TYPE, node_id) == (
                        tuple(sorted(brute_relation_domain(vocab, gcg, node_id)))
                    )
                for node_id in gcg.graph.concepts:
                    assert domain_of(vocab, gcg, TARGET_CONCEPT_TYPE, node_id) == (
                        tuple(sorted(brute_concept_domain(vocab, gcg, node_id)))
                    )
                    assert domain_of(vocab, gcg, TARGET_MARKER, node_id) == (
                        tuple(sorted(brute_marker_domain(vocab, gcg, node_id)))
                    )

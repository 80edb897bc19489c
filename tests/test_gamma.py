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


def domain_of(vocab, gcg, kind, node_id, **options):
    """``slot_domain`` of the slot ``kind`` of ``node_id``."""
    return slot_domain(vocab, gcg, VariableTarget(kind, node_id), **options)


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
        assert domain_of(vocab, gcg_of(graph), TARGET_RELATION_TYPE, "r0") == {"T2"}

    def test_same_arity_only(self, tiny_vocab, sample_gcg):
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "r2")
        assert domain == {"T3", "gives"}
        assert domain == brute_relation_domain(tiny_vocab, sample_gcg, "r2")

    def test_signature_compatible_excludes(self, tiny_vocab, sample_gcg):
        # r0 has args (Person, Place); "knows" needs (Person, Person), so the
        # stricter filter drops it while arity alone keeps it.
        loose = domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "r0")
        strict = domain_of(
            tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "r0", signature_compatible=True
        )
        assert "knows" in loose
        assert "knows" not in strict
        assert strict == {"T2", "locatedIn"}

    def test_not_a_relation(self, tiny_vocab, sample_gcg):
        with pytest.raises(UnknownIdentifierError):
            domain_of(tiny_vocab, sample_gcg, TARGET_RELATION_TYPE, "c0")

    def test_unknown_argument_type(self, tiny_vocab):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Person"), "c1": ConceptNode("c1", "NoSuchType")},
            {"r0": RelationNode("r0", "locatedIn", ("c0", "c1"))},
        )
        with pytest.raises(UnknownIdentifierError):
            domain_of(
                tiny_vocab, gcg_of(graph), TARGET_RELATION_TYPE, "r0", signature_compatible=True
            )


class TestConceptTypeDomain:
    def test_isolated_node_admits_everything(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_CONCEPT_TYPE, "c0") == set(
            tiny_vocab.concepts.labels
        )

    def test_top_restriction_admits_everything(self, tiny_vocab):
        graph = ConceptualGraph(
            {"c0": ConceptNode("c0", "Entity")},
            {"r0": RelationNode("r0", "T1", ("c0",))},
        )
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_CONCEPT_TYPE, "c0") == set(
            tiny_vocab.concepts.labels
        )

    def test_intersection_of_restrictions(self, tiny_vocab, sample_gcg):
        # c0 fills locatedIn[0] (Entity), knows[0] (Person), gives[0] (Person).
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, "c0")
        assert domain == {"Person", "Student"}
        assert domain == brute_concept_domain(tiny_vocab, sample_gcg, "c0")

    def test_not_a_concept(self, tiny_vocab, sample_gcg):
        with pytest.raises(UnknownIdentifierError):
            domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, "r0")

    def test_matches_brute_force_everywhere(self, tiny_vocab, sample_gcg):
        for node_id in sample_gcg.graph.concepts:
            assert domain_of(tiny_vocab, sample_gcg, TARGET_CONCEPT_TYPE, node_id) == (
                brute_concept_domain(tiny_vocab, sample_gcg, node_id)
            )


class TestMarkerDomain:
    def test_top_marker_admits_all(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top", "thing")}, {})
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_MARKER, "c0") == (
            set(tiny_vocab.markers)
        )

    def test_leaf_type_markers(self, tiny_vocab, sample_gcg):
        # alice: Person; markers at or below Person: alice, bob, carol.
        domain = domain_of(tiny_vocab, sample_gcg, TARGET_MARKER, "c0")
        assert domain == {"alice", "bob", "carol"}
        assert domain == brute_marker_domain(tiny_vocab, sample_gcg, "c0")

    def test_empty_below(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Place", "home")}, {})
        assert domain_of(tiny_vocab, gcg_of(graph), TARGET_MARKER, "c0") == {"home"}

    def test_unknown_marker(self, tiny_vocab):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person", "nobody")}, {})
        with pytest.raises(UnknownIdentifierError, match="nobody"):
            domain_of(tiny_vocab, gcg_of(graph), TARGET_MARKER, "c0")

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

    def test_wrong_arity_value_flagged(self, tiny_vocab, sample_gcg):
        variable = Variable(
            "v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows", "state")
        )
        gcg = gcg_of(sample_gcg.graph, [variable])
        assert validate_gamma(tiny_vocab, gcg) == [
            "inadmissible-value v1: 'state' is not admissible for relation-type of 'r0'"
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

    @pytest.mark.parametrize("concept_domain", [None, ("Person", "Student")])
    def test_unmarked_marker_slot_admits_what_the_draw_draws(
        self, tiny_vocab, mint, concept_domain
    ):
        # The concept variable on c0 (an isolated node) is always admissible,
        # so the marker variable alone decides whether a line is reported.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        for marker_id in sorted(tiny_vocab.markers):
            variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), (marker_id,))]
            if concept_domain:
                variables.append(
                    Variable("v2", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), concept_domain)
                )
            gcg = gcg_of(graph, variables)
            rng = fresh_rng("unmarked-slot", marker_id)
            drawn = {instantiate(tiny_vocab, gcg, rng, mint=mint).markers["c0"] for _ in range(40)}
            assert (validate_gamma(tiny_vocab, gcg) == []) == (marker_id in drawn), marker_id


class TestInstantiate:
    def test_zero_variables_returns_graph_unchanged(self, tiny_vocab, mint, sample_gcg):
        result = instantiated(tiny_vocab, sample_gcg, fresh_rng("inst0"), mint)
        assert result == sample_gcg.graph

    def test_three_variable_kinds(self, tiny_vocab, mint, sample_gcg):
        variables = [
            Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("Person", "Student")),
            Variable("v2", VariableTarget(TARGET_MARKER, "c2"), ("alice", "bob", "carol")),
            Variable("v3", VariableTarget(TARGET_RELATION_TYPE, "r1"), ("knows", "attends", "T2")),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        rng = fresh_rng("inst3")
        for _ in range(50):
            result = instantiated(tiny_vocab, gcg, rng, mint)
            assert result.concepts["c0"].type_id in ("Person", "Student")
            assert result.concepts["c2"].marker in ("alice", "bob", "carol")
            assert result.relations["r1"].type_id in ("knows", "attends", "T2")
            assert validate_graph(tiny_vocab, result).ok

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
            assert validate_graph(tiny_vocab, result).ok

    def test_relation_variable_respects_fixed_arguments(self, tiny_vocab, mint, sample_gcg):
        # r0's argument c1 is a Place, so "knows" (Person, Person) can never
        # be drawn even though it sits in the stored domain.
        variables = [
            Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows", "locatedIn")),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        rng = fresh_rng("fixed-args")
        for _ in range(30):
            result = instantiated(tiny_vocab, gcg, rng, mint)
            assert result.relations["r0"].type_id == "locatedIn"

    def test_type_variable_empty_effective_domain_raises(self, tiny_vocab, mint, sample_gcg):
        variables = [
            Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows",)),
        ]
        gcg = gcg_of(sample_gcg.graph, variables)
        with pytest.raises(InstantiationError):
            instantiate(tiny_vocab, gcg, fresh_rng("empty-type"), mint=mint)

    def test_marker_variable_minting_fallback(self, tiny_vocab, mint):
        # No marker of a type <= Place other than home; a domain holding only
        # person markers is empty after filtering, so a fresh one is minted.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Place", "home")}, {})
        variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), ("alice",))]
        gcg = gcg_of(graph, variables)
        result = instantiated(tiny_vocab, gcg, fresh_rng("mark-mint"), mint)
        minted = result.concepts["c0"].marker
        assert minted in mint.minted
        assert mint.minted[minted].type_id == "Place"
        assert validate_graph(mint.extended_vocabulary(), result).ok

    def test_marker_variable_on_unmarked_node(self, tiny_vocab, mint):
        # The slot is declared individual by the variable itself.
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Person")}, {})
        variables = [Variable("v1", VariableTarget(TARGET_MARKER, "c0"), ("alice", "bob"))]
        gcg = gcg_of(graph, variables)
        result = instantiated(tiny_vocab, gcg, fresh_rng("unmarked"), mint)
        assert result.concepts["c0"].marker in ("alice", "bob")
        assert validate_graph(tiny_vocab, result).ok


class TestUnvalidatedInput:
    """instantiate on a gamma-CG nothing has validated: a library error, not a KeyError."""

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
    def test_unknown_label_raises_unknown_identifier(self, tiny_vocab, mint, labels, variables):
        gcg = self.gcg(
            variables=[
                Variable(f"v{i}", VariableTarget(kind, node), domain)
                for i, (kind, node, domain) in enumerate(variables)
            ],
            **labels,
        )
        with pytest.raises(UnknownIdentifierError):
            instantiate(tiny_vocab, gcg, fresh_rng("unvalidated"), mint=mint)


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
        [var("v1", TARGET_RELATION_TYPE, "r0", ("knows",))],
        [var("v1", TARGET_MARKER, "c3", ("home", "rex", "thing"))],
        [var("v1", TARGET_MARKER, "c1", ("alice",))],
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


class TestDrawPlanMatchesBruteForce:
    """A compiled plan draws what filtering every whole domain draws, RNG call for call."""

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
            brute_mint, plan_mint, bare_mint = (MarkerMint(vocab, "oracle") for _ in range(3))
            plan = DrawPlan(vocab, gcg)
            for seed in range(self.SEEDS):
                rngs = [derive_rng(seed, "oracle", gcg.name) for _ in range(3)]
                expected = self.attempt(
                    lambda rng: brute_instantiate(vocab, gcg, rng, mint=brute_mint), rngs[0]
                )
                if not isinstance(expected, str):
                    # The plan specialises its type slots in the brute force's order.
                    _, _, slots = plan.rows
                    type_slots = expected[2]
                    assert [key for key, *_ in slots] == [f"{k}:{node}" for k, node in type_slots]
                for rng, mint, draw in (
                    (rngs[1], plan_mint, lambda rng: plan.draw(rng, plan_mint)),
                    (
                        rngs[2],
                        bare_mint,
                        lambda rng: instantiate(vocab, gcg, rng, mint=bare_mint),
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
        # Both outcomes occur, so both paths are compared.
        assert 0 < failed < drawn

    def test_tiny_fixture(self, tiny_vocab, sample_gcg):
        drawn, failed = self.check(tiny_vocab, tiny_gammas(tiny_vocab, sample_gcg))
        assert 0 < failed < drawn


class TestDomainOraclesOnRandomVocabularies:
    def test_small_sweep(self):
        # A lighter version of the acceptance sweep: 10 random vocabularies.
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
            for gcg in result.gammas:
                for node_id in gcg.graph.relations:
                    assert domain_of(vocab, gcg, TARGET_RELATION_TYPE, node_id) == (
                        brute_relation_domain(vocab, gcg, node_id)
                    )
                for node_id in gcg.graph.concepts:
                    assert domain_of(vocab, gcg, TARGET_CONCEPT_TYPE, node_id) == (
                        brute_concept_domain(vocab, gcg, node_id)
                    )
                    if gcg.graph.concepts[node_id].marker is not None:
                        assert domain_of(vocab, gcg, TARGET_MARKER, node_id) == (
                            brute_marker_domain(vocab, gcg, node_id)
                        )

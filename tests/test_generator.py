import hashlib
import random
import sys
from collections import Counter

import pytest

from cggen import (
    CONCEPT,
    ConceptNode,
    ConceptualGraph,
    ConfigError,
    GammaCG,
    GenerationError,
    GeneratorConfig,
    Marker,
    MarkerMint,
    RelationNode,
    Variable,
    VariableTarget,
    Vocabulary,
    derive_rng,
    generate_cgs,
    generate_dataset,
    generate_one,
    slot_domain,
    validate_graph,
)
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_MARKER, TARGET_RELATION_TYPE, DrawPlan
from cggen.generator import _generate_indexed, validate_inputs
from conftest import build_reference_gammas, fresh_rng, make_hierarchy, random_dag_hierarchy
from oracles import (
    brute_carriers,
    brute_incidences,
    brute_marker_domain,
    brute_subtype,
    fold,
    reference_generate_one,
)


def plans_of(vocab, gammas):
    return [DrawPlan(vocab, gamma) for gamma in gammas]


def hashlib_rng(seed, *parts):
    """derive_rng's stream, its SHA-256 taken through hashlib."""
    material = ":".join([str(seed), *(str(part) for part in parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@pytest.mark.parametrize("lean_module", [True, False], ids=["lean-sha256", "hashlib"])
def test_derive_rng_gives_the_hashlib_stream(monkeypatch, lean_module):
    keys = [(0, ()), (42, ("auto-voc",)), (7, ("cg", 3)), (-5, ("sz", 0, "é")), (2**70, (1.5,))]
    references = [hashlib_rng(seed, *parts) for seed, parts in keys]
    expected = [[rng.getrandbits(32) for _ in range(64)] for rng in references]
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    if not lean_module:
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    streams = [derive_rng(seed, *parts) for seed, parts in keys]
    assert [[rng.getrandbits(32) for _ in range(64)] for rng in streams] == expected
    assert len(calls) == (0 if lean_module else len(keys))


def cg(concepts, relations):
    return ConceptualGraph(
        {c.node_id: c for c in concepts}, {r.node_id: r for r in relations}
    )


def tagged(graph, tag):
    """A copy of ``graph`` with every node id prefixed by ``tag``."""
    return cg(
        [ConceptNode(tag + n.node_id, n.type_id, n.marker) for n in graph.concepts.values()],
        [
            RelationNode(tag + r.node_id, r.type_id, tuple(tag + a for a in r.args))
            for r in graph.relations.values()
        ],
    )


def node_multiset(graph):
    return Counter((n.type_id, n.marker) for n in graph.concepts.values())


def edge_multiset(graph):
    out = Counter()
    for node in graph.relations.values():
        key = (
            node.type_id,
            tuple(
                (graph.concepts[a].type_id, graph.concepts[a].marker) for a in node.args
            ),
        )
        out[key] += 1
    return out


def canonical(graph):
    return (node_multiset(graph), edge_multiset(graph))


class TestJoin:
    def test_identity_on_empty(self, tiny_vocab):
        g = cg(
            [ConceptNode("c0", "Person", "alice"), ConceptNode("c1", "Place", "home")],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        empty = ConceptualGraph({}, {})
        assert fold(tiny_vocab, empty, g) == g
        assert fold(tiny_vocab, g, empty) == g

    def test_shared_marker_merges_one_pair(self, tiny_vocab):
        # Two graphs each holding a node with the same marker: the output has
        # one such node, connected to both neighborhoods, with the more
        # specific type.
        left = cg(
            [ConceptNode("a0", "Person", "alice"), ConceptNode("a1", "Place", "home")],
            [RelationNode("ar", "locatedIn", ("a0", "a1"))],
        )
        right = cg(
            [ConceptNode("b0", "Student", "alice"), ConceptNode("b1", "Person", "bob")],
            [RelationNode("br", "knows", ("b0", "b1"))],
        )
        out = fold(tiny_vocab, left, right)
        assert out.size == 5  # 3 concepts + 2 relations
        alice_nodes = [n for n in out.concepts.values() if n.marker == "alice"]
        assert len(alice_nodes) == 1
        merged = alice_nodes[0]
        assert merged.type_id == "Student"
        incident = {rel for rel, _ in brute_incidences(out, merged.node_id)}
        assert incident == {"ar", "br"}
        assert validate_graph(tiny_vocab, out).ok

    def test_disjoint_markers_preserve_counts(self, tiny_vocab):
        rng = fresh_rng("join-counts")
        gammas = build_reference_gammas(tiny_vocab, rng, count=6, min_size=6)
        for i in range(len(gammas)):
            for j in range(i + 1, len(gammas)):
                # Every reference gamma-CG numbers its nodes from n0 and e0.
                left, right = gammas[i].graph, tagged(gammas[j].graph, "right-")
                left_markers = {n.marker for n in left.concepts.values()} - {None}
                right_markers = {n.marker for n in right.concepts.values()} - {None}
                if left_markers & right_markers:
                    continue
                out = fold(tiny_vocab, left, right)
                assert out.size == left.size + right.size

    def test_multiple_nodes_same_marker_collapse(self, tiny_vocab):
        left = cg([ConceptNode("a0", "Person", "alice")], [])
        right = cg(
            [
                ConceptNode("b0", "Person", "alice"),
                ConceptNode("b1", "Student", "alice"),
            ],
            [],
        )
        out = fold(tiny_vocab, left, right)
        assert len(out.concepts) == 1
        assert next(iter(out.concepts.values())).type_id == "Student"

    def test_incomparable_types_left_unmerged(self, tiny_vocab):
        left = cg([ConceptNode("a0", "Person", "thing")], [])
        right = cg([ConceptNode("b0", "Place", "thing")], [])
        out = fold(tiny_vocab, left, right)
        assert len(out.concepts) == 2

    def test_associative_up_to_node_identity(self, tiny_vocab):
        # Marker-disjoint graphs: namespacing the markers per graph keeps
        # cross-graph merges impossible, as the property requires.
        rng = fresh_rng("join-assoc")
        concept_types = tiny_vocab.concepts.type_ids()

        def random_graph(tag):
            concepts = {}
            for k in range(rng.randint(2, 8)):
                node_id = f"{tag}c{k}"
                marker = f"{tag}-m{rng.randint(0, 3)}" if rng.random() < 0.7 else None
                concepts[node_id] = ConceptNode(node_id, rng.choice(concept_types), marker)
            ids = sorted(concepts)
            relations = {}
            for k in range(rng.randint(1, 4)):
                rel_type = rng.choice(("knows", "locatedIn", "T2"))
                args = (rng.choice(ids), rng.choice(ids))
                relations[f"{tag}r{k}"] = RelationNode(f"{tag}r{k}", rel_type, args)
            return ConceptualGraph(concepts, relations)

        for trial in range(20):
            a, b, c = (random_graph(f"t{trial}{tag}") for tag in "abc")
            left = fold(tiny_vocab, fold(tiny_vocab, a, b), c)
            right = fold(tiny_vocab, a, fold(tiny_vocab, b, c))
            assert canonical(left) == canonical(right)

    def test_merge_matches_brute_order_on_random_dags(self):
        # Two nodes sharing a marker merge iff their types are comparable,
        # and the merged node keeps the lower type.
        rng = fresh_rng("join-order")
        concepts = random_dag_hierarchy(rng, 40)
        vocab = Vocabulary(concepts, {}, {}, {"m": Marker("m", "t0")})
        ids = concepts.type_ids()
        for _ in range(500):
            a, b = rng.choice(ids), rng.choice(ids)
            out = fold(vocab, cg([ConceptNode("x", a, "m")], []), cg([ConceptNode("y", b, "m")], []))
            types = sorted(node.type_id for node in out.concepts.values())
            if brute_subtype(concepts, a, b):
                assert types == [a]
            elif brute_subtype(concepts, b, a):
                assert types == [b]
            else:
                assert types == sorted([a, b])


@pytest.fixture
def plain_gamma(tiny_vocab):
    graph = cg(
        [
            ConceptNode("c0", "Person", "alice"),
            ConceptNode("c1", "Place", "home"),
            ConceptNode("c2", "Person", "bob"),
        ],
        [
            RelationNode("r0", "locatedIn", ("c0", "c1")),
            RelationNode("r1", "knows", ("c0", "c2")),
        ],
    )
    return GammaCG("plain", graph)


class TestGenerateOne:
    def test_single_component_reaching_min_size(self, tiny_vocab, mint, plain_gamma):
        config = GeneratorConfig(max_cgs=1, min_size=5, max_spe=0, seed=1)
        plans = plans_of(tiny_vocab, [plain_gamma])
        graph, provenance = generate_one(tiny_vocab, plans, config, fresh_rng("one"), mint=mint)
        assert canonical(graph) == canonical(plain_gamma.graph)
        assert [d.gamma_name for d in provenance.draws] == ["plain"]
        assert validate_graph(tiny_vocab, graph).ok

    def test_size_bounds_over_seeded_runs(self, reference_fixture):
        vocab, gammas, _ = reference_fixture
        config = GeneratorConfig(max_cgs=1, min_size=30, max_spe=3, seed=1)
        largest = max(g.graph.size for g in gammas)
        plans = plans_of(vocab, gammas)
        for i in range(100):
            graph, _ = generate_one(
                vocab, plans, config, derive_rng(1, "sz", i), mint=MarkerMint(vocab, f"cg{i}")
            )
            assert 30 <= graph.size < 30 + largest

    def test_singleton_marker_domain_connects_instances(self, tiny_vocab, mint):
        # Both components draw the same marker, so their instances share a
        # node in the output.
        graph = cg(
            [ConceptNode("c0", "Person", "alice"), ConceptNode("c1", "Person", "bob")],
            [RelationNode("r0", "knows", ("c0", "c1"))],
        )
        gamma = GammaCG(
            "pin",
            graph,
            (Variable("v1", VariableTarget(TARGET_MARKER, "c0"), ("bob",)),),
        )
        config = GeneratorConfig(max_cgs=1, min_size=6, max_spe=0, seed=3)
        plans = plans_of(tiny_vocab, [gamma])
        out, provenance = generate_one(tiny_vocab, plans, config, fresh_rng("pinm"), mint=mint)
        bob_nodes = [n for n in out.concepts.values() if n.marker == "bob"]
        assert len(bob_nodes) == 1
        merges = [m for d in provenance.draws for m in d.merged]
        assert any(marker == "bob" for marker, _, _ in merges)

    def test_failing_gamma_skipped(self, tiny_vocab, mint, plain_gamma):
        # locatedIn's Place argument can never satisfy "knows"; the gamma
        # always fails instantiation and must be skipped, not loop forever.
        broken_graph = cg(
            [ConceptNode("c0", "Person"), ConceptNode("c1", "Place")],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        broken = GammaCG(
            "broken",
            broken_graph,
            (Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows",)),),
        )
        config = GeneratorConfig(max_cgs=1, min_size=8, max_spe=0, seed=5)
        plans = plans_of(tiny_vocab, [broken, plain_gamma])
        graph, provenance = generate_one(tiny_vocab, plans, config, fresh_rng("skip"), mint=mint)
        assert {d.gamma_name for d in provenance.draws} == {"plain"}
        assert graph.size >= 8

    def test_skipped_merge_pairs_not_rerecorded(self, tiny_vocab, mint):
        # Two coreferent nodes with incomparable types stay unmerged; the
        # skip must be recorded once per attempted pair, not repeated on
        # every later join against the accumulated graph.
        graph = cg(
            [
                ConceptNode("c0", "Person", "thing"),
                ConceptNode("c1", "Place", "thing"),
            ],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        gamma = GammaCG("clash", graph)
        config = GeneratorConfig(max_cgs=1, min_size=12, max_spe=0, seed=2)
        plans = plans_of(tiny_vocab, [gamma])
        _, provenance = generate_one(tiny_vocab, plans, config, fresh_rng("skrec"), mint=mint)
        assert len(provenance.draws) >= 3
        skips = [s for d in provenance.draws for s in d.skipped_merges]
        assert skips
        assert len(skips) == len(set(skips))

    def test_all_gammas_failing_raises(self, tiny_vocab, mint):
        broken_graph = cg(
            [ConceptNode("c0", "Person"), ConceptNode("c1", "Place")],
            [RelationNode("r0", "locatedIn", ("c0", "c1"))],
        )
        broken = GammaCG(
            "broken",
            broken_graph,
            (Variable("v1", VariableTarget(TARGET_RELATION_TYPE, "r0"), ("knows",)),),
        )
        config = GeneratorConfig(max_cgs=1, min_size=8, max_spe=0, seed=5)
        with pytest.raises(GenerationError):
            generate_one(
                tiny_vocab, plans_of(tiny_vocab, [broken]), config, fresh_rng("allskip"), mint=mint
            )

    def test_empty_gamma_set_rejected(self, tiny_vocab, mint):
        config = GeneratorConfig(max_cgs=1, min_size=1, seed=1)
        with pytest.raises(ConfigError):
            generate_one(tiny_vocab, [], config, fresh_rng("none"), mint=mint)


def oracle_gammas():
    """Gamma-CGs over tiny_vocab whose draws exercise every step of the loop.

    "repeat" has a relation whose two arguments are one concept under a
    concept variable, so its relation variable constrains that concept
    twice; "filtered" walks down from T2 between a Person and a Place,
    where the signature of knows (Person, Person) filters it out. The
    markers recur across draws, so nodes merge, and "thing" (Top) lands on
    incomparable types, so merges are skipped.
    """

    def variable(name, kind, node, *domain):
        return Variable(name, VariableTarget(kind, node), domain)

    repeat = GammaCG(
        "repeat",
        cg(
            [ConceptNode("c0", "Person"), ConceptNode("c1", "Place", "home")],
            [
                RelationNode("r0", "knows", ("c0", "c0")),
                RelationNode("r1", "locatedIn", ("c0", "c1")),
            ],
        ),
        (
            variable("vr", TARGET_RELATION_TYPE, "r0", "T2", "knows", "attends"),
            variable("vc", TARGET_CONCEPT_TYPE, "c0", "Person", "Student"),
            variable("vm", TARGET_MARKER, "c0", "alice", "bob", "carol", "thing"),
        ),
    )
    filtered = GammaCG(
        "filtered",
        cg(
            [ConceptNode("a", "Person", "alice"), ConceptNode("b", "Place")],
            [RelationNode("e", "T2", ("a", "b"))],
        ),
        (
            variable("w", TARGET_RELATION_TYPE, "e", "T2"),
            variable("m", TARGET_MARKER, "b", "home", "thing"),
        ),
    )
    ternary = GammaCG(
        "ternary",
        cg(
            [ConceptNode("p", "Person", "bob"), ConceptNode("q", "Entity", "rex")],
            [RelationNode("g", "gives", ("p", "q", "p")), RelationNode("s", "state", ("q",))],
        ),
        (variable("t", TARGET_CONCEPT_TYPE, "q", "Entity", "Person", "Place"),),
    )
    return [repeat, filtered, ternary]


class TestRngConsumption:
    """generate_one draws from the RNG exactly as the loop it replaced."""

    @pytest.mark.parametrize("max_spe", [0, 3])
    def test_matches_reference_loop(self, tiny_vocab, max_spe):
        gammas = oracle_gammas()
        assert validate_inputs(tiny_vocab, gammas) == []
        plans = plans_of(tiny_vocab, gammas)
        config = GeneratorConfig(max_cgs=1, min_size=60, max_spe=max_spe)
        steps = merges = skips = 0
        for seed in range(24):
            rng, mint = derive_rng(seed, "rng"), MarkerMint(tiny_vocab, "m")
            got = generate_one(tiny_vocab, plans, config, rng, mint=mint)
            rng, mint = derive_rng(seed, "rng"), MarkerMint(tiny_vocab, "m")
            want = reference_generate_one(tiny_vocab, gammas, config, rng, mint=mint)
            assert got == want
            draws = got[1].draws
            steps += sum(taken for draw in draws for _, taken in draw.specialisations)
            merges += sum(len(draw.merged) for draw in draws)
            skips += sum(len(draw.skipped_merges) for draw in draws)
        assert merges and skips
        assert bool(steps) == bool(max_spe)


class TestMarkerMint:
    def test_mints_are_distinct(self, tiny_vocab):
        mint = MarkerMint(tiny_vocab, "t")
        assert mint.mint("Person") != mint.mint("Person")

    def test_registry_round_trip(self, tiny_vocab):
        mint = MarkerMint(tiny_vocab, "t")
        minted = mint.mint("Person")
        graph = cg([ConceptNode("c0", "Person", minted)], [])
        gcg = GammaCG("g", graph)
        extended = mint.extended_vocabulary()
        assert minted in slot_domain(extended, gcg, VariableTarget(TARGET_MARKER, "c0"))
        assert minted in extended.markers
        assert extended.markers[minted].type_id == "Person"

    def test_minted_marker_survives_serialization(self, tiny_vocab, tmp_path):
        from cggen import load_vocabulary, save_vocabulary

        mint = MarkerMint(tiny_vocab, "t")
        minted = mint.mint("Place")
        path = tmp_path / "voc.json"
        save_vocabulary(path, mint.extended_vocabulary())
        assert minted in load_vocabulary(path).markers


class TestMarkersByTypeOnDag:
    """The markers-by-type index against brute scans of a multi-parent hierarchy."""

    @pytest.fixture
    def dag_vocab(self):
        # C has two parents, so D reaches Top along two paths.
        concepts = make_hierarchy(
            CONCEPT,
            "Top",
            [("A", "Top"), ("B", "Top"), ("C", "A"), ("C", "B"), ("D", "C"), ("E", "B")],
        )
        markers = [Marker("a1", "A"), Marker("b1", "B"), Marker("d1", "D"), Marker("t1", "Top")]
        return Vocabulary(concepts, {}, {}, {m.marker_id: m for m in markers})

    def test_index_matches_brute_scans_between_mints(self, dag_vocab):
        mint = MarkerMint(dag_vocab, "t")
        for next_mint in ("C", "E", "Top", "D", "C", "A", None):
            vocab = mint.extended_vocabulary()
            for type_id in vocab.concepts.type_ids():
                carriers = brute_carriers(vocab, mint.markers, type_id)
                assert mint.carriers(type_id) == carriers
                gcg = GammaCG("g", cg([ConceptNode("c0", type_id)], []))
                target = VariableTarget(TARGET_MARKER, "c0")
                assert slot_domain(vocab, gcg, target) == carriers
                assert carriers == tuple(sorted(brute_marker_domain(vocab, gcg, "c0")))
            if next_mint is not None:
                mint.mint(next_mint)

    def test_carriers_follow_mints_interleaved_across_types(self, dag_vocab):
        # carriers() is memoised per type: a mint of any type must be seen by
        # the next carriers() call of every type, asked before it or not.
        mint = MarkerMint(dag_vocab, "t")
        types = dag_vocab.concepts.type_ids()
        rng = fresh_rng("carriers-interleaved")
        minted = 0
        for _ in range(200):
            type_id = rng.choice(types)
            if rng.random() < 0.25:
                mint.mint(type_id)
                minted += 1
            else:
                want = brute_carriers(dag_vocab, mint.markers, type_id)
                assert mint.carriers(type_id) == want
        assert minted >= 20


class TestGenerateDataset:
    def test_exact_count_and_validity(self, reference_fixture):
        vocab, gammas, config = reference_fixture
        result = generate_dataset(vocab, gammas, config)
        assert len(result.graphs) == config.max_cgs
        for graph in result.graphs:
            # The assembler builds each CG without ConceptualGraph's own
            # checks; it must still pass them.
            assert ConceptualGraph(*graph) == graph
            assert validate_graph(result.vocabulary, graph).ok

    def test_determinism(self, reference_fixture):
        vocab, gammas, _ = reference_fixture
        config = GeneratorConfig(max_cgs=12, min_size=30, max_spe=3, seed=99)
        a = generate_dataset(vocab, gammas, config)
        b = generate_dataset(vocab, gammas, config)
        assert a.graphs == b.graphs
        assert a.provenances == b.provenances
        assert a.vocabulary == b.vocabulary

    def test_jobs_1_gives_the_default_result(self, reference_fixture):
        vocab, gammas, _ = reference_fixture
        config = GeneratorConfig(max_cgs=4, min_size=30, max_spe=3, seed=99)
        assert generate_dataset(vocab, gammas, config, jobs=1) == generate_dataset(
            vocab, gammas, config
        )

    def test_jobs_other_than_1_rejected(self, reference_fixture):
        vocab, gammas, config = reference_fixture
        with pytest.raises(ConfigError, match="jobs"):
            generate_dataset(vocab, gammas, config, jobs=4)

    def test_draw_plans_carry_nothing_between_cgs(self, reference_fixture):
        # CG i depends on (seed, i) only: built in reverse order from one
        # shared list of DrawPlans, every CG equals entry i of generate_cgs.
        vocab, gammas, _ = reference_fixture
        config = GeneratorConfig(max_cgs=8, min_size=30, max_spe=3, seed=99)
        in_order = list(generate_cgs(vocab, gammas, config))
        plans = [DrawPlan(vocab, gcg) for gcg in gammas]
        for i in reversed(range(config.max_cgs)):
            assert _generate_indexed(vocab, plans, config, i) == in_order[i]

    def test_per_index_streams_are_order_independent(self, reference_fixture):
        vocab, gammas, _ = reference_fixture
        small = generate_dataset(
            vocab, gammas, GeneratorConfig(max_cgs=3, min_size=30, max_spe=3, seed=42)
        )
        large = generate_dataset(
            vocab, gammas, GeneratorConfig(max_cgs=5, min_size=30, max_spe=3, seed=42)
        )
        assert large.graphs[:3] == small.graphs

    def test_specialisation_bounded_by_max_spe(self, reference_fixture):
        vocab, gammas, _ = reference_fixture
        config = GeneratorConfig(max_cgs=10, min_size=30, max_spe=2, seed=7)
        result = generate_dataset(vocab, gammas, config)
        steps = [
            count
            for provenance in result.provenances
            for draw in provenance.draws
            for _, count in draw.specialisations
        ]
        assert steps and max(steps) <= 2

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(max_cgs=0, min_size=1)
        with pytest.raises(ConfigError):
            GeneratorConfig(max_cgs=1, min_size=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(max_cgs=1, min_size=1, max_spe=-1)

    def test_reference_magnitude(self, reference_fixture):
        # Loose magnitude check against the published scale: averages in the
        # mid-thirties for min_size 30 with ~8-node components, and a node
        # stddev far below the mean (unlike translation-produced bases).
        vocab, gammas, config = reference_fixture
        result = generate_dataset(vocab, gammas, config)
        from cggen import compute_stats

        stats = compute_stats(result.graphs)
        assert 30 <= stats.nb_nodes_mean <= 40
        assert stats.nb_nodes_stddev < 0.25 * stats.nb_nodes_mean

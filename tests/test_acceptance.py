"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. The heavier criteria share module-scoped fixtures.
"""

import json
import math
import statistics
import time

import pytest

from cggen import (
    AutoGcgConfig,
    AutoVarConfig,
    AutoVocConfig,
    ConceptNode,
    ConceptualGraph,
    GeneratorConfig,
    ParamSpec,
    RelationNode,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
    compute_stats,
    derive_rng,
    generate_dataset,
    load_cg,
    load_dataset,
    load_gamma_cg,
    load_vocabulary,
    save_dataset,
    save_gamma_cg,
    save_vocabulary,
    validate_graph,
)
from cggen.cli import main
from cggen.formats import _cg_document
from cggen.gamma import (
    TARGET_CONCEPT_TYPE,
    TARGET_MARKER,
    TARGET_RELATION_TYPE,
    VariableTarget,
    slot_domain,
)
from conftest import (
    REFERENCE_VAR_CONFIG,
    build_reference_gammas,
    fresh_rng,
)
from oracles import (
    brute_concept_domain,
    brute_incidences,
    brute_marker_domain,
    brute_relation_domain,
    brute_subtype,
    fold,
    recount_stats,
)

SEEDS = 100

FULL_AUTO_VOC = AutoVocConfig(
    concept_depth=ParamSpec.fixed(4),
    relation_depth=ParamSpec.fixed(3),
    max_children=ParamSpec.fixed(3),
    markers_per_type=ParamSpec.fixed(3),
    arities=(1, 2, 3),
)
FULL_AUTO_GCG = AutoGcgConfig(count=ParamSpec.fixed(20), min_size=ParamSpec.fixed(8))
FULL_AUTO_VAR = AutoVarConfig(
    concept_vars=ParamSpec.fixed(1),
    relation_vars=ParamSpec.fixed(1),
    marker_vars=ParamSpec.fixed(1),
    values_per_variable=ParamSpec.fixed(4),
    specialisations=ParamSpec.fixed(3),
)


def full_auto_run(seed: int):
    vocab = auto_vocabulary(FULL_AUTO_VOC, derive_rng(seed, "auto-voc"))
    gcg_result = auto_gamma_cgs(vocab, FULL_AUTO_GCG, derive_rng(seed, "auto-gcg"))
    vocab = gcg_result.vocabulary
    var_result = auto_variables(
        vocab, list(gcg_result.gammas), FULL_AUTO_VAR, derive_rng(seed, "auto-var")
    )
    config = GeneratorConfig(max_cgs=100, min_size=30, max_spe=3, seed=seed)
    result = generate_dataset(vocab, list(var_result.gammas), config)
    return result, list(var_result.gammas)


@pytest.fixture(scope="module")
def full_auto_summaries():
    """Per-seed summaries of the 100 Full-Auto pipeline runs."""
    summaries = []
    started = time.perf_counter()
    for seed in range(SEEDS):
        result, gammas = full_auto_run(seed)
        violations = sum(
            len(validate_graph(result.vocabulary, graph).violations)
            for graph in result.graphs
        )
        summaries.append(
            {
                "seed": seed,
                "violations": violations,
                "count": len(result.graphs),
                "sizes": [graph.size for graph in result.graphs],
                "largest_gamma": max(g.graph.size for g in gammas),
            }
        )
    return summaries, time.perf_counter() - started


def test_criterion_1_soundness(full_auto_summaries):
    summaries, elapsed = full_auto_summaries
    total_violations = sum(s["violations"] for s in summaries)
    assert len(summaries) == SEEDS
    assert total_violations == 0
    assert elapsed < 120
    print(
        f"PASS criterion 1: {SEEDS} Full-Auto runs, 0 validation violations "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_size_and_count(full_auto_summaries):
    summaries, _ = full_auto_summaries
    for summary in summaries:
        assert summary["count"] == 100
        upper = 30 + summary["largest_gamma"]
        for size in summary["sizes"]:
            assert 30 <= size < upper
    print("PASS criterion 2: |dataset| = 100 and every CG in [30, 30 + max gamma size)")


def test_criterion_3_runtime(tmp_path):
    config = {
        "seed": 20260401,
        "autoVoc": {
            "conceptDepth": 4,
            "relationDepth": 3,
            "maxChildren": 3,
            "markersPerType": 3,
        },
        "autoGcg": {"count": 20, "minSize": 8},
        "autoVar": {
            "conceptVars": 1,
            "relationVars": 1,
            "markerVars": 1,
            "valuesPerVariable": 4,
            "specialisations": 3,
        },
        "generator": {"maxCGs": 100, "minSize": 30, "maxSpe": 3},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    started = time.perf_counter()
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 3: benchmark-scale generate run took {elapsed:.2f}s (< 5s)")


def test_criterion_4_determinism(tmp_path):
    config = {
        "seed": 77,
        "autoVoc": {
            "conceptDepth": 4,
            "relationDepth": 3,
            "maxChildren": 3,
            "markersPerType": 3,
        },
        "autoGcg": {"count": 12, "minSize": 8},
        "autoVar": {
            "conceptVars": 1,
            "relationVars": 1,
            "markerVars": 1,
            "valuesPerVariable": 4,
            "specialisations": 3,
        },
        "generator": {"maxCGs": 25, "minSize": 30, "maxSpe": 3},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["generate", "--config", str(path), "--out", str(out)])
        assert rc == 0
        outs.append(tree(out))
    assert outs[0] == outs[1]
    print("PASS criterion 4: byte-identical output directories")


def test_criterion_5_domain_oracles():
    checked = 0
    for index in range(50):
        rng = derive_rng(5000, "oracle", index)
        vocab = auto_vocabulary(
            AutoVocConfig(
                concept_depth=ParamSpec.fixed(rng.randint(2, 4)),
                relation_depth=ParamSpec.fixed(rng.randint(2, 3)),
                max_children=ParamSpec.fixed(3),
                markers_per_type=ParamSpec.fixed(2),
                arities=(1, 2, 3),
            ),
            rng,
        )
        total_types = len(vocab.concepts.labels) + sum(
            len(h.labels) for h in vocab.relations.values()
        )
        assert total_types <= 100
        gcg_result = auto_gamma_cgs(
            vocab, AutoGcgConfig(ParamSpec.fixed(2), ParamSpec.fixed(6)), rng
        )
        vocab = gcg_result.vocabulary
        for gcg in gcg_result.gammas:
            for node_id in gcg.graph.relations:
                target = VariableTarget(TARGET_RELATION_TYPE, node_id)
                assert slot_domain(vocab, gcg, target) == (
                    tuple(sorted(brute_relation_domain(vocab, gcg, node_id)))
                )
                checked += 1
            for node_id in gcg.graph.concepts:
                for kind, oracle in (
                    (TARGET_CONCEPT_TYPE, brute_concept_domain),
                    (TARGET_MARKER, brute_marker_domain),
                ):
                    target = VariableTarget(kind, node_id)
                    assert slot_domain(vocab, gcg, target) == (
                        tuple(sorted(oracle(vocab, gcg, node_id)))
                    )
                    checked += 1
    print(
        f"PASS criterion 5: 50 random vocabularies, {checked} domain computations "
        "match brute force"
    )


def test_criterion_6_auto_voc_structure():
    for seed in range(SEEDS):
        rng = derive_rng(6000, "structure", seed)
        vocab = auto_vocabulary(FULL_AUTO_VOC, rng)
        concepts = vocab.concepts
        # depth 4 counted in levels: the deepest type has 3 ancestors
        assert max(len(concepts.up[t]) - 1 for t in concepts.labels) == 3
        marker_counts: dict = {}
        for marker in vocab.markers.values():
            marker_counts[marker.type_id] = marker_counts.get(marker.type_id, 0) + 1
        assert set(marker_counts) == set(concepts.labels)
        assert all(count == 3 for count in marker_counts.values())
        for type_id in concepts.labels:
            assert len(concepts.children[type_id]) <= 3
        for arity, hierarchy in vocab.relations.items():
            assert max(len(hierarchy.up[t]) - 1 for t in hierarchy.labels) == 2  # depth 3
            for type_id in hierarchy.labels:
                assert len(hierarchy.children[type_id]) <= 3
            assert vocab.signatures[hierarchy.root].restrictions == ("Top",) * arity
            for sub in hierarchy.labels:
                for sup in hierarchy.up[sub]:
                    for below, above in zip(
                        vocab.signatures[sub].restrictions,
                        vocab.signatures[sup].restrictions,
                    ):
                        assert brute_subtype(vocab.concepts, below, above)
    print(
        f"PASS criterion 6: {SEEDS} random vocabularies have exact "
        "depth, bounded children, 3 markers/type, monotone signatures"
    )


BLURRED_VOC = AutoVocConfig(
    concept_depth=ParamSpec.normal(5, 1),
    relation_depth=ParamSpec.normal(4, 1),
    max_children=ParamSpec.normal(3, 1),
    markers_per_type=ParamSpec.normal(3, 1),
    arities=(1, 2, 3),
)
PINNED_VOC = AutoVocConfig(
    concept_depth=ParamSpec.fixed(5),
    relation_depth=ParamSpec.fixed(4),
    max_children=ParamSpec.fixed(3),
    markers_per_type=ParamSpec.fixed(3),
    arities=(1, 2, 3),
)


def _reference_inputs(vocab, gcg_stream, var_stream):
    gammas = build_reference_gammas(vocab, gcg_stream)
    return list(
        auto_variables(vocab, gammas, REFERENCE_VAR_CONFIG, var_stream).gammas
    )


def _arity_entropy(counts):
    total = sum(counts.get(a, 0.0) for a in (1, 2, 3))
    shares = [counts.get(a, 0.0) / total for a in (1, 2, 3) if counts.get(a, 0.0) > 0]
    return -sum(p * math.log(p) for p in shares)


def test_criterion_7_variability_trend():
    # Three repetitions with distinct meta-seeds; each compares 100 seeds of
    # the fixed-input base against Auto-Voc (fresh vocabulary per seed) and
    # Auto-gammaCG (fresh components per seed) at matched parameter means.
    for repetition in range(3):
        meta = 7000 + repetition
        base_vocab = auto_vocabulary(PINNED_VOC, derive_rng(meta, "base-voc"))
        base_gammas = _reference_inputs(
            base_vocab, derive_rng(meta, "base-gcg"), derive_rng(meta, "base-var")
        )

        base_label_means, base_arity = [], []
        autovoc_label_means = []
        autogcg_arity = []
        for seed in range(SEEDS):
            config = GeneratorConfig(
                max_cgs=30, min_size=30, max_spe=3, seed=seed * 7919 + meta
            )
            stats = compute_stats(
                generate_dataset(base_vocab, base_gammas, config).graphs
            )
            base_label_means.append(stats.nb_labels_mean)
            base_arity.append(stats.arity_counts)

            blurred = auto_vocabulary(BLURRED_VOC, derive_rng(meta, "av-voc", seed))
            autovoc_gammas = _reference_inputs(
                blurred,
                derive_rng(meta, "av-gcg", seed),
                derive_rng(meta, "av-var", seed),
            )
            stats = compute_stats(
                generate_dataset(blurred, autovoc_gammas, config).graphs
            )
            autovoc_label_means.append(stats.nb_labels_mean)

            gcg_result = auto_gamma_cgs(
                base_vocab,
                AutoGcgConfig(ParamSpec.fixed(8), ParamSpec.fixed(8)),
                derive_rng(meta, "ag-gcg", seed),
            )
            stats = compute_stats(
                generate_dataset(
                    gcg_result.vocabulary, list(gcg_result.gammas), config
                ).graphs
            )
            autogcg_arity.append(stats.arity_counts)

        base_spread = statistics.pstdev(base_label_means)
        autovoc_spread = statistics.pstdev(autovoc_label_means)
        assert autovoc_spread >= 1.5 * base_spread, (
            f"repetition {repetition}: NbL spread {autovoc_spread:.2f} "
            f"vs base {base_spread:.2f}"
        )

        base_entropy = statistics.fmean(_arity_entropy(c) for c in base_arity)
        autogcg_entropy = statistics.fmean(_arity_entropy(c) for c in autogcg_arity)
        mean_ar1 = statistics.fmean(c.get(1, 0.0) for c in autogcg_arity)
        mean_ar3 = statistics.fmean(c.get(3, 0.0) for c in autogcg_arity)
        assert mean_ar1 > 0.5 and mean_ar3 > 0.5
        assert autogcg_entropy > base_entropy + 0.3
    print(
        "PASS criterion 7: Auto-Voc NbL spread >= 1.5x base and Auto-gammaCG "
        "widens the arity mix, stable over 3 repetitions"
    )


def test_criterion_8_metrics_oracle(tiny_vocab):
    rng = fresh_rng("acc-metrics")
    gammas = build_reference_gammas(tiny_vocab, rng, count=5, min_size=6)
    for trial in range(20):
        config = GeneratorConfig(
            max_cgs=rng.randint(1, 20),
            min_size=rng.randint(5, 15),
            max_spe=0,
            seed=800 + trial,
        )
        graphs = list(generate_dataset(tiny_vocab, gammas, config).graphs)
        stats = compute_stats(graphs)
        expected = recount_stats(graphs)
        assert stats.cg_count == expected["cg_count"]
        assert math.isclose(stats.nb_nodes_mean, expected["nb_nodes_mean"])
        assert math.isclose(stats.nb_nodes_stddev, expected["nb_nodes_stddev"])
        assert math.isclose(stats.nb_labels_mean, expected["nb_labels_mean"])
        assert math.isclose(stats.nb_labels_stddev, expected["nb_labels_stddev"])
        assert set(stats.arity_counts) == set(expected["arity_counts"])
        for arity, mean in expected["arity_counts"].items():
            assert math.isclose(stats.arity_counts[arity], mean)
        rng.shuffle(graphs)
        assert compute_stats(graphs) == stats
    print("PASS criterion 8: stats match brute recount on 20 datasets, permutation-stable")


def test_criterion_9_join_properties(tiny_vocab):
    rng = fresh_rng("acc-join")
    concept_types = tiny_vocab.concepts.type_ids()

    def random_graph(tag, marker_space):
        # Markers unique per node: a well-formed CG has no unmerged
        # coreferent duplicates, and the merge would collapse them otherwise.
        concepts = {}
        for k in range(rng.randint(1, 6)):
            node_id = f"{tag}c{k}"
            marker = f"{marker_space}-m{k}" if rng.random() < 0.6 else None
            concepts[node_id] = ConceptNode(node_id, rng.choice(concept_types), marker)
        ids = sorted(concepts)
        relations = {}
        for k in range(rng.randint(0, 3)):
            relations[f"{tag}r{k}"] = RelationNode(
                f"{tag}r{k}", "knows", (rng.choice(ids), rng.choice(ids))
            )
        return ConceptualGraph(concepts, relations)

    fixtures = 0
    while fixtures < 1000:
        # Identity on the empty graph.
        graph = random_graph(f"i{fixtures}", f"s{fixtures}")
        assert fold(tiny_vocab, ConceptualGraph({}, {}), graph) == graph
        fixtures += 1

        # Marker-disjoint joins preserve node counts.
        left = random_graph(f"l{fixtures}", f"L{fixtures}")
        right = random_graph(f"r{fixtures}", f"R{fixtures}")
        joined = fold(tiny_vocab, left, right)
        assert joined.size == left.size + right.size
        fixtures += 1

        # Shared-marker fixture: exactly one merged pair, most specific type.
        deep, shallow = ("Student", "Person") if rng.random() < 0.5 else ("Person", "Entity")
        left = ConceptualGraph(
            {
                "x0": ConceptNode("x0", deep, "alice"),
                "x1": ConceptNode("x1", "Place", "home"),
            },
            {"xr": RelationNode("xr", "locatedIn", ("x0", "x1"))},
        )
        right = ConceptualGraph(
            {
                "y0": ConceptNode("y0", shallow, "alice"),
                "y1": ConceptNode("y1", "Person", "bob"),
            },
            {"yr": RelationNode("yr", "knows", ("y0", "y1"))},
        )
        joined = fold(tiny_vocab, left, right)
        assert joined.size == left.size + right.size - 1
        merged = [n for n in joined.concepts.values() if n.marker == "alice"]
        assert len(merged) == 1
        assert merged[0].type_id == deep
        assert {rel for rel, _ in brute_incidences(joined, merged[0].node_id)} == {"xr", "yr"}
        fixtures += 1
    print("PASS criterion 9: join identity, count preservation and coreferent merge over 1000 fixtures")


def test_criterion_10_round_trips(tmp_path):
    rng = fresh_rng("acc-roundtrip")
    vocab_count = cg_count = gamma_count = dataset_count = 0

    for index in range(100):
        stream = derive_rng(10_000, "rt", index)
        vocab = auto_vocabulary(
            AutoVocConfig(
                concept_depth=ParamSpec.fixed(stream.randint(1, 4)),
                relation_depth=ParamSpec.fixed(stream.randint(1, 3)),
                max_children=ParamSpec.fixed(stream.randint(1, 3)),
                markers_per_type=ParamSpec.fixed(stream.randint(0, 3)),
                arities=(1, 2, 3),
            ),
            stream,
        )
        path = tmp_path / "voc.json"
        save_vocabulary(path, vocab)
        assert load_vocabulary(path) == vocab
        first = path.read_bytes()
        save_vocabulary(path, load_vocabulary(path))
        assert path.read_bytes() == first
        vocab_count += 1

        gcg_result = auto_gamma_cgs(
            vocab, AutoGcgConfig(ParamSpec.fixed(2), ParamSpec.fixed(5)), stream
        )
        vocab = gcg_result.vocabulary
        gammas = list(gcg_result.gammas)
        if stream.random() < 0.7:
            gammas = list(
                auto_variables(vocab, gammas, FULL_AUTO_VAR, stream).gammas
            )
        for gcg in gammas:
            gpath = tmp_path / "gamma.json"
            save_gamma_cg(gpath, gcg)
            assert load_gamma_cg(gpath) == gcg
            first = gpath.read_bytes()
            save_gamma_cg(gpath, load_gamma_cg(gpath))
            assert gpath.read_bytes() == first
            gamma_count += 1

        config = GeneratorConfig(max_cgs=2, min_size=8, max_spe=2, seed=index)
        result = generate_dataset(vocab, gammas, config)
        for graph in result.graphs:
            cpath = tmp_path / "cg.json"
            cpath.write_bytes(_cg_document(graph))
            assert load_cg(cpath) == graph
            assert _cg_document(load_cg(cpath)) == cpath.read_bytes()
            cg_count += 1

        if index < 20:
            for attempt in ("one", "two"):
                directory = tmp_path / f"ds-{index}-{attempt}"
                save_dataset(
                    directory,
                    result.graphs,
                    config=config,
                    provenances=result.provenances,
                    stats=compute_stats(result.graphs),
                )
            one = tmp_path / f"ds-{index}-one"
            two = tmp_path / f"ds-{index}-two"
            for child in sorted(p.name for p in one.iterdir()):
                assert (one / child).read_bytes() == (two / child).read_bytes()
            loaded = load_dataset(one)
            assert loaded.graphs == result.graphs
            assert compute_stats(loaded.graphs) == loaded.stats
            dataset_count += 1

    print(
        f"PASS criterion 10: round trips over {vocab_count} vocabularies, "
        f"{gamma_count} gamma-CGs, {cg_count} CGs, {dataset_count} datasets"
    )

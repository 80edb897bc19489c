import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import cggen
from cggen import (
    ConceptNode,
    ConceptualGraph,
    ConfigError,
    GeneratorConfig,
    RelationNode,
    compute_stats,
    generate_dataset,
    stats_table,
)
from conftest import build_reference_gammas, fresh_rng
from oracles import recount_stats


def cg(concepts, relations):
    return ConceptualGraph(
        {c.node_id: c for c in concepts}, {r.node_id: r for r in relations}
    )


def single_cg():
    return cg(
        [ConceptNode("c0", "A"), ConceptNode("c1", "B")],
        [RelationNode("r0", "r", ("c0", "c1"))],
    )


class TestComputeStats:
    def test_hand_counted_single_graph(self):
        stats = compute_stats([single_cg()])
        assert stats.cg_count == 1
        assert stats.nb_nodes_mean == 3 and stats.nb_nodes_stddev == 0
        assert stats.nb_labels_mean == 3 and stats.nb_labels_stddev == 0
        assert stats.arity_counts == {2: 1.0}

    def test_markers_count_as_labels(self):
        graph = cg([ConceptNode("c0", "A", "m0"), ConceptNode("c1", "A", "m1")], [])
        stats = compute_stats([graph])
        assert stats.nb_labels_mean == 3  # A, m0, m1

    def test_identical_graphs_zero_stddev(self):
        stats = compute_stats([single_cg(), single_cg()])
        assert stats.nb_nodes_stddev == 0
        assert stats.nb_labels_stddev == 0

    def test_stddev_is_correctly_rounded(self):
        # The population stddev of (2, 24, 27) is sqrt(1118) / 3. Rounding
        # the variance to a float first, as Python 3.10 does, gives ...366.
        graphs = [cg([ConceptNode(f"c{i}", "A") for i in range(k)], []) for k in (2, 24, 27)]
        assert compute_stats(graphs).nb_nodes_stddev == 11.145502331533658

    def test_means_equal_fmean_on_integer_counts(self):
        # sum / n rounds the exact quotient once, as fmean does on integers.
        rng = fresh_rng("metrics-fmean")
        for _ in range(100):
            graphs = []
            for _ in range(rng.randint(1, 30)):
                kinds = rng.randint(1, 8)
                size = rng.randint(0, 40)
                graphs.append(cg([ConceptNode(f"c{i}", f"T{i % kinds}") for i in range(size)], []))
            stats = compute_stats(graphs)
            assert stats.nb_nodes_mean == statistics.fmean(g.size for g in graphs)
            assert stats.nb_labels_mean == statistics.fmean(
                len({n.type_id for n in g.concepts.values()}) for g in graphs
            )

    def test_higher_arities_get_own_keys(self):
        graph = cg(
            [ConceptNode(f"c{i}", "A") for i in range(5)],
            [RelationNode("r0", "r5", tuple(f"c{i}" for i in range(5)))],
        )
        stats = compute_stats([graph, single_cg()])
        assert stats.arity_counts == {2: 0.5, 5: 0.5}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            compute_stats([])

    def test_matches_recount_on_random_datasets(self, tiny_vocab):
        rng = fresh_rng("metrics-oracle")
        gammas = build_reference_gammas(tiny_vocab, rng, count=5, min_size=6)
        for trial in range(20):
            config = GeneratorConfig(
                max_cgs=rng.randint(1, 20), min_size=rng.randint(5, 15), max_spe=0,
                seed=trial,
            )
            result = generate_dataset(tiny_vocab, gammas, config)
            stats = compute_stats(result.graphs)
            expected = recount_stats(list(result.graphs))
            assert stats.cg_count == expected["cg_count"]
            assert math.isclose(stats.nb_nodes_mean, expected["nb_nodes_mean"])
            assert math.isclose(stats.nb_nodes_stddev, expected["nb_nodes_stddev"])
            assert math.isclose(stats.nb_labels_mean, expected["nb_labels_mean"])
            assert math.isclose(stats.nb_labels_stddev, expected["nb_labels_stddev"])
            assert set(stats.arity_counts) == set(expected["arity_counts"])
            for arity, mean in expected["arity_counts"].items():
                assert math.isclose(stats.arity_counts[arity], mean)

    def test_permutation_invariance(self, tiny_vocab):
        rng = fresh_rng("metrics-perm")
        gammas = build_reference_gammas(tiny_vocab, rng, count=5, min_size=6)
        config = GeneratorConfig(max_cgs=12, min_size=8, max_spe=0, seed=4)
        graphs = list(generate_dataset(tiny_vocab, gammas, config).graphs)
        stats = compute_stats(graphs)
        for _ in range(5):
            rng.shuffle(graphs)
            assert compute_stats(graphs) == stats


class TestStatsTable:
    def test_row_shape(self):
        stats = compute_stats([single_cg()])
        text = stats_table(stats)
        header, row = text.splitlines()
        assert "NbN" in header and "NbL" in header
        for column in ("Ar1", "Ar2", "Ar3"):
            assert column in header
        assert "3.0 ± 0.0" in row

    def test_extra_arity_column(self):
        graph = cg(
            [ConceptNode(f"c{i}", "A") for i in range(4)],
            [RelationNode("r0", "r4", tuple(f"c{i}" for i in range(4)))],
        )
        text = stats_table(compute_stats([graph]))
        assert "Ar4" in text.splitlines()[0]


def test_cli_import_leaves_statistics_unloaded():
    # Every cggen command pays for the modules that importing the CLI loads.
    src = str(Path(cggen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cggen.cli; print(sorted({'statistics', 'fractions'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"

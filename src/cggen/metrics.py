"""Dataset variability statistics: node counts, label counts, arity mix."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import ConceptualGraph
from .errors import ConfigError


class DatasetStats(NamedTuple):
    """Per-dataset averages: nodes per CG, unique labels per CG, arity counts.

    Unique labels count concept types, relation types and markers together;
    stddevs are population standard deviations over the dataset. Arity
    counts are the mean number of relation nodes of each arity per CG.
    """

    cg_count: int
    nb_nodes_mean: float
    nb_nodes_stddev: float
    nb_labels_mean: float
    nb_labels_stddev: float
    arity_counts: dict[int, float]


def _pstdev(values: list[int]) -> float:
    """Population stddev, correctly rounded on every Python version (3.10 rounds twice)."""
    n = len(values)
    # sqrt(num) / n, with the root scaled past 100 bits and rounded to odd so
    # that the one rounding to float is correct.
    num = n * sum(v * v for v in values) - sum(values) ** 2
    shift = max(0, n.bit_length() - num.bit_length() // 2 + 110)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // (n * n))
    return (root | (root * root * n * n != scaled)) / (1 << shift)


def compute_stats(dataset: Sequence[ConceptualGraph]) -> DatasetStats:
    """Recount nodes, labels and per-arity relation nodes over a dataset."""
    if not dataset:
        raise ConfigError("dataset must be non-empty")

    node_counts: list[int] = []
    label_counts: list[int] = []
    arity_totals: dict[int, int] = {}

    for graph in dataset:
        node_counts.append(graph.size)
        labels: set[str] = set()
        for node in graph.concepts.values():
            labels.add(node.type_id)
            if node.marker is not None:
                labels.add(node.marker)
        for node in graph.relations.values():
            labels.add(node.type_id)
            arity = len(node.args)
            arity_totals[arity] = arity_totals.get(arity, 0) + 1
        label_counts.append(len(labels))

    n = len(dataset)
    return DatasetStats(
        cg_count=n,
        nb_nodes_mean=sum(node_counts) / n,
        nb_nodes_stddev=_pstdev(node_counts),
        nb_labels_mean=sum(label_counts) / n,
        nb_labels_stddev=_pstdev(label_counts),
        arity_counts={arity: total / n for arity, total in sorted(arity_totals.items())},
    )


def stats_table(stats: DatasetStats) -> str:
    """One table row per dataset, higher arities as extra columns."""
    arities = sorted(set(stats.arity_counts) | {1, 2, 3})
    headers = ["NbN (avg ± sd)", "NbL (avg ± sd)"] + [f"Ar{a}" for a in arities]
    row = [
        f"{stats.nb_nodes_mean:.1f} ± {stats.nb_nodes_stddev:.1f}",
        f"{stats.nb_labels_mean:.1f} ± {stats.nb_labels_stddev:.1f}",
    ] + [f"{stats.arity_counts.get(a, 0.0):.1f}" for a in arities]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    value_line = "  ".join(v.ljust(w) for v, w in zip(row, widths))
    return f"{header_line}\n{value_line}"

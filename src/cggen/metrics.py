"""Dataset variability statistics: node counts, label counts, arity mix."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .core import ConceptualGraph
from .errors import ConfigError


class DatasetStats(
    namedtuple(
        "DatasetStats",
        "cg_count nb_nodes_mean nb_nodes_stddev nb_labels_mean nb_labels_stddev arity_counts",
    )
):
    """Per-dataset averages: nodes per CG, unique labels per CG, arity counts.

    Unique labels count concept types, relation types and markers together;
    stddevs are population standard deviations over the dataset. Arity
    counts are the mean number of relation nodes of each arity per CG.
    """

    __slots__ = ()


def _pstdev(n: int, total: int, squares: int) -> float:
    """Population stddev of n integers from their sum and sum of squares.

    Correctly rounded on every Python version (3.10 rounds twice).
    """
    # sqrt(num) / n, with the root scaled past 100 bits and rounded to odd so
    # that the one rounding to float is correct.
    num = n * squares - total**2
    shift = max(0, n.bit_length() - num.bit_length() // 2 + 110)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // (n * n))
    return (root | (root * root * n * n != scaled)) / (1 << shift)


class StatsTally:
    """Running sums over a dataset's CGs, added one CG at a time.

    The count, sum and sum of squares of the node and label counts, and the
    relation nodes per arity, are all that ``stats`` needs, so no CG is kept.
    """

    def __init__(self) -> None:
        self._count = 0
        self._nodes = self._nodes_squared = 0
        self._labels = self._labels_squared = 0
        self._arity_totals: dict[int, int] = {}

    def add(self, graph: ConceptualGraph) -> None:
        labels: set[str] = set()
        for node in graph.concepts.values():
            labels.add(node.type_id)
            if node.marker is not None:
                labels.add(node.marker)
        arity_totals = self._arity_totals
        for node in graph.relations.values():
            labels.add(node.type_id)
            arity = len(node.args)
            arity_totals[arity] = arity_totals.get(arity, 0) + 1
        self._count += 1
        nodes, distinct = graph.size, len(labels)
        self._nodes += nodes
        self._nodes_squared += nodes * nodes
        self._labels += distinct
        self._labels_squared += distinct * distinct

    def stats(self) -> DatasetStats:
        n = self._count
        if not n:
            raise ConfigError("dataset must be non-empty")
        return DatasetStats(
            cg_count=n,
            nb_nodes_mean=self._nodes / n,
            nb_nodes_stddev=_pstdev(n, self._nodes, self._nodes_squared),
            nb_labels_mean=self._labels / n,
            nb_labels_stddev=_pstdev(n, self._labels, self._labels_squared),
            arity_counts={
                arity: total / n for arity, total in sorted(self._arity_totals.items())
            },
        )


def compute_stats(dataset: Iterable[ConceptualGraph]) -> DatasetStats:
    """Recount nodes, labels and per-arity relation nodes over a dataset."""
    tally = StatsTally()
    for graph in dataset:
        tally.add(graph)
    return tally.stats()


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

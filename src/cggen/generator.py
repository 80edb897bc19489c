"""The generation loop: instantiate components, specialize, join, repeat.

Each output graph starts empty and absorbs uniformly drawn gamma-CG
instances until it reaches the configured minimum node count. Instances are
specialized label by label (only labels that were type variables, at most
``max_spe`` downward steps each) and joined in: concept nodes sharing an
individual marker collapse to one node that keeps the most specific of the
types and inherits both neighborhoods.

A draw is assembled by position from the rows its gamma-CG's ``DrawPlan``
compiled once; its nodes take the CG's next ``c<i>``/``r<j>`` ids, so no
id is remapped through a dict.

Dataset generation derives one independent RNG stream and one marker
namespace per output index from the seed, so CG ``i`` is the same whichever
other CGs are built before it, and a seed reproduces the dataset.
"""

from __future__ import annotations

import random
import sys
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    ConceptNode,
    ConceptualGraph,
    Marker,
    RelationNode,
    TypeHierarchy,
    Vocabulary,
    _walk_down,
    signature_admits,
)
from .errors import ConfigError, GenerationError, InstantiationError, StructureError
from .gamma import (
    DrawPlan,
    GammaCG,
    InstantiationOutcome,
    MarkerMint,
    validate_gamma,
)

# Attempts per component draw before the gamma-CG is set aside for this CG.
INSTANTIATION_RETRIES = 16
# Hard cap on component draws per CG; trips only on inputs that cannot grow.
_MAX_DRAWS_PER_CG = 100_000


def derive_rng(seed: int, *parts: object) -> random.Random:
    """An independent stream keyed by (seed, parts), stable across platforms."""
    # CPython's own SHA-256 module first, as its random.py does for SHA-512:
    # it gives the same digest, and hashlib loads OpenSSL, 5 ms and 4 MB of
    # every generating process. Imported here, so that no read-only command
    # loads either. The version picks the module's name, because an import
    # that fails searches the path again on every call.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    material = ":".join([str(seed), *(str(part) for part in parts)])
    digest = sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _GeneratorConfig(NamedTuple):
    max_cgs: int
    min_size: int
    max_spe: int = 0
    seed: int = 0


class GeneratorConfig(_GeneratorConfig):
    """Stopping conditions of the generation loop."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.max_cgs < 1:
            raise ConfigError("max_cgs must be >= 1")
        if self.min_size < 1:
            raise ConfigError("min_size must be >= 1")
        if self.max_spe < 0:
            raise ConfigError("max_spe must be >= 0")


class ComponentDraw(NamedTuple):
    """Provenance of one component absorbed into a generated CG."""

    gamma_name: str
    assignments: tuple[tuple[str, str], ...]
    specialisations: tuple[tuple[str, int], ...]
    merged: tuple[tuple[str, str, str], ...]
    skipped_merges: tuple[tuple[str, str, str], ...]


class GenerationProvenance(NamedTuple):
    """The derivation of one generated CG: its draws, in order."""

    draws: tuple[ComponentDraw, ...]


class DatasetResult(NamedTuple):
    """Generated graphs, their provenance, and the marker-extended vocabulary."""

    graphs: tuple[ConceptualGraph, ...]
    provenances: tuple[GenerationProvenance, ...]
    vocabulary: Vocabulary


class _Assembler:
    """Folds graphs into a growing union, merging coreferent concept nodes.

    Each absorbed concept either merges into an already-present node with
    the same marker (keeping the most specific of the two types) or is added
    as-is; candidates with an incomparable type leave the pair unmerged, so
    a marker may legitimately sit on several nodes. Relation nodes are
    always added, with argument references redirected to merged nodes.
    Concept nodes are built once, by ``snapshot``.
    """

    def __init__(self, vocab: Vocabulary) -> None:
        self._up = vocab.concepts.up
        self._types: dict[str, str] = {}
        self._markers: dict[str, str | None] = {}
        self._relations: dict[str, RelationNode] = {}
        self._by_marker: dict[str, list[str]] = {}

    @property
    def size(self) -> int:
        return len(self._types) + len(self._relations)

    def absorb(
        self,
        concepts: Iterable[tuple[str, str, str | None]],
        relations: Iterable[tuple[str, str, Sequence[int]]],
    ) -> tuple[tuple[tuple[str, str, str], ...], tuple[tuple[str, str, str], ...]]:
        """Fold one component in; return its merge entries and skipped merges.

        ``concepts`` holds (id, type, marker) rows and ``relations`` holds
        (id, type, argument positions) rows, each position indexing
        ``concepts``. The ids must not collide with ids absorbed before.
        """
        up = self._up
        types = self._types
        markers = self._markers
        by_marker = self._by_marker
        merged: list[tuple[str, str, str]] = []
        skipped: list[tuple[str, str, str]] = []
        final: list[str] = []
        for node_id, type_id, marker in concepts:
            if marker is not None:
                candidates = by_marker.setdefault(marker, [])
                for kept_id in candidates:
                    kept_type = types[kept_id]
                    # Keep the lower of two comparable types; leave incomparable ones apart.
                    if type_id in up[kept_type]:
                        pass
                    elif kept_type in up[type_id]:
                        types[kept_id] = type_id
                    else:
                        skipped.append((marker, kept_id, node_id))
                        continue
                    merged.append((marker, kept_id, node_id))
                    final.append(kept_id)
                    break
                else:
                    candidates.append(node_id)
                    kept_id = None
                if kept_id is not None:
                    continue
            final.append(node_id)
            types[node_id] = type_id
            markers[node_id] = marker
        added = self._relations
        for node_id, type_id, args in relations:
            added[node_id] = RelationNode(node_id, type_id, tuple([final[a] for a in args]))
        return tuple(merged), tuple(skipped)

    def snapshot(self) -> ConceptualGraph:
        markers = self._markers
        concepts = {
            node_id: ConceptNode(node_id, type_id, markers[node_id])
            for node_id, type_id in self._types.items()
        }
        # _make skips __init__'s checks: the assembler built every node itself.
        return ConceptualGraph._make((concepts, dict(self._relations)))


def _specialise(
    vocab: Vocabulary,
    slots: Sequence[tuple[str, str, TypeHierarchy, tuple[tuple[str, str], ...] | None]],
    outcome: InstantiationOutcome,
    spread: Sequence[int],
    rng: random.Random,
) -> tuple[dict[str, str], tuple[tuple[str, int], ...]]:
    """Walk each type-variable label down its hierarchy, ``rng.choice(spread)`` moves at most.

    ``slots`` are the type slots of the draw's ``DrawPlan.rows`` and
    ``spread`` is ``range(max_spe + 1)``. Returns the drawn labels, extended
    in place with the new label of each type slot, and the steps taken per
    slot. Relation labels only step to children whose signatures stay
    satisfied by the node's current argument types; concept labels may take
    any downward step (descending preserves every constraint).
    """
    labels = outcome.labels
    steps_taken: list[tuple[str, int]] = []
    for key, node_id, hierarchy, args in slots:
        moves = rng.choice(spread)
        if args is None:
            labels[node_id], taken = _walk_down(hierarchy, labels[node_id], moves, rng)
        else:
            arg_types = [labels.get(arg, type_id) for arg, type_id in args]
            labels[node_id], taken = _walk_down(
                hierarchy,
                labels[node_id],
                moves,
                rng,
                lambda child: signature_admits(vocab, child, arg_types),
            )
        steps_taken.append((key, taken))
    return labels, tuple(steps_taken)


def generate_one(
    vocab: Vocabulary,
    plans: Sequence[DrawPlan],
    config: GeneratorConfig,
    rng: random.Random,
    *,
    mint: MarkerMint,
) -> tuple[ConceptualGraph, GenerationProvenance]:
    """Build one CG of at least ``config.min_size`` nodes.

    ``plans`` holds one ``DrawPlan(vocab, gcg)`` per gamma-CG. Draws them
    uniformly with replacement; a gamma-CG failing instantiation
    INSTANTIATION_RETRIES times is skipped for this CG. Each draw's concept
    and relation rows are absorbed under the next sequential ids.
    """
    if not plans:
        raise ConfigError("plans must be non-empty")

    assembler = _Assembler(vocab)
    # Sequential ids local to this CG; merged concepts still use up a number.
    next_concept = next_relation = 0
    draws: list[ComponentDraw] = []
    indices = range(len(plans))
    spread = range(config.max_spe + 1)
    failures = [0] * len(plans)
    skipped_gammas: set[int] = set()
    total_draws = 0

    while assembler.size < config.min_size:
        total_draws += 1
        if total_draws > _MAX_DRAWS_PER_CG:
            raise GenerationError("generation is not making progress towards min_size")
        index = rng.choice(indices)
        if index in skipped_gammas:
            continue
        plan = plans[index]
        try:
            outcome = plan.draw(rng, mint)
        except InstantiationError:
            failures[index] += 1
            if failures[index] >= INSTANTIATION_RETRIES:
                skipped_gammas.add(index)
                if len(skipped_gammas) == len(plans):
                    raise GenerationError("every gamma-CG failed instantiation repeatedly")
            continue

        concept_rows, relation_rows, slots = plan.rows
        labels, steps = _specialise(vocab, slots, outcome, spread, rng)
        markers = outcome.markers
        concepts = [
            (f"c{number}", labels.get(node_id, type_id), markers.get(node_id, marker))
            for number, (node_id, type_id, marker) in enumerate(concept_rows, next_concept)
        ]
        relations = [
            (f"r{number}", labels.get(node_id, type_id), args)
            for number, (node_id, type_id, args) in enumerate(relation_rows, next_relation)
        ]
        next_concept += len(concepts)
        next_relation += len(relations)
        merged, skipped = assembler.absorb(concepts, relations)
        draws.append(ComponentDraw(plan.gcg.name, outcome.assignments, steps, merged, skipped))

    return assembler.snapshot(), GenerationProvenance(tuple(draws))


# One generated CG: its graph, its provenance and the markers minted for it.
_Generated = tuple[ConceptualGraph, GenerationProvenance, tuple[Marker, ...]]


def _generate_indexed(
    vocab: Vocabulary,
    plans: Sequence[DrawPlan],
    config: GeneratorConfig,
    index: int,
) -> _Generated:
    rng = derive_rng(config.seed, "cg", index)
    mint = MarkerMint(vocab, f"cg{index}")
    graph, provenance = generate_one(vocab, plans, config, rng, mint=mint)
    return graph, provenance, tuple(mint.minted.values())


def validate_inputs(vocab: Vocabulary, gamma_set: Sequence[GammaCG]) -> list[str]:
    """Lines describing why the inputs are unusable; empty when they are fine."""
    return [f"{gcg.name}: {line}" for gcg in gamma_set for line in validate_gamma(vocab, gcg)]


def generate_cgs(
    vocab: Vocabulary,
    gamma_set: Sequence[GammaCG],
    config: GeneratorConfig,
) -> Iterator[_Generated]:
    """CG ``i``'s graph, provenance and minted markers, for each ``i`` in index order.

    The inputs are checked when this is called, before any draw; the CGs
    are then built one at a time, as the iterator is advanced, graph ``i``
    from a stream derived from (seed, i). Each gamma-CG is compiled into
    its ``DrawPlan`` once, for all graphs.
    """
    if not gamma_set:
        raise ConfigError("gamma_set must be non-empty")
    problems = validate_inputs(vocab, gamma_set)
    if problems:
        raise StructureError("invalid generator inputs:\n" + "\n".join(problems))

    plans = [DrawPlan(vocab, gcg) for gcg in gamma_set]
    return (_generate_indexed(vocab, plans, config, i) for i in range(config.max_cgs))


def generate_dataset(
    vocab: Vocabulary,
    gamma_set: Sequence[GammaCG],
    config: GeneratorConfig,
    *,
    jobs: int = 1,
) -> DatasetResult:
    """Generate exactly ``config.max_cgs`` graphs and hold them all.

    Collects ``generate_cgs``: the graphs and provenances in index order,
    and the vocabulary extended with every marker minted on the way.
    ``cggen generate`` encodes each CG as soon as ``generate_cgs`` yields it
    instead, so it holds one CG at a time where this holds the dataset.
    ``jobs`` accepts only 1 and is kept for the benchmark harness's calls.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, not {jobs!r}: CGs are generated one at a time")
    graphs, provenances, minted = zip(*generate_cgs(vocab, gamma_set, config))
    vocabulary = vocab.with_markers(chain.from_iterable(minted))
    return DatasetResult(graphs, provenances, vocabulary)

"""The generation loop: instantiate components, specialize, join, repeat.

Each output graph starts empty and absorbs uniformly drawn gamma-CG
instances until it reaches the configured minimum node count. Instances are
specialized label by label (only labels that were type variables, at most
``max_spe`` downward steps each) and joined in: concept nodes sharing an
individual marker collapse to one node that keeps the most specific of the
types and inherits both neighborhoods.

A draw is joined in one pass over the rows its gamma-CG's ``DrawPlan``
compiled once: ``_Assembler.absorb`` gives each node the CG's next
``c<i>``/``r<j>`` id and its drawn label and marker, and merges or adds it,
so no id is remapped through a dict and no per-draw node list is built.
Each relation takes its argument ids with one compiled getter. A draw's
assignments, specialisation steps and merges are built once, as the dicts
its object in ``derivations.jsonl`` stores, so the writer only encodes them.

Dataset generation derives one independent RNG stream and one marker
namespace per output index from the seed, so CG ``i`` is the same whichever
other CGs are built before it, and a seed reproduces the dataset.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import chain

from .core import (
    ConceptNode,
    ConceptualGraph,
    Marker,
    RelationNode,
    Vocabulary,
    plain_file_name,
    signature_admits,
)
from .errors import ConfigError, GenerationError, InstantiationError, StructureError
from .gamma import (
    DrawPlan,
    GammaCG,
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


class GeneratorConfig(
    namedtuple("GeneratorConfig", "max_cgs min_size max_spe seed", defaults=(0, 0))
):
    """Stopping conditions of the generation loop."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.max_cgs < 1:
            raise ConfigError("max_cgs must be >= 1")
        if self.min_size < 1:
            raise ConfigError("min_size must be >= 1")
        if self.max_spe < 0:
            raise ConfigError("max_spe must be >= 0")


class ComponentDraw(
    namedtuple("ComponentDraw", "gamma_name assignments specialisations merged skipped_merges")
):
    """Provenance of one component absorbed into a generated CG.

    ``assignments`` (variable name to drawn value), ``specialisations``
    (type slot to steps taken) and ``merged`` (absorbed id to kept id) are
    built as the dicts their draw object in ``derivations.jsonl`` stores,
    in draw order; the kept node carries the marker. ``skipped_merges``
    holds one (absorbed id, kept id) pair per comparison that left the two
    apart, in comparison order, so the pairs of one absorbed node are
    adjacent; the file stores them grouped by absorbed node.
    """

    __slots__ = ()


class GenerationProvenance(namedtuple("GenerationProvenance", "draws")):
    """The derivation of one generated CG: its draws, in order."""

    __slots__ = ()


class DatasetResult(namedtuple("DatasetResult", "graphs provenances vocabulary")):
    """Generated graphs, their provenance, and the marker-extended vocabulary."""

    __slots__ = ()


# A relation row of DrawPlan.rows: its id, its type and the getter of its
# argument ids from the tuple of the ids a draw's concepts are kept under.
_RelationRow = tuple[str, str, Callable[[tuple[str, ...]], tuple[str, ...]]]


class _Assembler:
    """Folds draws into a growing union, merging coreferent concept nodes.

    Each absorbed concept either merges into an already-present node with
    the same marker (keeping the most specific of the two types) or is added
    as-is; candidates with an incomparable type leave the pair unmerged, so
    a marker may legitimately sit on several nodes. Relation nodes are
    always added, with argument references redirected to merged nodes.
    Absorbed nodes take the next ``c<n>``/``r<n>`` ids in the same pass, a
    merged concept still using up its number. Concept nodes are built once,
    by ``snapshot``.
    """

    def __init__(self, vocab: Vocabulary) -> None:
        self._up = vocab.concepts.up
        self._types: dict[str, str] = {}
        self._markers: dict[str, str | None] = {}
        self._relations: dict[str, RelationNode] = {}
        self._by_marker: dict[str, list[str]] = {}
        self._next_concept = self._next_relation = 0

    @property
    def size(self) -> int:
        return len(self._types) + len(self._relations)

    def absorb(
        self,
        rows: tuple[Sequence[ConceptNode], Sequence[_RelationRow]],
        labels: Mapping[str, str],
        markers: Mapping[str, str],
    ) -> tuple[dict[str, str], tuple[tuple[str, str], ...]]:
        """Fold one draw in; return its merges, absorbed id to kept id, and skipped merges.

        ``rows`` holds the concept rows and the (id, type, arguments)
        relation rows of ``DrawPlan.rows``, where ``arguments`` takes a
        relation's argument ids, as a tuple, from the tuple of the ids the
        concept rows are kept under. A row's type is replaced by its id's
        entry in ``labels`` and a concept's marker by its entry in
        ``markers``, if any; the row ids serve only as those keys. In the
        same pass each concept row takes the next ``c<n>`` and each relation
        row the next ``r<n>``. The merges are the draw's ``merged`` dict and
        the skipped merges its (absorbed id, kept id) pairs, as
        ``ComponentDraw`` holds them.
        """
        up = self._up
        types = self._types
        kept_markers = self._markers
        by_marker = self._by_marker
        merged: dict[str, str] = {}
        skipped: list[tuple[str, str]] = []
        final: list[str] = []
        concept_rows, relation_rows = rows
        for number, (row_id, type_id, marker) in enumerate(concept_rows, self._next_concept):
            node_id = f"c{number}"
            type_id = labels.get(row_id, type_id)
            marker = markers.get(row_id, marker)
            # No node is filed under None, so an unmarked concept is always added.
            for kept_id in by_marker.get(marker, ()):
                kept_type = types[kept_id]
                # Keep the lower of two comparable types; leave incomparable ones apart.
                if type_id in up[kept_type]:
                    pass
                elif kept_type in up[type_id]:
                    types[kept_id] = type_id
                else:
                    skipped.append((node_id, kept_id))
                    continue
                merged[node_id] = kept_id
                final.append(kept_id)
                break
            else:
                final.append(node_id)
                types[node_id] = type_id
                kept_markers[node_id] = marker
                if marker is not None:
                    by_marker.setdefault(marker, []).append(node_id)
        added = self._relations
        # tuple.__new__ skips the Python-level RelationNode.__new__.
        new = tuple.__new__
        kept = tuple(final)
        for number, (row_id, type_id, args) in enumerate(relation_rows, self._next_relation):
            node_id = f"r{number}"
            added[node_id] = new(RelationNode, (node_id, labels.get(row_id, type_id), args(kept)))
        self._next_concept += len(concept_rows)
        self._next_relation += len(relation_rows)
        return merged, tuple(skipped)

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
    plan: DrawPlan,
    labels: dict[str, str],
    spread: Sequence[int],
    rng: random.Random,
) -> dict[str, int]:
    """Walk each type-variable label down its hierarchy, ``rng.choice(spread)`` moves at most.

    ``plan`` is the draw's ``DrawPlan``, ``labels`` its drawn labels and
    ``spread`` is ``range(max_spe + 1)``. Sets the new label of each of
    ``plan.slots`` in ``labels`` and returns the steps taken, keyed by
    slot in slot order: the draw's ``specialisations`` dict.
    Relation labels only step to children whose signatures stay
    satisfied by the node's current argument types, which ``plan.admitted``
    caches by (type, argument types); concept labels may take any downward
    step (descending preserves every constraint).
    """
    choice = rng.choice
    admitted = plan.admitted
    steps_taken: dict[str, int] = {}
    for key, node_id, hierarchy, args in plan.slots:
        moves = choice(spread)
        children = hierarchy.children
        current = labels[node_id]
        if args is not None and moves:
            arg_types = tuple(map(labels.get, *args))
        taken = 0
        while taken < moves:
            if args is None:
                kids = children[current]
            else:
                kids = admitted.get((current, arg_types))
                if kids is None:
                    kids = admitted[current, arg_types] = [
                        child
                        for child in children[current]
                        if signature_admits(vocab, child, arg_types)
                    ]
            if not kids:
                break
            current = choice(kids)
            taken += 1
        labels[node_id] = current
        steps_taken[key] = taken
    return steps_taken


# One generated CG: its graph, its provenance and the markers minted for it.
_Generated = tuple[ConceptualGraph, GenerationProvenance, tuple[Marker, ...]]


def generate_one(
    vocab: Vocabulary,
    plans: Sequence[DrawPlan],
    config: GeneratorConfig,
    index: int,
) -> _Generated:
    """CG ``index``: its graph of at least ``config.min_size`` nodes, provenance and minted markers.

    ``plans`` holds one ``DrawPlan(vocab, gcg)`` per gamma-CG. Draws them
    uniformly with replacement, from the stream ``derive_rng(config.seed,
    "cg", index)``, minting markers in the namespace ``cg<index>``; a
    gamma-CG failing instantiation INSTANTIATION_RETRIES times is skipped
    for this CG. Each draw's concept and relation rows are absorbed under
    the next sequential ids.
    """
    if not plans:
        raise ConfigError("plans must be non-empty")

    rng = derive_rng(config.seed, "cg", index)
    choice = rng.choice
    mint = MarkerMint(vocab, f"cg{index}")
    assembler = _Assembler(vocab)
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
        gamma = choice(indices)
        if gamma in skipped_gammas:
            continue
        plan = plans[gamma]
        try:
            outcome = plan.draw(rng, mint)
        except InstantiationError:
            failures[gamma] += 1
            if failures[gamma] >= INSTANTIATION_RETRIES:
                skipped_gammas.add(gamma)
                if len(skipped_gammas) == len(plans):
                    raise GenerationError("every gamma-CG failed instantiation repeatedly")
            continue

        steps = _specialise(vocab, plan, outcome.labels, spread, rng)
        merged, skipped = assembler.absorb(plan.rows, outcome.labels, outcome.markers)
        draws.append(ComponentDraw(plan.gcg.name, outcome.assignments, steps, merged, skipped))

    return assembler.snapshot(), GenerationProvenance(tuple(draws)), tuple(mint.minted.values())


def validate_inputs(vocab: Vocabulary, gamma_set: Sequence[GammaCG]) -> list[str]:
    """Lines describing why the inputs are unusable; empty when they are fine.

    Besides each gamma-CG's own report, its name must be a plain file name
    that no earlier gamma-CG has: it is saved as ``gamma/<name>.json``.
    """
    problems: list[str] = []
    seen: set[str] = set()
    for gcg in gamma_set:
        name = gcg.name
        problem = _name_problem(name, seen)
        if problem:
            problems.append(f"{name}: {problem}")
        problems.extend(f"{name}: {line}" for line in validate_gamma(vocab, gcg))
    return problems


def _name_problem(name: str, seen: set[str]) -> str | None:
    """Why a gamma-CG may not be named ``name`` after those named ``seen``; adds it to ``seen``."""
    problem = None
    if not plain_file_name(name):
        problem = f"bad-name: {name!r} is not a plain file name"
    elif name in seen:
        problem = f"duplicate-name: an earlier gamma-CG is named {name!r}"
    seen.add(name)
    return problem


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
    return (generate_one(vocab, plans, config, i) for i in range(config.max_cgs))


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

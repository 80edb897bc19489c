"""Automatic input generation: vocabularies, gamma-CGs and variables.

Every numeric parameter is a ParamSpec, either fixed or normal(mean,
stddev); sampling rounds the draw and clamps it into the parameter's valid
range. Each stage consumes an explicit RNG stream, so the three stages are
independently reproducible.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .core import (
    CONCEPT,
    RELATION,
    ConceptNode,
    Marker,
    Signature,
    TypeHierarchy,
    Vocabulary,
    random_descendant,
)
from .errors import ConfigError
from .gamma import (
    TARGET_CONCEPT_TYPE,
    TARGET_MARKER,
    TARGET_RELATION_TYPE,
    GammaCG,
    MarkerMint,
    Variable,
    VariableTarget,
    slot_domain,
)
from .generator import _Assembler

# Downward steps used when the gamma-CG builder "randomly specializes" a label.
AUTO_SPECIALISE_STEPS = 3

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class _ParamSpec(NamedTuple):
    mean: float
    stddev: float = 0.0


class ParamSpec(_ParamSpec):
    """A number, optionally blurred by a normal distribution."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.stddev < 0:
            raise ConfigError("stddev must be >= 0")

    @classmethod
    def fixed(cls, value: float) -> "ParamSpec":
        return cls(value, 0.0)

    @classmethod
    def normal(cls, mean: float, stddev: float) -> "ParamSpec":
        return cls(mean, stddev)


def sample_param(spec: ParamSpec, bounds: tuple[int, int], rng: random.Random) -> int:
    """Round a (possibly gaussian) draw and clamp it into [lo, hi]."""
    lo, hi = bounds
    if lo > hi:
        raise ConfigError(f"invalid bounds [{lo}, {hi}]")
    value = spec.mean if spec.stddev == 0 else rng.gauss(spec.mean, spec.stddev)
    return max(lo, min(hi, round(value)))


class _AutoVocConfig(NamedTuple):
    concept_depth: ParamSpec
    relation_depth: ParamSpec
    max_children: ParamSpec
    markers_per_type: ParamSpec
    arities: tuple[int, ...] = (1, 2, 3)


class AutoVocConfig(_AutoVocConfig):
    """Parameters of the vocabulary builder: tree depths, branching, markers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AutoVocConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not self.arities:
            raise ConfigError("at least one relation arity is required")
        if any(a < 1 for a in self.arities):
            raise ConfigError("arities must be positive")
        return super().__new__(cls, *self[:-1], tuple(sorted(set(self.arities))))


class AutoGcgConfig(NamedTuple):
    count: ParamSpec
    min_size: ParamSpec


class AutoVarConfig(NamedTuple):
    concept_vars: ParamSpec
    relation_vars: ParamSpec
    marker_vars: ParamSpec
    values_per_variable: ParamSpec
    specialisations: ParamSpec


class _LabelMaker:
    """Pronounceable unique labels: consonant-vowel syllables plus a counter."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._counter = 0

    def fresh(self) -> str:
        syllables = self._rng.randint(2, 3)
        word = "".join(
            self._rng.choice(_CONSONANTS) + self._rng.choice(_VOWELS)
            for _ in range(syllables)
        )
        label = f"{word}{self._counter}"
        self._counter += 1
        return label


def _build_tree(
    rng: random.Random,
    root: str,
    depth: int,
    max_children: int,
    labels: _LabelMaker,
) -> tuple[dict[str, str], dict[str, tuple[str, ...]]]:
    """A rooted tree of exactly ``depth`` levels.

    One designated chain always reaches the last level; other nodes draw
    their child count in [0, max_children] and may terminate early.
    """
    tree_labels = {root: root}
    parents: dict[str, tuple[str, ...]] = {root: ()}
    level = [root]
    chain = root
    for _ in range(depth - 1):
        next_level: list[str] = []
        next_chain: str | None = None
        for node in level:
            if node == chain:
                count = rng.randint(1, max_children)
            else:
                count = rng.randint(0, max_children)
            for child_index in range(count):
                child = labels.fresh()
                tree_labels[child] = child
                parents[child] = (node,)
                next_level.append(child)
                if node == chain and child_index == 0:
                    next_chain = child
        level = next_level
        chain = next_chain if next_chain is not None else chain
    return tree_labels, parents


def auto_vocabulary(config: AutoVocConfig, rng: random.Random) -> Vocabulary:
    """Build a random vocabulary with the configured fixed characteristics.

    The concept hierarchy is a rooted tree of exactly the sampled depth with
    ``markers_per_type`` markers minted per concept type. Each arity gets a
    relation tree (independently sampled depth) whose top carries the all-top
    signature; child signatures keep or specialize each parent restriction,
    so monotonicity holds by construction.
    """
    concept_depth = sample_param(config.concept_depth, (1, 64), rng)
    max_children = sample_param(config.max_children, (1, 64), rng)
    markers_per_type = sample_param(config.markers_per_type, (0, 10_000), rng)

    labels = _LabelMaker(rng)
    concept_labels, concept_parents = _build_tree(
        rng, "Top", concept_depth, max_children, labels
    )
    concepts = TypeHierarchy(CONCEPT, "Top", concept_labels, concept_parents)

    markers = {}
    for type_id in sorted(concept_labels):
        for k in range(markers_per_type):
            marker_id = f"{type_id}-m{k}"
            markers[marker_id] = Marker(marker_id, type_id)

    relations: dict[int, TypeHierarchy] = {}
    signatures: dict[str, Signature] = {}
    for arity in config.arities:
        relation_depth = sample_param(config.relation_depth, (1, 64), rng)
        root = f"T{arity}"
        rel_labels, rel_parents = _build_tree(rng, root, relation_depth, max_children, labels)
        hierarchy = TypeHierarchy(RELATION, root, rel_labels, rel_parents, arity=arity)
        relations[arity] = hierarchy
        signatures[root] = Signature(root, ("Top",) * arity)
        # Children refine level by level so each parent signature exists first.
        pending = [root]
        while pending:
            node = pending.pop(0)
            for child in hierarchy.children[node]:
                restrictions = []
                for restriction in signatures[node].restrictions:
                    kids = concepts.children[restriction]
                    if kids and rng.random() < 0.5:
                        restrictions.append(kids[rng.randrange(len(kids))])
                    else:
                        restrictions.append(restriction)
                signatures[child] = Signature(child, tuple(restrictions))
                pending.append(child)

    return Vocabulary(concepts, relations, signatures, markers)


class AutoGcgResult(NamedTuple):
    """Built gamma-CGs plus the vocabulary extended with any minted markers."""

    gammas: tuple[GammaCG, ...]
    vocabulary: Vocabulary


def _signature_component(
    vocab: Vocabulary,
    mint: MarkerMint,
    all_relation_types: tuple[str, ...],
    rng: random.Random,
    concept_counter: int,
    relation_counter: int,
) -> tuple[list[ConceptNode], list[tuple[str, str, range]]]:
    """One relation node with freshly typed and marked concept arguments.

    Returned as the concept and relation rows of ``_Assembler.absorb``.

    Every label is treated as unconstrained: the relation type is drawn
    uniformly within its arity and specialized, each argument type is drawn
    among the types compatible with the signature and specialized, and each
    concept gets a marker admissible for its final type (minted if none is).
    """
    seed_type = all_relation_types[rng.randrange(len(all_relation_types))]
    arity = vocab.arity_of(seed_type)
    hierarchy = vocab.relations[arity]
    same_arity = hierarchy.type_ids()
    relation_type = same_arity[rng.randrange(len(same_arity))]
    relation_type = random_descendant(hierarchy, relation_type, AUTO_SPECIALISE_STEPS, rng)

    concepts: list[ConceptNode] = []
    for position in range(arity):
        restriction = vocab.signature_of(relation_type).restrictions[position]
        compatible = sorted(vocab.concepts.down[restriction])
        concept_type = compatible[rng.randrange(len(compatible))]
        concept_type = random_descendant(vocab.concepts, concept_type, AUTO_SPECIALISE_STEPS, rng)
        admissible = mint.carriers(concept_type)
        if admissible:
            marker = admissible[rng.randrange(len(admissible))]
        else:
            marker = mint.mint(concept_type)
        concepts.append(ConceptNode(f"c{concept_counter + position}", concept_type, marker))
    return concepts, [(f"r{relation_counter}", relation_type, range(arity))]


def auto_gamma_cgs(
    vocab: Vocabulary, config: AutoGcgConfig, rng: random.Random
) -> AutoGcgResult:
    """Build ``count`` variable-free gamma-CGs from the vocabulary's signatures.

    Components (one per relation type draw) are joined exactly like the main
    generation loop, so concept nodes sharing a marker chain components into
    a larger graph.
    """
    all_relation_types = vocab.relation_type_ids()
    if not all_relation_types:
        raise ConfigError("vocabulary has no relation types")
    count = sample_param(config.count, (1, 100_000), rng)
    mint = MarkerMint(vocab, "gcg")

    gammas: list[GammaCG] = []
    for index in range(count):
        target_size = sample_param(config.min_size, (1, 100_000), rng)
        assembler = _Assembler(vocab)
        concept_counter = 0
        relation_counter = 0
        while assembler.size < target_size:
            concepts, relations = _signature_component(
                vocab, mint, all_relation_types, rng, concept_counter, relation_counter
            )
            concept_counter += len(concepts)
            relation_counter += 1
            assembler.absorb(concepts, relations)
        gammas.append(GammaCG(f"gcg-{index}", assembler.snapshot()))

    return AutoGcgResult(tuple(gammas), mint.extended_vocabulary())


class AutoVarResult(NamedTuple):
    gammas: tuple[GammaCG, ...]
    warnings: tuple[str, ...]


def _sample_domain(
    admissible: frozenset[str], requested: int, rng: random.Random
) -> list[str]:
    pool = sorted(admissible)
    if requested >= len(pool):
        return pool
    return rng.sample(pool, requested)


def auto_variables(
    vocab: Vocabulary,
    gammas: "list[GammaCG] | tuple[GammaCG, ...]",
    config: AutoVarConfig,
    rng: random.Random,
    *,
    signature_compatible: bool = True,
) -> AutoVarResult:
    """Attach the configured numbers of variables to unclaimed label slots.

    Slots are chosen uniformly among the free ones; each domain is a sample
    of ``values_per_variable`` elements of the computed admissible domain,
    and type-label domains are then specialized up to ``specialisations``
    steps per value. May be run on gamma-CGs that already carry variables;
    requesting more variables than there are free slots truncates the count
    and emits a warning.
    """
    warnings: list[str] = []
    out: list[GammaCG] = []

    for gcg in gammas:
        n_relation = sample_param(config.relation_vars, (0, 100_000), rng)
        n_concept = sample_param(config.concept_vars, (0, 100_000), rng)
        n_marker = sample_param(config.marker_vars, (0, 100_000), rng)
        spe = sample_param(config.specialisations, (0, 100_000), rng)

        claimed = set(gcg.claimed_slots())
        new_variables: list[Variable] = []
        name_counter = len(gcg.variables) + 1

        def next_name() -> str:
            nonlocal name_counter
            existing = {v.name for v in gcg.variables}
            while f"v{name_counter}" in existing:
                name_counter += 1
            name = f"v{name_counter}"
            name_counter += 1
            return name

        def pick_slots(kind: str, candidates: list[str], requested: int) -> list[str]:
            free = [nid for nid in candidates if (kind, nid) not in claimed]
            if requested > len(free):
                warnings.append(
                    f"{gcg.name}: requested {requested} {kind} variables, "
                    f"only {len(free)} free slots"
                )
                requested = len(free)
            chosen = rng.sample(free, requested) if requested else []
            claimed.update((kind, nid) for nid in chosen)
            return chosen

        marked = [
            nid for nid in sorted(gcg.graph.concepts) if gcg.graph.concepts[nid].marker
        ]
        for kind, candidates, requested in (
            (TARGET_RELATION_TYPE, sorted(gcg.graph.relations), n_relation),
            (TARGET_CONCEPT_TYPE, sorted(gcg.graph.concepts), n_concept),
            (TARGET_MARKER, marked, n_marker),
        ):
            for node_id in pick_slots(kind, candidates, requested):
                target = VariableTarget(kind, node_id)
                admissible = slot_domain(
                    vocab, gcg, target, signature_compatible=signature_compatible
                )
                if not admissible:
                    # "relation types", "concept types" or "markers".
                    plural = kind.replace("-", " ") + "s"
                    warnings.append(f"{gcg.name}: no admissible {plural} for {node_id}")
                    continue
                k = max(1, sample_param(config.values_per_variable, (0, 100_000), rng))
                values = _sample_domain(admissible, k, rng)
                if kind != TARGET_MARKER:
                    hierarchy = (
                        vocab.concepts
                        if kind == TARGET_CONCEPT_TYPE
                        else vocab.relation_hierarchy(gcg.graph.relations[node_id].type_id)
                    )
                    values = [random_descendant(hierarchy, value, spe, rng) for value in values]
                new_variables.append(Variable(next_name(), target, tuple(values)))

        out.append(GammaCG(gcg.name, gcg.graph, gcg.variables + tuple(new_variables)))

    return AutoVarResult(tuple(out), tuple(warnings))

"""Automatic input generation: vocabularies, gamma-CGs and variables.

Every numeric parameter is a ParamSpec(mean, stddev), fixed when stddev is
0 and normal otherwise; sampling rounds the draw and clamps it into the
parameter's valid range. Each stage consumes an explicit RNG stream, so the
three stages are independently reproducible.
"""

from __future__ import annotations

import random
from collections import namedtuple
from operator import itemgetter

from .core import (
    CONCEPT,
    RELATION,
    ConceptNode,
    Marker,
    Signature,
    TypeHierarchy,
    Vocabulary,
    _walk_down,
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
from .generator import _Assembler, _RelationRow

# Downward steps used when the gamma-CG builder "randomly specializes" a label.
AUTO_SPECIALISE_STEPS = 3

# The arguments getter of a relation whose arguments are all of its draw's
# concepts, in order: the whole tuple of their kept ids.
_EVERY_ARGUMENT = itemgetter(slice(None))

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class ParamSpec(namedtuple("ParamSpec", "mean stddev", defaults=(0.0,))):
    """A number, optionally blurred by a normal distribution."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.stddev < 0:
            raise ConfigError("stddev must be >= 0")

    @classmethod
    def fixed(cls, value: float) -> ParamSpec:
        return cls(value, 0.0)


def sample_param(spec: ParamSpec, bounds: tuple[int, int], rng: random.Random) -> int:
    """Clamp a (possibly gaussian) draw into [lo, hi] and round it.

    Clamping first keeps a draw that overflows to infinity from reaching round().
    """
    lo, hi = bounds
    if lo > hi:
        raise ConfigError(f"invalid bounds [{lo}, {hi}]")
    value = spec.mean if spec.stddev == 0 else rng.gauss(spec.mean, spec.stddev)
    return round(max(lo, min(hi, value)))


class AutoVocConfig(
    namedtuple(
        "AutoVocConfig",
        "concept_depth relation_depth max_children markers_per_type arities",
        defaults=((1, 2, 3),),
    )
):
    """Parameters of the vocabulary builder: tree depths, branching, markers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AutoVocConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not self.arities:
            raise ConfigError("at least one relation arity is required")
        if any(a < 1 for a in self.arities):
            raise ConfigError("arities must be positive")
        return super().__new__(cls, *self[:-1], tuple(sorted(set(self.arities))))


AutoGcgConfig = namedtuple("AutoGcgConfig", "count min_size")
AutoVarConfig = namedtuple(
    "AutoVarConfig",
    "concept_vars relation_vars marker_vars values_per_variable specialisations",
)


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


class AutoGcgResult(namedtuple("AutoGcgResult", "gammas vocabulary")):
    """Built gamma-CGs plus the vocabulary extended with any minted markers."""

    __slots__ = ()


def _signature_component(
    vocab: Vocabulary,
    mint: MarkerMint,
    all_relation_types: tuple[str, ...],
    same_arity: dict[int, tuple[str, ...]],
    compatible: dict[str, list[str]],
    rng: random.Random,
) -> tuple[list[ConceptNode], list[_RelationRow]]:
    """One relation node with freshly typed and marked concept arguments.

    Returned as the concept and relation rows of ``_Assembler.absorb``,
    which names the nodes; the relation's arguments are every concept, in
    order, so its getter takes the whole tuple of their kept ids.
    ``same_arity`` maps each arity to its relation type ids and
    ``compatible`` each concept type to the ids of the types at or below it,
    both sorted once by the caller.

    Every label is treated as unconstrained: the relation type is drawn
    uniformly within its arity and specialized, each argument type is drawn
    among the types compatible with the signature and specialized, and each
    concept gets a marker admissible for its final type (minted if none is).
    """
    seed_type = all_relation_types[rng.randrange(len(all_relation_types))]
    arity = vocab.arity_of(seed_type)
    candidates = same_arity[arity]
    relation_type = candidates[rng.randrange(len(candidates))]
    moves = rng.randint(0, AUTO_SPECIALISE_STEPS)
    relation_type = _walk_down(vocab.relations[arity], relation_type, moves, rng)[0]

    concepts: list[ConceptNode] = []
    for position in range(arity):
        restriction = vocab.signature_of(relation_type).restrictions[position]
        below = compatible[restriction]
        concept_type = below[rng.randrange(len(below))]
        moves = rng.randint(0, AUTO_SPECIALISE_STEPS)
        concept_type = _walk_down(vocab.concepts, concept_type, moves, rng)[0]
        admissible = mint.carriers(concept_type)
        if admissible:
            marker = admissible[rng.randrange(len(admissible))]
        else:
            marker = mint.mint(concept_type)
        concepts.append(ConceptNode(f"c{position}", concept_type, marker))
    return concepts, [("r0", relation_type, _EVERY_ARGUMENT)]


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
    same_arity = {arity: hierarchy.type_ids() for arity, hierarchy in vocab.relations.items()}
    compatible = {type_id: sorted(down) for type_id, down in vocab.concepts.down.items()}

    gammas: list[GammaCG] = []
    for index in range(count):
        target_size = sample_param(config.min_size, (1, 100_000), rng)
        assembler = _Assembler(vocab)
        while assembler.size < target_size:
            rows = _signature_component(
                vocab, mint, all_relation_types, same_arity, compatible, rng
            )
            assembler.absorb(rows, {}, {})
        gammas.append(GammaCG(f"gcg-{index}", assembler.snapshot()))

    return AutoGcgResult(tuple(gammas), vocab.with_markers(mint.minted.values()))


AutoVarResult = namedtuple("AutoVarResult", "gammas warnings")


def auto_variables(
    vocab: Vocabulary,
    gammas: "list[GammaCG] | tuple[GammaCG, ...]",
    config: AutoVarConfig,
    rng: random.Random,
    *,
    signature_compatible: bool = True,
) -> AutoVarResult:
    """Attach the configured numbers of variables to unclaimed label slots.

    Slots are chosen uniformly among the free ones. Each domain is a sample
    of ``values_per_variable`` values of the slot's ``slot_domain`` in the
    gamma-CG with the variables added so far, drawn by index in id order;
    type values are then specialised up to ``specialisations`` steps
    through admissible children. May be run on gamma-CGs that already carry
    variables; requesting more variables than there are free slots
    truncates the count and emits a warning. ``signature_compatible`` must
    be True.
    """
    if signature_compatible is not True:
        raise ConfigError("auto_variables admits relation types by signature only")
    warnings: list[str] = []
    out: list[GammaCG] = []

    for gcg in gammas:
        n_relation = sample_param(config.relation_vars, (0, 100_000), rng)
        n_concept = sample_param(config.concept_vars, (0, 100_000), rng)
        n_marker = sample_param(config.marker_vars, (0, 100_000), rng)
        spe = sample_param(config.specialisations, (0, 100_000), rng)

        claimed = {variable.target for variable in gcg.variables}
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
                # _replace skips GammaCG's checks: each new variable takes a free slot.
                current = gcg._replace(variables=gcg.variables + tuple(new_variables))
                admissible = slot_domain(vocab, current, target)
                if not admissible:
                    # "relation types", "concept types" or "markers".
                    plural = kind.replace("-", " ") + "s"
                    warnings.append(f"{gcg.name}: no admissible {plural} for {node_id}")
                    continue
                k = max(1, sample_param(config.values_per_variable, (0, 100_000), rng))
                values = admissible if k >= len(admissible) else rng.sample(admissible, k)
                if kind != TARGET_MARKER:
                    hierarchy = (
                        vocab.concepts
                        if kind == TARGET_CONCEPT_TYPE
                        else vocab.relation_hierarchy(gcg.graph.relations[node_id].type_id)
                    )
                    keep = set(admissible).__contains__
                    values = [
                        _walk_down(hierarchy, v, rng.randint(0, spe), rng, keep)[0] for v in values
                    ]
                new_variables.append(Variable(next_name(), target, tuple(values)))

        out.append(GammaCG(gcg.name, gcg.graph, gcg.variables + tuple(new_variables)))

    return AutoVarResult(tuple(out), tuple(warnings))

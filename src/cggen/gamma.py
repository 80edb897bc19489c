"""Gamma-CGs: conceptual graphs with label variables and their domains.

A variable binds one label slot of the host graph (a relation-type label, a
concept-type label or a marker label) to an explicit set of admissible
values. ``slot_domain`` is the one definition of the values a slot admits
under the vocabulary's orders and signatures: ``validate_gamma`` checks each
stored domain against it and ``auto_variables`` samples domains from it.

Instantiation draws one value per variable, relation-type variables first,
then concept-type variables, then marker variables, filtering each stored
domain down to the choices that keep the graph valid at that point.

The filtering is compiled once per (vocabulary, gamma-CG) into a
``DrawPlan``. Relation variables are drawn against the gamma-CG's own
argument types, so their lists are fixed at compile time. A concept
variable's list is compiled under every restriction that does not depend
on a draw; per draw it is filtered only by the restrictions of incident
relations that carry a relation variable. Marker variables filter per draw,
against the mint's registry, which grows as markers are minted.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple

from .core import (
    ConceptualGraph,
    Marker,
    Vocabulary,
    restriction_for,
    signature_admits,
    validate_graph,
)
from .errors import InstantiationError, StructureError, UnknownIdentifierError

TARGET_RELATION_TYPE = "relation-type"
TARGET_CONCEPT_TYPE = "concept-type"
TARGET_MARKER = "marker"

_TARGET_KINDS = (TARGET_RELATION_TYPE, TARGET_CONCEPT_TYPE, TARGET_MARKER)


class _VariableTarget(NamedTuple):
    kind: str
    node_id: str


class VariableTarget(_VariableTarget):
    """The label slot a variable is bound to."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.kind not in _TARGET_KINDS:
            raise StructureError(f"unknown variable target kind {self.kind!r}")


class _Variable(NamedTuple):
    name: str
    target: VariableTarget
    domain: tuple[str, ...]


class Variable(_Variable):
    """A named variable with an explicit, canonically sorted value domain."""

    __slots__ = ()

    def __new__(cls, name: str, target: VariableTarget, domain: Iterable[str]) -> "Variable":
        return super().__new__(cls, name, target, tuple(sorted(set(domain))))


class _GammaCG(NamedTuple):
    name: str
    graph: ConceptualGraph
    variables: tuple[Variable, ...] = ()


class GammaCG(_GammaCG):
    """A conceptual graph plus an ordered list of label variables.

    Zero variables are allowed so plain CGs flow through the same pipeline.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        seen_names: set[str] = set()
        seen_slots: set[tuple[str, str]] = set()
        for variable in self.variables:
            if variable.name in seen_names:
                raise StructureError(f"duplicate variable name {variable.name!r}")
            seen_names.add(variable.name)
            slot = (variable.target.kind, variable.target.node_id)
            if slot in seen_slots:
                raise StructureError(
                    f"slot {slot[0]} of node {slot[1]!r} claimed by two variables"
                )
            seen_slots.add(slot)
            node_id = variable.target.node_id
            if variable.target.kind == TARGET_RELATION_TYPE:
                if node_id not in self.graph.relations:
                    raise StructureError(f"variable {variable.name!r} targets missing relation {node_id!r}")
            else:
                if node_id not in self.graph.concepts:
                    raise StructureError(f"variable {variable.name!r} targets missing concept {node_id!r}")

    def claimed_slots(self) -> frozenset[tuple[str, str]]:
        return frozenset((v.target.kind, v.target.node_id) for v in self.variables)


def _incidences(graph: ConceptualGraph) -> dict[str, list[tuple[str, int]]]:
    """Each concept's (relation id, position) argument slots, in relation-id order."""
    incidences: dict[str, list[tuple[str, int]]] = {}
    for rel_id in sorted(graph.relations):
        for position, arg in enumerate(graph.relations[rel_id].args):
            incidences.setdefault(arg, []).append((rel_id, position))
    return incidences


def slot_domain(
    vocab: Vocabulary,
    gcg: GammaCG,
    target: VariableTarget,
    *,
    signature_compatible: bool = False,
) -> frozenset[str]:
    """The admissible values of one label slot, for validation and auto-var.

    - A relation type: every relation type of the node's arity; with
      ``signature_compatible``, only those whose signature admits the
      node's current argument types.
    - A concept type: every type at or below the restriction of each
      incident relation at the node's position.
    - A marker on a marked node: every marker typed at or below the type of
      the node's current marker. On an unmarked node, which its variable
      declares individual, the draw's rule: every marker typed at or above
      the node's type, or at or above some value a concept variable on the
      node can draw.

    A node that is not of the target's kind, an unknown marker on a marked
    node, an unknown type on an unmarked node's marker slot, an unknown
    relation type and, with ``signature_compatible``, an unknown argument
    type raise UnknownIdentifierError. The node's other labels are expected
    to have passed ``validate_graph``.
    """
    kind, node_id = target.kind, target.node_id
    graph = gcg.graph
    if kind == TARGET_RELATION_TYPE:
        relation = graph.relations.get(node_id)
        if relation is None:
            raise UnknownIdentifierError(f"{node_id!r} is not a relation node of {gcg.name!r}")
        candidates = vocab.relation_hierarchy(relation.type_id).labels
        if not signature_compatible:
            return frozenset(candidates)
        arg_types = [graph.concepts[arg].type_id for arg in relation.args]
        for arg_type in arg_types:
            vocab.concepts.require(arg_type)
        return frozenset(c for c in candidates if signature_admits(vocab, c, arg_types))

    node = graph.concepts.get(node_id)
    if node is None:
        raise UnknownIdentifierError(f"{node_id!r} is not a concept node of {gcg.name!r}")
    concepts = vocab.concepts
    if kind == TARGET_CONCEPT_TYPE:
        admissible = set(concepts.labels)
        for rel_id, position in _incidences(graph).get(node_id, ()):
            relation_type = graph.relations[rel_id].type_id
            admissible &= concepts.down[restriction_for(vocab, relation_type, position)]
        return frozenset(admissible)
    if node.marker is not None:
        current = vocab.markers.get(node.marker)
        if current is None:
            raise UnknownIdentifierError(f"marker {node.marker!r} not in vocabulary")
        return frozenset(vocab.markers_typed(concepts.down[current.type_id]))
    concepts.require(node.type_id)
    up = concepts.up
    types = [node.type_id]
    for variable in gcg.variables:
        if variable.target == VariableTarget(TARGET_CONCEPT_TYPE, node_id):
            types = [t for t in variable.domain if t in up]
    return frozenset(vocab.markers_typed({above for t in types for above in up[t]}))


def validate_gamma(vocab: Vocabulary, gcg: GammaCG) -> list[str]:
    """Report lines for the graph's labels, or else for every variable's domain.

    Admissible domains are computed from the graph's labels, so they are
    checked only when every label is known and consistent. A variable's
    stored domain must be non-empty and lie inside its slot's domain.
    """
    problems = validate_graph(vocab, gcg.graph).lines()
    if problems:
        return problems
    for variable in gcg.variables:
        name, target = variable.name, variable.target
        if not variable.domain:
            problems.append(f"empty-domain {name}: variable domain must be non-empty")
            continue
        admissible = slot_domain(vocab, gcg, target)
        problems.extend(
            f"inadmissible-value {name}: {value!r} is not admissible"
            f" for {target.kind} of {target.node_id!r}"
            for value in variable.domain
            if value not in admissible
        )
    return problems


class MarkerMint:
    """Mints fresh individual markers on top of a vocabulary's registry.

    Minted ids live in a caller-chosen namespace so that independently
    minted sets (one per generated CG) never collide and can be merged into
    the vocabulary in any order.
    """

    def __init__(self, vocab: Vocabulary, namespace: str) -> None:
        self._vocab = vocab
        self._namespace = namespace
        self._counter = 0
        self.minted: dict[str, Marker] = {}
        self._all = dict(vocab.markers)
        self._minted_by_type: dict[str, list[str]] = {}

    @property
    def markers(self) -> Mapping[str, Marker]:
        return self._all

    def mint(self, concept_type: str) -> str:
        self._vocab.concepts.require(concept_type)
        while True:
            candidate = f"{self._namespace}-m{self._counter}"
            self._counter += 1
            if candidate not in self._all:
                break
        marker = Marker(candidate, concept_type)
        self.minted[candidate] = marker
        self._all[candidate] = marker
        self._minted_by_type.setdefault(concept_type, []).append(candidate)
        return candidate

    def carriers(self, concept_type: str) -> list[str]:
        """Registered and minted markers typed >= ``concept_type`` (a known type), by id."""
        above = self._vocab.concepts.up[concept_type]
        found = self._vocab.markers_typed(above)
        by_type = self._minted_by_type
        found.extend(marker_id for type_id in above for marker_id in by_type.get(type_id, ()))
        return sorted(found)

    def extended_vocabulary(self) -> Vocabulary:
        return self._vocab.with_markers(sorted(self.minted.values(), key=lambda m: m.marker_id))


class InstantiationOutcome(NamedTuple):
    """The drawn labels of one instantiation plus the audit trail.

    ``labels`` maps each type-variable slot's node id to its drawn type and
    ``markers`` each marker-variable slot's node id to its drawn marker;
    every other label is the gamma-CG's own.
    """

    labels: dict[str, str]
    markers: dict[str, str]
    assignments: tuple[tuple[str, str], ...]


class DrawPlan:
    """One gamma-CG compiled against one vocabulary for repeated draws.

    Compiled once, with the checks the draw would make:
    - incidence lists, in relation-id order;
    - each relation variable's effective list: the domain values of the
      node's arity whose signature admits the node's fixed argument types
      (an argument under a concept variable is open);
    - each concept variable's list: the domain values under every
      restriction of an incident relation without a relation variable and
      under the node's marker ceiling (unless a marker variable redraws the
      marker);
    - for each incident relation that carries a relation variable, the
      restriction at that position for every type it can draw;
    - ``rows``, the one attribute the generator reads to assemble a draw:
      the concepts by position (``ConceptNode``s), the relations by
      position as (id, type, argument positions), and the type slots in
      draw order as (provenance key, node id, hierarchy, argument (id,
      type) pairs, or ``None`` for a concept slot).

    Every list keeps domain order, so a draw consumes the RNG exactly as
    filtering the whole domain would. Unknown labels the draw would read
    raise UnknownIdentifierError here. The mint passed to ``draw`` must
    extend the same vocabulary.
    """

    def __init__(self, vocab: Vocabulary, gcg: GammaCG) -> None:
        graph = gcg.graph
        concepts = vocab.concepts
        up = concepts.up
        by_kind = {
            kind: [v for v in gcg.variables if v.target.kind == kind] for kind in _TARGET_KINDS
        }
        concept_nodes = {v.target.node_id for v in by_kind[TARGET_CONCEPT_TYPE]}
        marker_nodes = {v.target.node_id for v in by_kind[TARGET_MARKER]}
        incidences = _incidences(graph)

        drawable: dict[str, tuple[str, ...]] = {}
        relation_steps = []
        slots = []
        for variable in by_kind[TARGET_RELATION_TYPE]:
            node = graph.relations[variable.target.node_id]
            hierarchy = vocab.relation_hierarchy(node.type_id)
            slots.append(
                (
                    f"{TARGET_RELATION_TYPE}:{node.node_id}",
                    node.node_id,
                    hierarchy,
                    tuple((arg, graph.concepts[arg].type_id) for arg in node.args),
                )
            )
            arg_types = [
                None if arg in concept_nodes else graph.concepts[arg].type_id
                for arg in node.args
            ]
            for arg_type in arg_types:
                if arg_type is not None:
                    concepts.require(arg_type)
            effective = tuple(
                candidate
                for candidate in variable.domain
                if candidate in hierarchy and signature_admits(vocab, candidate, arg_types)
            )
            drawable[node.node_id] = effective
            relation_steps.append((variable.name, node.node_id, effective))

        concept_steps = []
        for variable in by_kind[TARGET_CONCEPT_TYPE]:
            node_id = variable.target.node_id
            fixed: list[str] = []
            drawn: list[tuple[str, dict[str, str]]] = []
            for rel_id, position in incidences.get(node_id, ()):
                if rel_id in drawable:
                    drawn.append(
                        (rel_id, {t: restriction_for(vocab, t, position) for t in drawable[rel_id]})
                    )
                else:
                    fixed.append(restriction_for(vocab, graph.relations[rel_id].type_id, position))
            marker_id = graph.concepts[node_id].marker
            if marker_id is not None and node_id not in marker_nodes:
                marker = vocab.markers.get(marker_id)
                if marker is None:
                    raise UnknownIdentifierError(f"marker {marker_id!r} not in vocabulary")
                fixed.append(marker.type_id)
            effective = tuple(
                candidate
                for candidate in variable.domain
                if candidate in up and all(bound in up[candidate] for bound in fixed)
            )
            concept_steps.append((variable.name, node_id, effective, tuple(drawn)))
            slots.append((f"{TARGET_CONCEPT_TYPE}:{node_id}", node_id, concepts, None))

        marker_steps = []
        for variable in by_kind[TARGET_MARKER]:
            node_id = variable.target.node_id
            node_type = graph.concepts[node_id].type_id
            if node_id not in concept_nodes:
                concepts.require(node_type)
            marker_steps.append((variable.name, node_id, node_type, variable.domain))

        position = {node_id: index for index, node_id in enumerate(graph.concepts)}
        self.gcg = gcg
        self._up = up
        self._relation_steps = tuple(relation_steps)
        self._concept_steps = tuple(concept_steps)
        self._marker_steps = tuple(marker_steps)
        self.rows = (
            tuple(graph.concepts.values()),
            tuple(
                (node.node_id, node.type_id, tuple(position[arg] for arg in node.args))
                for node in graph.relations.values()
            ),
            tuple(slots),
        )

    def draw(self, rng: random.Random, mint: MarkerMint) -> InstantiationOutcome:
        """Draw every variable once; see ``instantiate``."""
        up = self._up
        labels: dict[str, str] = {}
        assignments: list[tuple[str, str]] = []
        for name, node_id, effective in self._relation_steps:
            if not effective:
                raise InstantiationError(
                    f"variable {name!r} of {self.gcg.name!r} has no admissible relation type"
                )
            choice = rng.choice(effective)
            labels[node_id] = choice
            assignments.append((name, choice))

        for name, node_id, effective, drawn in self._concept_steps:
            if drawn:
                restrictions = [table[labels[rel_id]] for rel_id, table in drawn]
                effective = [
                    candidate for candidate in effective if up[candidate].issuperset(restrictions)
                ]
            if not effective:
                raise InstantiationError(
                    f"variable {name!r} of {self.gcg.name!r} has no admissible concept type"
                )
            choice = rng.choice(effective)
            labels[node_id] = choice
            assignments.append((name, choice))

        markers: dict[str, str] = {}
        registry = mint.markers
        for name, node_id, node_type, domain in self._marker_steps:
            node_type = labels.get(node_id, node_type)
            carried = up[node_type]
            effective = [
                candidate
                for candidate in domain
                if candidate in registry and registry[candidate].type_id in carried
            ]
            if effective:
                choice = rng.choice(effective)
            else:
                choice = mint.mint(node_type)
            markers[node_id] = choice
            assignments.append((name, choice))

        return InstantiationOutcome(labels, markers, tuple(assignments))


def instantiate(
    vocab: Vocabulary,
    gcg: GammaCG,
    rng: random.Random,
    *,
    mint: MarkerMint,
) -> InstantiationOutcome:
    """Replace every variable's target label by a draw from its domain.

    Relation-type variables are evaluated first, then concept-type, then
    marker variables, so later effective domains reflect earlier choices.
    A type variable whose effective domain empties raises
    InstantiationError; an emptied marker domain falls through to minting.

    Compiles a ``DrawPlan`` for this one call; a caller drawing the same
    gamma-CG repeatedly compiles it once and calls ``DrawPlan.draw``.
    """
    return DrawPlan(vocab, gcg).draw(rng, mint)

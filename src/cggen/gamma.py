"""Gamma-CGs: conceptual graphs with label variables and their domains.

A variable binds one label slot of the host graph (a relation-type label, a
concept-type label or a marker label) to an explicit set of admissible
values. Instantiation draws one value per variable, relation-type variables
first, then concept-type variables, then marker variables, filtering each
stored domain down to the choices that keep the graph valid at that point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Container, Mapping

from .core import (
    ConceptNode,
    ConceptualGraph,
    Marker,
    RelationNode,
    ValidationReport,
    Violation,
    Vocabulary,
    is_subtype,
    restriction_for,
    signature_admits,
    validate_graph,
)
from .errors import InstantiationError, StructureError, UnknownIdentifierError

TARGET_RELATION_TYPE = "relation-type"
TARGET_CONCEPT_TYPE = "concept-type"
TARGET_MARKER = "marker"

_TARGET_KINDS = (TARGET_RELATION_TYPE, TARGET_CONCEPT_TYPE, TARGET_MARKER)


@dataclass(frozen=True)
class VariableTarget:
    """The label slot a variable is bound to."""

    kind: str
    node_id: str

    def __post_init__(self) -> None:
        if self.kind not in _TARGET_KINDS:
            raise StructureError(f"unknown variable target kind {self.kind!r}")


@dataclass(frozen=True)
class Variable:
    """A named variable with an explicit, canonically sorted value domain."""

    name: str
    target: VariableTarget
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(sorted(set(self.domain))))


@dataclass(frozen=True)
class GammaCG:
    """A conceptual graph plus an ordered list of label variables.

    Zero variables are allowed so plain CGs flow through the same pipeline.
    """

    name: str
    graph: ConceptualGraph
    variables: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
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


def relation_type_domain(
    vocab: Vocabulary,
    gcg: GammaCG,
    node_id: str,
    *,
    signature_compatible: bool = False,
) -> frozenset[str]:
    """Admissible relation types for a relation node's type label.

    By default every relation type of the same arity qualifies. With
    ``signature_compatible`` the candidates are further restricted to those
    whose signature is satisfied by the node's current argument types.
    """
    node = gcg.graph.relations.get(node_id)
    if node is None:
        raise UnknownIdentifierError(f"{node_id!r} is not a relation node of {gcg.name!r}")
    candidates = vocab.relation_hierarchy(node.type_id).labels
    if not signature_compatible:
        return frozenset(candidates)
    arg_types = [gcg.graph.concepts[arg].type_id for arg in node.args]
    return frozenset(c for c in candidates if signature_admits(vocab, c, arg_types))


def concept_type_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> frozenset[str]:
    """Concept types satisfying every signature restriction on the node.

    For each relation node and position the concept fills, an admissible
    type must be <= the restriction at that position; a node with no
    incident relations admits all concept types.
    """
    if node_id not in gcg.graph.concepts:
        raise UnknownIdentifierError(f"{node_id!r} is not a concept node of {gcg.name!r}")
    admissible = set(vocab.concepts.labels)
    for rel_id, position in gcg.graph.incidences(node_id):
        relation = gcg.graph.relations[rel_id]
        restriction = restriction_for(vocab, relation.type_id, position)
        allowed = vocab.concepts.descendants_of(restriction) | {restriction}
        admissible &= allowed
    return frozenset(admissible)


def marker_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> frozenset[str]:
    """Markers whose assigned type is <= the node's current marker's type."""
    node = gcg.graph.concepts.get(node_id)
    if node is None:
        raise UnknownIdentifierError(f"{node_id!r} is not a concept node of {gcg.name!r}")
    if node.marker is None:
        raise StructureError(f"concept node {node_id!r} carries no marker")
    current = vocab.markers.get(node.marker)
    if current is None:
        raise UnknownIdentifierError(f"marker {node.marker!r} not in vocabulary")
    below = vocab.concepts.descendants_of(current.type_id) | {current.type_id}
    return frozenset(vocab.markers_typed(below))


def validate_domain(vocab: Vocabulary, gcg: GammaCG, variable: Variable) -> ValidationReport:
    """Check a variable's stored domain against the computed admissible one."""
    violations: list[Violation] = []
    if not variable.domain:
        violations.append(
            Violation("empty-domain", variable.name, "variable domain must be non-empty")
        )
        return ValidationReport(tuple(violations))

    kind = variable.target.kind
    node_id = variable.target.node_id
    admissible: Container[str]
    if kind == TARGET_RELATION_TYPE:
        admissible = relation_type_domain(vocab, gcg, node_id)
    elif kind == TARGET_CONCEPT_TYPE:
        admissible = concept_type_domain(vocab, gcg, node_id)
    else:
        node = gcg.graph.concepts[node_id]
        if node.marker is None:
            # Unmarked slot declared individual: any registered marker may be drawn.
            admissible = vocab.markers
        else:
            admissible = marker_domain(vocab, gcg, node_id)
    for value in variable.domain:
        if value not in admissible:
            violations.append(
                Violation(
                    "inadmissible-value",
                    variable.name,
                    f"{value!r} is not admissible for {kind} of {node_id!r}",
                )
            )
    return ValidationReport(tuple(violations))


def validate_gamma(vocab: Vocabulary, gcg: GammaCG) -> list[str]:
    """Report lines for the graph's labels, or else for every variable's domain.

    Admissible domains are computed from the graph's labels, so they are
    checked only when every label is known and consistent.
    """
    problems = validate_graph(vocab, gcg.graph).lines()
    if problems:
        return problems
    for variable in gcg.variables:
        problems.extend(validate_domain(vocab, gcg, variable).lines())
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
        """Registered and minted markers whose type is >= ``concept_type``, by id."""
        above = self._vocab.concepts.ancestors_of(concept_type) | {concept_type}
        found = self._vocab.markers_typed(above)
        by_type = self._minted_by_type
        found.extend(marker_id for type_id in above for marker_id in by_type.get(type_id, ()))
        return sorted(found)

    def extended_vocabulary(self) -> Vocabulary:
        return self._vocab.with_markers(sorted(self.minted.values(), key=lambda m: m.marker_id))


@dataclass(frozen=True)
class InstantiationOutcome:
    """Instantiated graph plus the audit trail the generator needs."""

    graph: ConceptualGraph
    assignments: tuple[tuple[str, str], ...]
    type_slots: tuple[tuple[str, str], ...]


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
    """
    concept_types = {nid: node.type_id for nid, node in gcg.graph.concepts.items()}
    concept_markers = {nid: node.marker for nid, node in gcg.graph.concepts.items()}
    relation_types = {nid: node.type_id for nid, node in gcg.graph.relations.items()}
    marker_registry = mint.markers

    relation_vars = [v for v in gcg.variables if v.target.kind == TARGET_RELATION_TYPE]
    concept_vars = [v for v in gcg.variables if v.target.kind == TARGET_CONCEPT_TYPE]
    marker_vars = [v for v in gcg.variables if v.target.kind == TARGET_MARKER]
    pending_marker_nodes = {v.target.node_id for v in marker_vars}
    pending_concept_nodes = {v.target.node_id for v in concept_vars}

    assignments: list[tuple[str, str]] = []
    type_slots: list[tuple[str, str]] = []

    for variable in relation_vars:
        node_id = variable.target.node_id
        node = gcg.graph.relations[node_id]
        hierarchy = vocab.relation_hierarchy(relation_types[node_id])
        # Argument labels with a pending concept variable adapt to the drawn
        # relation later; only already-fixed labels constrain the draw here.
        arg_types = [
            None if arg in pending_concept_nodes else concept_types[arg] for arg in node.args
        ]
        effective = [
            candidate
            for candidate in variable.domain
            if candidate in hierarchy and signature_admits(vocab, candidate, arg_types)
        ]
        if not effective:
            raise InstantiationError(
                f"variable {variable.name!r} of {gcg.name!r} has no admissible relation type"
            )
        choice = effective[rng.randrange(len(effective))]
        relation_types[node_id] = choice
        assignments.append((variable.name, choice))
        type_slots.append((TARGET_RELATION_TYPE, node_id))

    for variable in concept_vars:
        node_id = variable.target.node_id
        constraints: list[str] = []
        for rel_id, position in gcg.graph.incidences(node_id):
            constraints.append(
                restriction_for(vocab, relation_types[rel_id], position)
            )
        marker_id = concept_markers[node_id]
        marker_ceiling: str | None = None
        if marker_id is not None and node_id not in pending_marker_nodes:
            marker = marker_registry.get(marker_id)
            if marker is None:
                raise UnknownIdentifierError(f"marker {marker_id!r} not in vocabulary")
            marker_ceiling = marker.type_id
        effective = [
            candidate
            for candidate in variable.domain
            if candidate in vocab.concepts
            and all(is_subtype(vocab.concepts, candidate, c) for c in constraints)
            and (
                marker_ceiling is None
                or is_subtype(vocab.concepts, candidate, marker_ceiling)
            )
        ]
        if not effective:
            raise InstantiationError(
                f"variable {variable.name!r} of {gcg.name!r} has no admissible concept type"
            )
        choice = effective[rng.randrange(len(effective))]
        concept_types[node_id] = choice
        assignments.append((variable.name, choice))
        type_slots.append((TARGET_CONCEPT_TYPE, node_id))

    for variable in marker_vars:
        node_id = variable.target.node_id
        node_type = concept_types[node_id]
        effective = [
            candidate
            for candidate in variable.domain
            if candidate in marker_registry
            and is_subtype(vocab.concepts, node_type, marker_registry[candidate].type_id)
        ]
        if effective:
            choice = effective[rng.randrange(len(effective))]
        else:
            choice = mint.mint(node_type)
        concept_markers[node_id] = choice
        assignments.append((variable.name, choice))

    concepts = {
        nid: ConceptNode(nid, concept_types[nid], concept_markers[nid])
        for nid in gcg.graph.concepts
    }
    relations = {
        nid: RelationNode(nid, relation_types[nid], node.args)
        for nid, node in gcg.graph.relations.items()
    }
    return InstantiationOutcome(
        ConceptualGraph(concepts, relations),
        tuple(assignments),
        tuple(type_slots),
    )

"""Gamma-CGs: conceptual graphs with label variables and their domains.

A variable binds one label slot of the host graph (a relation-type label, a
concept-type label or a marker label) to an explicit set of admissible
values. ``_admissible`` is the one definition of the values a slot admits
under the vocabulary's orders and signatures, and it has two readers:
``validate_gamma`` tests each stored value with it, and ``slot_domain``
lists them for ``auto_variables``.

Validation is the draw's only gate. Instantiation draws one value per
variable, relation-type variables first, then concept-type variables, then
marker variables, from the stored domains of a validated gamma-CG, as they
are. Only what an earlier draw decides filters a later one: a concept
variable keeps the values at or below the restriction of each incident
relation whose type was drawn, and a marker variable the markers typed at
or above its node's drawn type. ``instantiate``, which takes gamma-CGs
nothing has checked, rejects one that fails ``validate_gamma``.

The draw is compiled once per (vocabulary, gamma-CG) into a ``DrawPlan``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter

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


class VariableTarget(namedtuple("VariableTarget", "kind node_id")):
    """The label slot a variable is bound to."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.kind not in _TARGET_KINDS:
            raise StructureError(f"unknown variable target kind {self.kind!r}")


class Variable(namedtuple("Variable", "name target domain")):
    """A named variable with an explicit, canonically sorted value domain."""

    __slots__ = ()

    def __new__(cls, name: str, target: VariableTarget, domain: Iterable[str]) -> Variable:
        return super().__new__(cls, name, target, tuple(sorted(set(domain))))


class GammaCG(namedtuple("GammaCG", "name graph variables", defaults=((),))):
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


def _incidences(graph: ConceptualGraph) -> dict[str, list[tuple[str, int]]]:
    """Each concept's (relation id, position) argument slots, in relation-id order."""
    incidences: dict[str, list[tuple[str, int]]] = {}
    for rel_id in sorted(graph.relations):
        for position, arg in enumerate(graph.relations[rel_id].args):
            incidences.setdefault(arg, []).append((rel_id, position))
    return incidences


def _admissible(
    vocab: Vocabulary, gcg: GammaCG, target: VariableTarget
) -> tuple[Callable[[], tuple[str, ...]], Callable[[str], bool]]:
    """The one admissibility rule of a label slot: its values and the test of one value.

    - A relation type: a type of the node's arity whose signature admits
      the node's argument types; an argument under a concept variable is
      open.
    - A concept type: a type at or below the restriction of every incident
      relation that carries no relation variable, and at or below the
      node's marker type unless a marker variable redraws that marker.
    - A marker: a registered marker typed at or above the node's type or,
      if the node carries a concept variable, at or above some admissible
      value of that variable.

    The values, built only when called, are the kind's that pass the test,
    in id order; the markers come straight from the vocabulary's index by
    type. A node not of the target's kind and an unknown label the rule
    reads raise UnknownIdentifierError.
    """
    kind, node_id = target
    graph = gcg.graph
    concepts = vocab.concepts
    up = concepts.up
    redrawn = {variable.target for variable in gcg.variables}
    if kind == TARGET_RELATION_TYPE:
        relation = graph.relations.get(node_id)
        if relation is None:
            raise UnknownIdentifierError(f"{node_id!r} is not a relation node of {gcg.name!r}")
        hierarchy = vocab.relation_hierarchy(relation.type_id)
        arg_types = [
            None if (TARGET_CONCEPT_TYPE, arg) in redrawn else graph.concepts[arg].type_id
            for arg in relation.args
        ]
        for arg_type in arg_types:
            if arg_type is not None:
                concepts.require(arg_type)

        def admits(value: str) -> bool:
            return value in hierarchy and signature_admits(vocab, value, arg_types)

        return lambda: tuple(filter(admits, hierarchy.type_ids())), admits

    node = graph.concepts.get(node_id)
    if node is None:
        raise UnknownIdentifierError(f"{node_id!r} is not a concept node of {gcg.name!r}")
    if kind == TARGET_CONCEPT_TYPE:
        # This node's slots alone, in relation-id order (the first unknown
        # relation type is the one reported): auto-var and validate_gamma
        # ask once per slot, too often to build the whole incidence map.
        slots = sorted(
            (relation.node_id, position)
            for relation in graph.relations.values()
            for position, arg in enumerate(relation.args)
            if arg == node_id
        )
        bounds = {
            restriction_for(vocab, graph.relations[rel_id].type_id, position)
            for rel_id, position in slots
            if (TARGET_RELATION_TYPE, rel_id) not in redrawn
        }
        if node.marker is not None and (TARGET_MARKER, node_id) not in redrawn:
            marker = vocab.markers.get(node.marker)
            if marker is None:
                raise UnknownIdentifierError(f"marker {node.marker!r} not in vocabulary")
            bounds.add(marker.type_id)

        def admits(value: str) -> bool:
            return value in up and up[value].issuperset(bounds)

        return lambda: tuple(filter(admits, concepts.type_ids())), admits

    concepts.require(node.type_id)
    carried = set(up[node.type_id])
    concept_slot = VariableTarget(TARGET_CONCEPT_TYPE, node_id)
    for variable in gcg.variables:
        if variable.target == concept_slot:
            _, admits_type = _admissible(vocab, gcg, concept_slot)
            carried.update(*(up[type_id] for type_id in filter(admits_type, variable.domain)))
    markers = vocab.markers

    def admits(value: str) -> bool:
        return value in markers and markers[value].type_id in carried

    return lambda: tuple(vocab.markers_typed(carried)), admits


def slot_domain(vocab: Vocabulary, gcg: GammaCG, target: VariableTarget) -> tuple[str, ...]:
    """The admissible values of one label slot in id order, for auto-var.

    The rule is ``_admissible``'s; the node's other labels are expected to
    have passed ``validate_graph``. Id order makes a sample drawn by index
    independent of string hashing.
    """
    values, _ = _admissible(vocab, gcg, target)
    return values()


def validate_gamma(vocab: Vocabulary, gcg: GammaCG) -> list[str]:
    """Report lines for the graph's labels, or else for every variable's domain.

    The admissibility rule reads the graph's labels, so domains are checked
    only when every label is known and consistent. A variable's stored
    domain must be non-empty and each value must pass its slot's rule.
    """
    problems = validate_graph(vocab, gcg.graph).lines()
    if problems:
        return problems
    for variable in gcg.variables:
        name, target = variable.name, variable.target
        if not variable.domain:
            problems.append(f"empty-domain {name}: variable domain must be non-empty")
            continue
        _, admits = _admissible(vocab, gcg, target)
        problems.extend(
            f"inadmissible-value {name}: {value!r} is not admissible"
            f" for {target.kind} of {target.node_id!r}"
            for value in variable.domain
            if not admits(value)
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
        self._minted_by_type: dict[str, list[str]] = {}
        # carriers() per concept type, until the next mint.
        self._carriers: dict[str, tuple[str, ...]] = {}

    def mint(self, concept_type: str) -> str:
        self._vocab.concepts.require(concept_type)
        registered = self._vocab.markers
        while True:
            candidate = f"{self._namespace}-m{self._counter}"
            self._counter += 1
            # The counter never repeats, so a candidate is never among the minted.
            if candidate not in registered:
                break
        self.minted[candidate] = Marker(candidate, concept_type)
        self._minted_by_type.setdefault(concept_type, []).append(candidate)
        self._carriers.clear()
        return candidate

    def carriers(self, concept_type: str) -> tuple[str, ...]:
        """Registered and minted markers typed >= ``concept_type`` (a known type), by id."""
        found = self._carriers.get(concept_type)
        if found is None:
            above = self._vocab.concepts.up[concept_type]
            ids = self._vocab.markers_typed(above)
            by_type = self._minted_by_type
            ids.extend(marker_id for type_id in above for marker_id in by_type.get(type_id, ()))
            found = self._carriers[concept_type] = tuple(sorted(ids))
        return found


class InstantiationOutcome(namedtuple("InstantiationOutcome", "labels markers assignments")):
    """The drawn labels of one instantiation plus the audit trail.

    ``labels`` maps each type-variable slot's node id to its drawn type and
    ``markers`` each marker-variable slot's node id to its drawn marker;
    every other label is the gamma-CG's own. ``assignments`` maps each
    variable's name to its drawn value, in draw order: the draw's
    ``assignments`` object in ``derivations.jsonl``.
    """

    __slots__ = ()


def _arguments_getter(positions: Sequence[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """One call that takes the items at ``positions`` of a tuple, as a tuple."""
    if len(positions) == 1:
        # itemgetter(i) returns the item, not a one-item tuple.
        return itemgetter(slice(positions[0], positions[0] + 1))
    # itemgetter() of no position cannot be made; an empty slice gives ().
    return itemgetter(*positions) if positions else itemgetter(slice(0))


class DrawPlan:
    """One validated gamma-CG compiled against its vocabulary for repeated draws.

    Compiled once:
    - each relation and concept variable's stored domain, as it is;
    - for each incident relation that carries a relation variable, the
      restriction at that position for every type it can draw;
    - each marker variable's domain, filtered for each type its node can
      be drawn with;
    - ``rows``, what the generator's ``_Assembler.absorb`` names, labels
      and joins in one pass: the concepts by position (``ConceptNode``s)
      and the relations by position as (id, type, arguments), where
      ``arguments`` takes a relation's argument ids, as a tuple, from the
      tuple of the ids its concepts are kept under, in concept order;
    - ``slots``, the type slots the generator specialises, in draw order,
      as (provenance key, node id, hierarchy, and the argument ids and
      their types, or ``None`` for a concept slot).

    ``admitted`` starts empty and caches, for the generator's specialise
    step, the children of a relation type whose signature admits given
    argument types, keyed by (type, argument types).

    The gamma-CG must pass ``validate_gamma`` against the vocabulary:
    nothing here checks a label or a domain value again. Every list keeps
    domain order, so a draw consumes the RNG exactly as filtering the whole
    domain would. The mint passed to ``draw`` must extend the same
    vocabulary.
    """

    def __init__(self, vocab: Vocabulary, gcg: GammaCG) -> None:
        graph = gcg.graph
        concepts = vocab.concepts
        signatures = vocab.signatures
        by_kind = {
            kind: [v for v in gcg.variables if v.target.kind == kind] for kind in _TARGET_KINDS
        }
        incidences = _incidences(graph)

        drawable: dict[str, tuple[str, ...]] = {}
        relation_steps = []
        slots = []
        for variable in by_kind[TARGET_RELATION_TYPE]:
            node = graph.relations[variable.target.node_id]
            drawable[node.node_id] = variable.domain
            relation_steps.append((variable.name, node.node_id, variable.domain))
            slots.append(
                (
                    f"{TARGET_RELATION_TYPE}:{node.node_id}",
                    node.node_id,
                    vocab.relation_hierarchy(node.type_id),
                    (node.args, tuple(graph.concepts[arg].type_id for arg in node.args)),
                )
            )

        concept_steps = []
        for variable in by_kind[TARGET_CONCEPT_TYPE]:
            node_id = variable.target.node_id
            drawn = tuple(
                (rel_id, {t: signatures[t].restrictions[position] for t in drawable[rel_id]})
                for rel_id, position in incidences.get(node_id, ())
                if rel_id in drawable
            )
            concept_steps.append((variable.name, node_id, variable.domain, drawn))
            slots.append((f"{TARGET_CONCEPT_TYPE}:{node_id}", node_id, concepts, None))

        up = concepts.up
        markers = vocab.markers
        drawn_types = {node_id: domain for _, node_id, domain, _ in concept_steps}
        marker_steps = []
        for variable in by_kind[TARGET_MARKER]:
            node_id = variable.target.node_id
            node_type = graph.concepts[node_id].type_id
            by_type = {
                type_id: [m for m in variable.domain if markers[m].type_id in up[type_id]]
                for type_id in drawn_types.get(node_id, (node_type,))
            }
            marker_steps.append((variable.name, node_id, node_type, by_type))

        position = {node_id: index for index, node_id in enumerate(graph.concepts)}
        self.gcg = gcg
        self._up = up
        self._relation_steps = tuple(relation_steps)
        self._concept_steps = tuple(concept_steps)
        self._marker_steps = tuple(marker_steps)
        self.rows = (
            tuple(graph.concepts.values()),
            tuple(
                (
                    node.node_id,
                    node.type_id,
                    _arguments_getter([position[arg] for arg in node.args]),
                )
                for node in graph.relations.values()
            ),
        )
        self.slots = tuple(slots)
        self.admitted: dict[tuple[str, tuple[str, ...]], list[str]] = {}

    def draw(self, rng: random.Random, mint: MarkerMint) -> InstantiationOutcome:
        """Draw every variable once; see ``instantiate``."""
        up = self._up
        choice = rng.choice
        labels: dict[str, str] = {}
        assignments: dict[str, str] = {}
        for name, node_id, domain in self._relation_steps:
            assignments[name] = labels[node_id] = choice(domain)

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
            assignments[name] = labels[node_id] = choice(effective)

        markers: dict[str, str] = {}
        for name, node_id, node_type, by_type in self._marker_steps:
            node_type = labels.get(node_id, node_type)
            effective = by_type[node_type]
            value = choice(effective) if effective else mint.mint(node_type)
            assignments[name] = markers[node_id] = value

        return InstantiationOutcome(labels, markers, assignments)


def instantiate(
    vocab: Vocabulary,
    gcg: GammaCG,
    rng: random.Random,
    *,
    mint: MarkerMint,
) -> InstantiationOutcome:
    """Replace every variable's target label by a draw from its domain.

    Returns an ``InstantiationOutcome``: the drawn labels and markers by
    node id, and each variable's drawn value by name, in draw order, as
    the dict a derivations line stores.

    A gamma-CG that fails ``validate_gamma`` raises StructureError, naming
    it and listing the report's lines. Relation-type variables are drawn
    first, then concept-type, then marker variables, so later effective
    domains reflect earlier choices. A concept variable whose effective
    domain empties raises InstantiationError; an emptied marker domain
    falls through to minting.

    Validates and compiles a ``DrawPlan`` for this one call; a caller
    drawing the same validated gamma-CG repeatedly compiles it once and
    calls ``DrawPlan.draw``.
    """
    problems = validate_gamma(vocab, gcg)
    if problems:
        raise StructureError(f"invalid gamma-CG {gcg.name!r}:\n" + "\n".join(problems))
    return DrawPlan(vocab, gcg).draw(rng, mint)

"""Vocabulary and conceptual-graph data model.

A vocabulary bundles a concept-type hierarchy, one relation-type hierarchy
per arity, a signature per relation type and a registry of individual
markers. Conceptual graphs are bipartite labeled multigraphs: concept nodes
carry a type and an optional marker, relation nodes carry a type and an
ordered argument list of concept node ids (the same concept may fill several
positions).

Records here and in the other modules are immutable named tuples, each one
class built on ``collections.namedtuple`` (the package imports neither
``dataclasses`` nor ``typing``). Subclassing the namedtuple lets the record's
own class check its fields in ``__init__`` and rewrite one in ``__new__``,
which a ``typing.NamedTuple`` class body forbids. ``_replace`` and ``_make``
skip both methods, so build a new record instead.

Construction validates the structural invariants and precomputes each
hierarchy's order as the maps ``TypeHierarchy.up``, ``down`` and
``children``, so every order question is an O(1) lookup: a <= b is
``b in hierarchy.up[a]``. The maps are unchecked; ``TypeHierarchy.require``
is the checked entry point for a type that has not been validated yet.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from operator import itemgetter

from .errors import (
    ArityError,
    StructureError,
    UnknownIdentifierError,
    VocabularyError,
)

CONCEPT = "concept"
RELATION = "relation"


def _read_only(self: object, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class TypeHierarchy(
    namedtuple("TypeHierarchy", "kind root labels parents arity", defaults=(None,))
):
    """A partially ordered set of types stored as a direct-parent DAG.

    ``labels`` maps every type id to its unique label and ``parents`` to its
    direct parents; the root maps to an empty tuple. A relation hierarchy
    carries its ``arity``, a concept hierarchy None. Auto-generated
    hierarchies are trees, hand-authored ones may be DAGs. The order is
    computed eagerly at construction into three maps: ``up[a]`` holds a's
    ancestors and a itself, so a <= b is ``b in up[a]``; ``down[a]`` holds
    a's descendants and a itself; ``children[a]`` holds a's direct
    children, sorted. The maps are unchecked: an unknown ``a`` raises
    KeyError. Equality ignores them.
    """

    # No __slots__: the three maps live in the instance dict, set once here.
    up: dict[str, frozenset[str]]
    down: dict[str, frozenset[str]]
    children: dict[str, tuple[str, ...]]
    __setattr__ = __delattr__ = _read_only

    def __init__(self, *args, **kwargs) -> None:
        if self.kind not in (CONCEPT, RELATION):
            raise VocabularyError(f"unknown hierarchy kind {self.kind!r}")
        if self.kind == RELATION:
            if self.arity is None or self.arity < 1:
                raise VocabularyError("relation hierarchies need a positive arity")
        elif self.arity is not None:
            raise VocabularyError("concept hierarchies carry no arity")
        if self.root not in self.labels:
            raise VocabularyError(f"root {self.root!r} is not a member type")
        if set(self.parents) != set(self.labels):
            raise VocabularyError("parents and labels must cover the same type ids")
        seen_labels: dict[str, str] = {}
        for type_id, label in self.labels.items():
            if label in seen_labels:
                raise VocabularyError(
                    f"duplicate label {label!r} on {seen_labels[label]!r} and {type_id!r}"
                )
            seen_labels[label] = type_id
        for type_id, parent_ids in self.parents.items():
            if type_id == self.root:
                if parent_ids:
                    raise VocabularyError(f"root {self.root!r} must have no parents")
                continue
            if not parent_ids:
                raise VocabularyError(f"type {type_id!r} has no parent")
            for index, parent in enumerate(parent_ids):
                if parent not in self.labels:
                    raise VocabularyError(
                        f"type {type_id!r} references unknown parent {parent!r}"
                    )
                if parent in parent_ids[:index]:
                    raise VocabularyError(f"type {type_id!r} lists parent {parent!r} twice")

        # Depth first from each type in turn, parents in order, on a stack
        # rather than by recursion, so that no chain is too deep. ``stack``
        # holds the path from ``start`` with each type's parents still to
        # visit; ``trail`` holds the same types, in path order. Every
        # non-root type has a parent and the root has none, so each acyclic
        # walk ends at the root.
        parents = self.parents
        up: dict[str, frozenset[str]] = {}
        for start in self.labels:
            if start in up:
                continue
            stack = [(start, iter(parents[start]))]
            trail = {start: None}
            while stack:
                type_id, ahead = stack[-1]
                for parent in ahead:
                    if parent not in up:
                        break
                else:
                    stack.pop()
                    del trail[type_id]
                    acc = {type_id}
                    for parent in parents[type_id]:
                        acc |= up[parent]
                    up[type_id] = frozenset(acc)
                    continue
                if parent in trail:
                    cycle = " -> ".join([*trail, parent])
                    raise VocabularyError(f"cycle in hierarchy order: {cycle}")
                stack.append((parent, iter(parents[parent])))
                trail[parent] = None

        children: dict[str, list[str]] = {type_id: [] for type_id in self.labels}
        for type_id, parent_ids in self.parents.items():
            for parent in parent_ids:
                children[parent].append(type_id)

        # ``up`` lists each type after its parents, so in reverse each comes
        # after its children.
        down: dict[str, frozenset[str]] = {}
        for type_id in reversed(up):
            acc = {type_id}
            for kid in children[type_id]:
                acc |= down[kid]
            down[type_id] = frozenset(acc)

        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", {type_id: down[type_id] for type_id in self.labels})
        object.__setattr__(
            self, "children", {type_id: tuple(sorted(kids)) for type_id, kids in children.items()}
        )

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.labels

    def require(self, type_id: str) -> None:
        if type_id not in self.labels:
            raise UnknownIdentifierError(
                f"unknown {self.kind} type {type_id!r}"
            )

    def type_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.labels))


def _walk_down(
    hierarchy: TypeHierarchy,
    type_id: str,
    moves: int,
    rng: random.Random,
    keep: Callable[[str], bool] | None = None,
) -> tuple[str, int]:
    """Take up to ``moves`` uniform steps down to children passing ``keep``.

    Unchecked: ``type_id`` must be a member of ``hierarchy``.
    """
    children = hierarchy.children
    current = type_id
    taken = 0
    for _ in range(moves):
        kids = children[current]
        if keep is not None:
            kids = [kid for kid in kids if keep(kid)]
        if not kids:
            break
        current = rng.choice(kids)
        taken += 1
    return current, taken


class Signature(namedtuple("Signature", "relation_type restrictions")):
    """Per relation type, the ordered concept-type restrictions of its arguments."""

    __slots__ = ()


class Marker(namedtuple("Marker", "marker_id type_id")):
    """An individual marker and the concept type it instantiates."""

    __slots__ = ()


class Vocabulary(namedtuple("Vocabulary", "concepts relations signatures markers")):
    """The ontological bundle: concept types, relation types, signatures, markers.

    ``relations`` maps each arity to its relation hierarchy, ``signatures``
    each relation type id to its Signature, and ``markers`` each marker id
    to its Marker.
    """

    __setattr__ = __delattr__ = _read_only

    def __new__(cls, concepts, relations, signatures, markers=None) -> Vocabulary:
        markers = {} if markers is None else markers
        self = super().__new__(cls, concepts, relations, signatures, markers)
        if self.concepts.kind != CONCEPT:
            raise VocabularyError("concepts must be a concept hierarchy")
        arity_by_type: dict[str, int] = {}
        for arity, hierarchy in self.relations.items():
            if hierarchy.kind != RELATION or hierarchy.arity != arity:
                raise VocabularyError(f"relation hierarchy under key {arity} is inconsistent")
            for type_id in hierarchy.labels:
                if type_id in arity_by_type or type_id in self.concepts.labels:
                    raise VocabularyError(f"type id {type_id!r} is not unique in the vocabulary")
                arity_by_type[type_id] = arity

        concept_labels = set(self.concepts.labels.values())
        for hierarchy in self.relations.values():
            overlap = concept_labels & set(hierarchy.labels.values())
            if overlap:
                raise VocabularyError(
                    f"concept and relation label sets overlap: {sorted(overlap)}"
                )

        if set(self.signatures) != set(arity_by_type):
            missing = sorted(set(arity_by_type) - set(self.signatures))
            extra = sorted(set(self.signatures) - set(arity_by_type))
            raise VocabularyError(
                f"signatures must cover relation types exactly (missing {missing}, extra {extra})"
            )
        for type_id, signature in self.signatures.items():
            if signature.relation_type != type_id:
                raise VocabularyError(f"signature under {type_id!r} names {signature.relation_type!r}")
            arity = arity_by_type[type_id]
            if len(signature.restrictions) != arity:
                raise VocabularyError(
                    f"signature of {type_id!r} has {len(signature.restrictions)} "
                    f"restrictions for arity {arity}"
                )
            for restriction in signature.restrictions:
                if restriction not in self.concepts.labels:
                    raise VocabularyError(
                        f"signature of {type_id!r} references unknown concept {restriction!r}"
                    )

        # Monotonicity: r' <= r implies pointwise restriction(r') <= restriction(r).
        concepts_up = self.concepts.up
        for hierarchy in self.relations.values():
            for sub in hierarchy.labels:
                sub_sig = self.signatures[sub].restrictions
                for sup in hierarchy.up[sub]:
                    sup_sig = self.signatures[sup].restrictions
                    for position, (below, above) in enumerate(zip(sub_sig, sup_sig)):
                        if above not in concepts_up[below]:
                            raise VocabularyError(
                                f"non-monotone signature: {sub!r} <= {sup!r} but position "
                                f"{position} has {below!r} !<= {above!r}"
                            )

        markers_by_type: dict[str, list[str]] = {}
        for marker in self.markers.values():
            if marker.type_id not in self.concepts.labels:
                raise VocabularyError(
                    f"marker {marker.marker_id!r} has unknown type {marker.type_id!r}"
                )
            markers_by_type.setdefault(marker.type_id, []).append(marker.marker_id)
        # Each type's ids in id order, so markers_typed only merges presorted runs.
        for marker_ids in markers_by_type.values():
            marker_ids.sort()

        object.__setattr__(self, "_arity_by_type", arity_by_type)
        object.__setattr__(self, "_markers_by_type", markers_by_type)
        return self

    def arity_of(self, relation_type: str) -> int:
        arity = self._arity_by_type.get(relation_type)  # type: ignore[attr-defined]
        if arity is None:
            raise UnknownIdentifierError(f"unknown relation type {relation_type!r}")
        return arity

    def relation_hierarchy(self, relation_type: str) -> TypeHierarchy:
        return self.relations[self.arity_of(relation_type)]

    def relation_type_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._arity_by_type))  # type: ignore[attr-defined]

    def signature_of(self, relation_type: str) -> Signature:
        self.arity_of(relation_type)
        return self.signatures[relation_type]

    def markers_typed(self, type_ids: Iterable[str]) -> list[str]:
        """Ids of the registered markers whose type is in the set ``type_ids``, in id order.

        The index holds each type's ids sorted, so this sort only merges presorted runs.
        """
        by_type = self._markers_by_type  # type: ignore[attr-defined]
        return sorted([marker_id for type_id in type_ids for marker_id in by_type.get(type_id, ())])

    def with_markers(self, extra: Iterable[Marker]) -> Vocabulary:
        """A copy of this vocabulary with additional markers registered, in id order."""
        merged = dict(self.markers)
        # A Marker tuple sorts by its id first.
        for marker in sorted(extra):
            if marker.marker_id in merged:
                raise VocabularyError(f"marker {marker.marker_id!r} already registered")
            merged[marker.marker_id] = marker
        return Vocabulary(self.concepts, self.relations, self.signatures, merged)


def restriction_for(vocab: Vocabulary, relation_type: str, position: int) -> str:
    """The concept-type restriction at ``position`` of a relation signature."""
    signature = vocab.signature_of(relation_type)
    if not 0 <= position < len(signature.restrictions):
        raise ArityError(
            f"position {position} out of range for {relation_type!r} "
            f"(arity {len(signature.restrictions)})"
        )
    return signature.restrictions[position]


def signature_admits(
    vocab: Vocabulary, relation_type: str, arg_types: Sequence[str | None]
) -> bool:
    """True iff each argument type is <= the restriction at its position.

    ``None`` marks an open position, which admits any restriction. Unchecked:
    the relation type and every argument type must be in the vocabulary.
    """
    up = vocab.concepts.up
    restrictions = vocab.signatures[relation_type].restrictions
    return all(
        arg_type is None or restriction in up[arg_type]
        for arg_type, restriction in zip(arg_types, restrictions)
    )


class ConceptNode(namedtuple("ConceptNode", "node_id type_id marker", defaults=(None,))):
    """A concept node: a type plus an optional individual marker."""

    __slots__ = ()


class RelationNode(namedtuple("RelationNode", "node_id type_id args")):
    """A relation node: a type plus its ordered concept arguments."""

    __slots__ = ()


_NODE_ID = itemgetter(0)
_ARGS = itemgetter(2)


class ConceptualGraph(namedtuple("ConceptualGraph", "concepts relations")):
    """A bipartite labeled multigraph of concept and relation nodes.

    ``concepts`` and ``relations`` map each node id to its node. Edges are
    materialized as the relation nodes' argument lists; positions are
    0-based. Node ids are unique across both node kinds and every
    argument must reference a concept node of the same graph.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        concepts, relations = self.concepts, self.relations
        # Three bulk checks; only when one fails does the loop below find
        # the first fault to name.
        try:
            valid = (
                list(concepts) == list(map(_NODE_ID, concepts.values()))
                and list(relations) == list(map(_NODE_ID, relations.values()))
                and concepts.keys().isdisjoint(relations)
                and concepts.keys() >= set(chain.from_iterable(map(_ARGS, relations.values())))
            )
        except TypeError:  # an unhashable argument: the loop meets it in order
            valid = False
        if valid:
            return
        for node_id, node in self.concepts.items():
            if node.node_id != node_id:
                raise StructureError(f"concept key {node_id!r} names node {node.node_id!r}")
        for node_id, node in self.relations.items():
            if node.node_id != node_id:
                raise StructureError(f"relation key {node_id!r} names node {node.node_id!r}")
        overlap = set(self.concepts) & set(self.relations)
        if overlap:
            raise StructureError(f"node ids used for both kinds: {sorted(overlap)}")
        for node in self.relations.values():
            for arg in node.args:
                if arg not in self.concepts:
                    raise StructureError(
                        f"relation {node.node_id!r} references missing concept {arg!r}"
                    )

    @property
    def size(self) -> int:
        """Node count: concepts plus relations."""
        return len(self.concepts) + len(self.relations)


Violation = namedtuple("Violation", "code subject message")


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    def lines(self) -> list[str]:
        return [f"{v.code} {v.subject}: {v.message}" for v in self.violations]


def validate_graph(vocab: Vocabulary, graph: ConceptualGraph) -> ValidationReport:
    """Check every label of a graph against the vocabulary.

    Violations are report entries, never exceptions: unknown types or
    markers, argument lists not matching the relation arity, argument types
    breaking a signature restriction, and marked nodes whose type is not a
    subtype of the marker's assigned type.
    """
    up = vocab.concepts.up
    violations: list[Violation] = []
    # Each concept's up-set, or None when its type is unknown: the relation
    # pass reads it instead of looking the argument's type up again.
    above: dict[str, frozenset[str] | None] = {}

    for node_id in sorted(graph.concepts):
        node = graph.concepts[node_id]
        ups = above[node_id] = up.get(node.type_id)
        if ups is None:
            violations.append(
                Violation("unknown-concept-type", node_id, f"type {node.type_id!r} not in vocabulary")
            )
            continue
        if node.marker is not None:
            marker = vocab.markers.get(node.marker)
            if marker is None:
                violations.append(
                    Violation("unknown-marker", node_id, f"marker {node.marker!r} not in vocabulary")
                )
            elif marker.type_id not in ups:
                violations.append(
                    Violation(
                        "marker-type-violation",
                        node_id,
                        f"type {node.type_id!r} is not <= marker type {marker.type_id!r}",
                    )
                )

    signatures = vocab.signatures
    relations = graph.relations
    for node_id in sorted(relations):
        node = relations[node_id]
        signature = signatures.get(node.type_id)
        if signature is None:
            violations.append(
                Violation("unknown-relation-type", node_id, f"type {node.type_id!r} not in vocabulary")
            )
            continue
        restrictions = signature.restrictions
        arity = len(restrictions)
        if len(node.args) != arity:
            violations.append(
                Violation(
                    "arity-mismatch",
                    node_id,
                    f"{len(node.args)} arguments for arity-{arity} type {node.type_id!r}",
                )
            )
            continue
        position = 0
        for arg in node.args:
            ups = above[arg]
            # An unknown argument type is already reported on the concept node.
            if ups is not None and restrictions[position] not in ups:
                violations.append(
                    Violation(
                        "signature-violation",
                        node_id,
                        f"argument {position} ({arg!r}: {graph.concepts[arg].type_id!r}) "
                        f"is not <= restriction {restrictions[position]!r}",
                    )
                )
            position += 1

    return ValidationReport(tuple(violations))


def plain_file_name(name: str) -> bool:
    """Whether ``name`` names a file directly inside a directory on every platform.

    A gamma-CG's name becomes ``gamma/<name>.json`` and a manifest's
    ``cgFiles`` entry a file of the dataset directory: neither may be empty,
    ``.`` or ``..``, or hold a path separator or a NUL.
    """
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")

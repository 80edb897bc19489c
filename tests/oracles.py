"""Independent brute-force oracles used to cross-check library results.

Everything here works directly off the raw parent maps and node lists,
never off the library's precomputed closures or domain functions.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import Mapping, Sequence

from cggen import (
    ConceptNode,
    ConceptualGraph,
    GammaCG,
    InstantiationError,
    Marker,
    GeneratorConfig,
    MarkerMint,
    RelationNode,
    TypeHierarchy,
    UnknownIdentifierError,
    Vocabulary,
    restriction_for,
)
from cggen.gamma import TARGET_CONCEPT_TYPE, TARGET_MARKER, TARGET_RELATION_TYPE
from cggen.generator import (
    INSTANTIATION_RETRIES,
    ComponentDraw,
    GenerationProvenance,
    _Assembler,
)


def brute_reaches(parents: dict[str, tuple[str, ...]], a: str, b: str) -> bool:
    """True iff b is reachable from a by repeatedly following parent edges."""
    if a == b:
        return True
    frontier = [a]
    seen = {a}
    while frontier:
        node = frontier.pop()
        for parent in parents[node]:
            if parent == b:
                return True
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return False


def brute_subtype(hierarchy: TypeHierarchy, a: str, b: str) -> bool:
    return brute_reaches(hierarchy.parents, a, b)


def brute_incidences(graph: ConceptualGraph, concept_id: str) -> list[tuple[str, int]]:
    """(relation id, position) pairs where the concept fills an argument, by relation id."""
    return [
        (rel_id, position)
        for rel_id in sorted(graph.relations)
        for position, arg in enumerate(graph.relations[rel_id].args)
        if arg == concept_id
    ]


def absorb(assembler: _Assembler, graph: ConceptualGraph):
    """Fold ``graph`` into ``assembler`` under its own node ids."""
    position = {node_id: index for index, node_id in enumerate(graph.concepts)}
    relations = [
        (node.node_id, node.type_id, [position[arg] for arg in node.args])
        for node in graph.relations.values()
    ]
    return assembler.absorb(graph.concepts.values(), relations)


def fold(vocab: Vocabulary, *graphs: ConceptualGraph) -> ConceptualGraph:
    """The generator's merge (join) of ``graphs``, in order; their node ids must not collide."""
    assembler = _Assembler(vocab)
    for graph in graphs:
        absorb(assembler, graph)
    return assembler.snapshot()


def arity_of(vocab: Vocabulary, relation_type: str) -> int:
    for arity, hierarchy in vocab.relations.items():
        if relation_type in hierarchy.labels:
            return arity
    raise KeyError(relation_type)


def brute_relation_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """All relation types of the same arity as the node's current type."""
    node = gcg.graph.relations[node_id]
    arity = arity_of(vocab, node.type_id)
    return {
        candidate
        for hierarchy in vocab.relations.values()
        for candidate in hierarchy.labels
        if arity_of(vocab, candidate) == arity
    }


def brute_signature_relation_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Relation types of the node's arity whose signature admits its argument types."""
    graph = gcg.graph
    arg_types = [graph.concepts[arg].type_id for arg in graph.relations[node_id].args]
    return {
        candidate
        for candidate in brute_relation_domain(vocab, gcg, node_id)
        if _brute_signature_admits(vocab, candidate, arg_types)
    }


def brute_concept_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Concept types t with t <= restriction for every incident argument slot."""
    constraints: list[str] = []
    for rel_id, relation in gcg.graph.relations.items():
        for position, arg in enumerate(relation.args):
            if arg == node_id:
                constraints.append(vocab.signatures[relation.type_id].restrictions[position])
    return {
        candidate
        for candidate in vocab.concepts.labels
        if all(brute_subtype(vocab.concepts, candidate, c) for c in constraints)
    }


def brute_marker_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Markers whose assigned type is <= the type of the node's marker."""
    current = vocab.markers[gcg.graph.concepts[node_id].marker]
    return {
        marker_id
        for marker_id, marker in vocab.markers.items()
        if brute_subtype(vocab.concepts, marker.type_id, current.type_id)
    }


def brute_carriers(
    vocab: Vocabulary, markers: Mapping[str, Marker], concept_type: str
) -> list[str]:
    """Markers a concept of ``concept_type`` may carry (type >= it), sorted by id."""
    return sorted(
        marker_id
        for marker_id, marker in markers.items()
        if brute_subtype(vocab.concepts, concept_type, marker.type_id)
    )


def _brute_signature_admits(
    vocab: Vocabulary, relation_type: str, arg_types: Sequence[str | None]
) -> bool:
    restrictions = vocab.signature_of(relation_type).restrictions
    return all(
        arg_type is None or brute_subtype(vocab.concepts, arg_type, restriction)
        for arg_type, restriction in zip(arg_types, restrictions)
    )


def brute_instantiate(
    vocab: Vocabulary, gcg: GammaCG, rng: random.Random, *, mint: MarkerMint
) -> tuple[ConceptualGraph, tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """One draw filtering every stored domain in full, with checked lookups.

    The draw as it was before gamma-CGs were compiled into draw plans:
    returns the instantiated graph, the assignments and the type slots.
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
        arg_types = [
            None if arg in pending_concept_nodes else concept_types[arg] for arg in node.args
        ]
        effective = [
            candidate
            for candidate in variable.domain
            if candidate in hierarchy and _brute_signature_admits(vocab, candidate, arg_types)
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
        for rel_id, position in brute_incidences(gcg.graph, node_id):
            constraints.append(restriction_for(vocab, relation_types[rel_id], position))
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
            and all(brute_subtype(vocab.concepts, candidate, c) for c in constraints)
            and (marker_ceiling is None or brute_subtype(vocab.concepts, candidate, marker_ceiling))
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
            and brute_subtype(vocab.concepts, node_type, marker_registry[candidate].type_id)
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
    return ConceptualGraph(concepts, relations), tuple(assignments), tuple(type_slots)


def _reference_walk(hierarchy, type_id, moves, rng, keep=None):
    """The downward walk as it was: ``randrange`` over the children passing ``keep``."""
    parents = hierarchy.parents
    current = type_id
    taken = 0
    for _ in range(moves):
        kids = [kid for kid in sorted(parents) if current in parents[kid]]
        kids = [kid for kid in kids if keep is None or keep(kid)]
        if not kids:
            break
        current = kids[rng.randrange(len(kids))]
        taken += 1
    return current, taken


def reference_generate_one(
    vocab: Vocabulary,
    gammas: Sequence[GammaCG],
    config: GeneratorConfig,
    rng: random.Random,
    *,
    mint: MarkerMint,
) -> tuple[ConceptualGraph, GenerationProvenance]:
    """``generate_one`` as it was before draw plans compiled the assembly step.

    Each draw instantiates with ``brute_instantiate``, takes ``randint(0,
    max_spe)`` moves per type slot down a ``randrange`` walk that checks
    each child of a relation label against its signature, then remaps every
    node id through a dict to the next ``c<i>``/``r<j>`` and folds the
    component in. A gamma-CG that fails INSTANTIATION_RETRIES times is set
    aside for the CG.
    """
    assembler = _Assembler(vocab)
    next_concept = next_relation = 0
    draws: list[ComponentDraw] = []
    failures = [0] * len(gammas)
    skipped_gammas: set[int] = set()
    while assembler.size < config.min_size:
        index = rng.randrange(len(gammas))
        if index in skipped_gammas:
            continue
        gcg = gammas[index]
        try:
            graph, assignments, type_slots = brute_instantiate(vocab, gcg, rng, mint=mint)
        except InstantiationError:
            failures[index] += 1
            if failures[index] >= INSTANTIATION_RETRIES:
                skipped_gammas.add(index)
            continue
        labels: dict[str, str] = {}
        steps = []
        for kind, node_id in type_slots:
            moves = rng.randint(0, config.max_spe)
            if kind == TARGET_CONCEPT_TYPE:
                current = graph.concepts[node_id].type_id
                labels[node_id], taken = _reference_walk(vocab.concepts, current, moves, rng)
            else:
                node = graph.relations[node_id]
                arg_types = [labels.get(arg, graph.concepts[arg].type_id) for arg in node.args]
                labels[node_id], taken = _reference_walk(
                    vocab.relations[arity_of(vocab, node.type_id)],
                    node.type_id,
                    moves,
                    rng,
                    lambda child: _brute_signature_admits(vocab, child, arg_types),
                )
            steps.append((f"{kind}:{node_id}", taken))
        ids = {nid: f"c{next_concept + i}" for i, nid in enumerate(graph.concepts)}
        ids.update({nid: f"r{next_relation + j}" for j, nid in enumerate(graph.relations)})
        next_concept += len(graph.concepts)
        next_relation += len(graph.relations)
        component = ConceptualGraph(
            {
                ids[nid]: ConceptNode(ids[nid], labels.get(nid, node.type_id), node.marker)
                for nid, node in graph.concepts.items()
            },
            {
                ids[nid]: RelationNode(
                    ids[nid], labels.get(nid, node.type_id), tuple(ids[arg] for arg in node.args)
                )
                for nid, node in graph.relations.items()
            },
        )
        merged, skipped = absorb(assembler, component)
        draws.append(ComponentDraw(gcg.name, assignments, tuple(steps), merged, skipped))
    return assembler.snapshot(), GenerationProvenance(0, tuple(draws))


def outcome_graph(gcg: GammaCG, outcome) -> ConceptualGraph:
    """The gamma-CG's graph with an InstantiationOutcome's drawn labels and markers."""
    concepts = {
        node_id: ConceptNode(
            node_id,
            outcome.labels.get(node_id, node.type_id),
            outcome.markers.get(node_id, node.marker),
        )
        for node_id, node in gcg.graph.concepts.items()
    }
    relations = {
        node_id: RelationNode(node_id, outcome.labels.get(node_id, node.type_id), node.args)
        for node_id, node in gcg.graph.relations.items()
    }
    return ConceptualGraph(concepts, relations)


def recount_stats(dataset: list[ConceptualGraph]) -> dict:
    """Plain recount of NbN/NbL means and stddevs plus per-arity means."""
    nbn = []
    nbl = []
    per_arity: list[Counter] = []
    for graph in dataset:
        nbn.append(len(graph.concepts) + len(graph.relations))
        labels = set()
        counter: Counter = Counter()
        for node in graph.concepts.values():
            labels.add(node.type_id)
            if node.marker is not None:
                labels.add(node.marker)
        for node in graph.relations.values():
            labels.add(node.type_id)
            counter[len(node.args)] += 1
        nbl.append(len(labels))
        per_arity.append(counter)

    def mean(xs):
        return sum(xs) / len(xs)

    def pstdev(xs):
        m = mean(xs)
        return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5

    arities = sorted({a for counter in per_arity for a in counter})
    return {
        "cg_count": len(dataset),
        "nb_nodes_mean": mean(nbn),
        "nb_nodes_stddev": pstdev(nbn),
        "nb_labels_mean": mean(nbl),
        "nb_labels_stddev": pstdev(nbl),
        "arity_counts": {a: mean([c.get(a, 0) for c in per_arity]) for a in arities},
    }


def cg_doc(graph: ConceptualGraph) -> dict:
    """The cg document as a dict; the writer must match json.dumps(doc, indent=2)."""
    return {"formatVersion": "1.0.0", "kind": "cg", **_graph_members(graph)}


def _graph_members(graph: ConceptualGraph) -> dict:
    return {
        "concepts": [
            {"id": node.node_id, "type": node.type_id, "marker": node.marker}
            for node in sorted(graph.concepts.values(), key=lambda n: n.node_id)
        ],
        "relations": [
            {"id": node.node_id, "type": node.type_id, "args": list(node.args)}
            for node in sorted(graph.relations.values(), key=lambda n: n.node_id)
        ],
    }


def gamma_cg_doc(gcg: GammaCG) -> dict:
    return {
        "formatVersion": "1.0.0",
        "kind": "gamma-cg",
        "name": gcg.name,
        **_graph_members(gcg.graph),
        "variables": [
            {
                "name": variable.name,
                "target": {"kind": variable.target.kind, "node": variable.target.node_id},
                "domain": list(variable.domain),
            }
            for variable in gcg.variables
        ],
    }


def provenance_doc(provenances: list[GenerationProvenance]) -> dict:
    return {
        "formatVersion": "1.0.0",
        "kind": "provenance",
        "perCG": [
            {
                "index": provenance.cg_index,
                "draws": [
                    {
                        "gamma": draw.gamma_name,
                        "assignments": {name: value for name, value in draw.assignments},
                        "specialisations": {slot: steps for slot, steps in draw.specialisations},
                        "merged": [list(entry) for entry in draw.merged],
                        "skippedMerges": [list(entry) for entry in draw.skipped_merges],
                    }
                    for draw in provenance.draws
                ],
            }
            for provenance in provenances
        ],
    }


_NODE_RE = re.compile(r'^\s*"(?P<id>(?:[^"\\]|\\.)*)" \[shape=(?P<shape>box|ellipse), label="(?:[^"\\]|\\.)*"\];$')
_EDGE_RE = re.compile(r'^\s*"(?P<a>(?:[^"\\]|\\.)*)" -- "(?P<b>(?:[^"\\]|\\.)*)" \[label="(?P<pos>\d+)"\];$')


def parse_dot(text: str) -> tuple[dict[str, str], list[tuple[str, str, int]]]:
    """Structural check of the exported graph description.

    Returns (node id -> shape, edge list). Raises ValueError on any line
    that is not a valid node statement, edge statement, header or footer.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "graph cg {" or lines[-1] != "}":
        raise ValueError("missing graph header/footer")
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, int]] = []
    for line in lines[1:-1]:
        node = _NODE_RE.match(line)
        if node:
            nodes[node.group("id")] = node.group("shape")
            continue
        edge = _EDGE_RE.match(line)
        if edge:
            edges.append((edge.group("a"), edge.group("b"), int(edge.group("pos"))))
            continue
        raise ValueError(f"unparseable statement: {line!r}")
    for a, b, _ in edges:
        if a not in nodes or b not in nodes:
            raise ValueError("edge references undeclared node")
    return nodes, edges

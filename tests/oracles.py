"""Independent brute-force oracles used to cross-check library results.

Everything here works directly off the raw parent maps and node lists,
never off the library's precomputed closures or domain functions.
"""

from __future__ import annotations

import json
import random
import re
from collections import ChainMap, Counter
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


def brute_absorb(
    vocab: Vocabulary,
    concepts: dict[str, ConceptNode],
    relations: dict[str, RelationNode],
    graph: ConceptualGraph,
) -> tuple[dict[str, str], tuple[tuple[str, str], ...]]:
    """Join ``graph`` into ``concepts`` and ``relations`` in place, under its own node ids.

    Each marked concept is compared with every earlier concept carrying the
    same marker, in insertion order: it merges into the first whose type is
    comparable with its own, which keeps the lower of the two, and is added
    when there is none. Returns the merges, absorbed id to kept id, and the
    (absorbed, kept) comparisons that left the two apart.
    """
    hierarchy = vocab.concepts
    kept_ids: dict[str, str] = {}
    merged: dict[str, str] = {}
    skipped: list[tuple[str, str]] = []
    for node in graph.concepts.values():
        kept_ids[node.node_id] = node.node_id
        earlier = [
            other
            for other in concepts.values()
            if node.marker is not None and other.marker == node.marker
        ]
        for other in earlier:
            if brute_subtype(hierarchy, node.type_id, other.type_id):
                concepts[other.node_id] = other._replace(type_id=node.type_id)
            elif not brute_subtype(hierarchy, other.type_id, node.type_id):
                skipped.append((node.node_id, other.node_id))
                continue
            merged[node.node_id] = other.node_id
            kept_ids[node.node_id] = other.node_id
            break
        else:
            concepts[node.node_id] = node
    for node in graph.relations.values():
        relations[node.node_id] = node._replace(args=tuple(kept_ids[arg] for arg in node.args))
    return merged, tuple(skipped)


def fold(vocab: Vocabulary, *graphs: ConceptualGraph) -> ConceptualGraph:
    """The generator's ``_Assembler`` join of ``graphs``, in order, under their own node ids.

    The assembler numbers the nodes ``c<n>``/``r<n>`` in the order it
    absorbs them; each is given back its own id, so the ids must not collide.
    """
    assembler = _Assembler(vocab)
    concept_ids: list[str] = []
    relation_ids: list[str] = []
    for graph in graphs:
        position = {node_id: index for index, node_id in enumerate(graph.concepts)}
        relations = [
            (
                node.node_id,
                node.type_id,
                lambda kept, at=[position[arg] for arg in node.args]: tuple(kept[i] for i in at),
            )
            for node in graph.relations.values()
        ]
        assembler.absorb((tuple(graph.concepts.values()), relations), {}, {})
        concept_ids.extend(graph.concepts)
        relation_ids.extend(graph.relations)
    own = {f"c{n}": node_id for n, node_id in enumerate(concept_ids)}
    own.update((f"r{n}", node_id) for n, node_id in enumerate(relation_ids))
    joined = assembler.snapshot()
    return ConceptualGraph(
        {own[n]: node._replace(node_id=own[n]) for n, node in joined.concepts.items()},
        {
            own[n]: RelationNode(own[n], node.type_id, tuple(own[arg] for arg in node.args))
            for n, node in joined.relations.items()
        },
    )


def arity_of(vocab: Vocabulary, relation_type: str) -> int:
    for arity, hierarchy in vocab.relations.items():
        if relation_type in hierarchy.labels:
            return arity
    raise KeyError(relation_type)


def _brute_relation_test(vocab, relation, concept_types, open_concepts):
    """``brute_instantiate``'s test of a type for the relation node ``relation``.

    Its arguments take ``concept_types``; one in ``open_concepts`` admits any restriction.
    """
    same_arity = vocab.relation_hierarchy(relation.type_id).labels
    arg_types = [None if arg in open_concepts else concept_types[arg] for arg in relation.args]
    return lambda candidate: candidate in same_arity and _brute_signature_admits(
        vocab, candidate, arg_types
    )


def _brute_concept_test(vocab, graph, node_id, relation_types, registry, marker_id):
    """``brute_instantiate``'s test of a type for concept ``node_id``.

    Each incident relation in ``relation_types`` bounds it by its restriction,
    and the marker ``marker_id`` (unless None) by its type in ``registry``.
    """
    constraints = [
        restriction_for(vocab, relation_types[rel_id], position)
        for rel_id, position in brute_incidences(graph, node_id)
        if rel_id in relation_types
    ]
    if marker_id is not None:
        marker = registry.get(marker_id)
        if marker is None:
            raise UnknownIdentifierError(f"marker {marker_id!r} not in vocabulary")
        constraints.append(marker.type_id)
    return lambda candidate: candidate in vocab.concepts.labels and all(
        brute_subtype(vocab.concepts, candidate, c) for c in constraints
    )


def _brute_marker_test(vocab, registry, node_type):
    """``brute_instantiate``'s test of a marker for a node of ``node_type``."""
    return lambda candidate: candidate in registry and brute_subtype(
        vocab.concepts, node_type, registry[candidate].type_id
    )


def _variables_on(gcg: GammaCG, kind: str) -> dict:
    """The gamma-CG's variables of ``kind`` by target node id."""
    return {v.target.node_id: v for v in gcg.variables if v.target.kind == kind}


def brute_relation_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Relation types the first draw step tests admissible for the node."""
    graph = gcg.graph
    test = _brute_relation_test(
        vocab,
        graph.relations[node_id],
        {nid: node.type_id for nid, node in graph.concepts.items()},
        _variables_on(gcg, TARGET_CONCEPT_TYPE),
    )
    return {c for h in vocab.relations.values() for c in h.labels if test(c)}


def brute_concept_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Concept types the draw tests admissible under every bound no earlier draw changes."""
    graph = gcg.graph
    redrawn = _variables_on(gcg, TARGET_RELATION_TYPE)
    relation_types = {
        rel_id: node.type_id for rel_id, node in graph.relations.items() if rel_id not in redrawn
    }
    marker_id = graph.concepts[node_id].marker
    if node_id in _variables_on(gcg, TARGET_MARKER):
        marker_id = None
    test = _brute_concept_test(vocab, graph, node_id, relation_types, vocab.markers, marker_id)
    return {c for c in vocab.concepts.labels if test(c)}


def brute_marker_domain(vocab: Vocabulary, gcg: GammaCG, node_id: str) -> set[str]:
    """Markers the draw tests admissible for the node's type or an admissible concept value."""
    node_types = [gcg.graph.concepts[node_id].type_id]
    concept_variable = _variables_on(gcg, TARGET_CONCEPT_TYPE).get(node_id)
    if concept_variable is not None:
        admissible = brute_concept_domain(vocab, gcg, node_id)
        node_types += [t for t in concept_variable.domain if t in admissible]
    tests = [_brute_marker_test(vocab, vocab.markers, node_type) for node_type in node_types]
    return {marker_id for marker_id in vocab.markers if any(test(marker_id) for test in tests)}


def brute_carriers(
    vocab: Vocabulary, markers: Mapping[str, Marker], concept_type: str
) -> tuple[str, ...]:
    """Markers a concept of ``concept_type`` may carry (type >= it), sorted by id."""
    return tuple(
        sorted(
            marker_id
            for marker_id, marker in markers.items()
            if brute_subtype(vocab.concepts, concept_type, marker.type_id)
        )
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
) -> tuple[ConceptualGraph, dict[str, str], tuple[tuple[str, str], ...]]:
    """One draw filtering every stored domain in full, with checked lookups.

    The draw as it was before gamma-CGs were compiled into draw plans:
    returns the instantiated graph, the assignments (variable name to value,
    in draw order) and the type slots.
    """
    concept_types = {nid: node.type_id for nid, node in gcg.graph.concepts.items()}
    concept_markers = {nid: node.marker for nid, node in gcg.graph.concepts.items()}
    relation_types = {nid: node.type_id for nid, node in gcg.graph.relations.items()}
    # The registered markers and, live, those the mint adds.
    marker_registry = ChainMap(mint.minted, vocab.markers)

    relation_vars = [v for v in gcg.variables if v.target.kind == TARGET_RELATION_TYPE]
    concept_vars = [v for v in gcg.variables if v.target.kind == TARGET_CONCEPT_TYPE]
    marker_vars = [v for v in gcg.variables if v.target.kind == TARGET_MARKER]
    pending_marker_nodes = {v.target.node_id for v in marker_vars}
    pending_concept_nodes = {v.target.node_id for v in concept_vars}

    assignments: dict[str, str] = {}
    type_slots: list[tuple[str, str]] = []

    for variable in relation_vars:
        node_id = variable.target.node_id
        test = _brute_relation_test(
            vocab, gcg.graph.relations[node_id], concept_types, pending_concept_nodes
        )
        effective = [candidate for candidate in variable.domain if test(candidate)]
        if not effective:
            raise InstantiationError(
                f"variable {variable.name!r} of {gcg.name!r} has no admissible relation type"
            )
        choice = effective[rng.randrange(len(effective))]
        relation_types[node_id] = choice
        assignments[variable.name] = choice
        type_slots.append((TARGET_RELATION_TYPE, node_id))

    for variable in concept_vars:
        node_id = variable.target.node_id
        marker_id = concept_markers[node_id]
        if node_id in pending_marker_nodes:
            marker_id = None
        test = _brute_concept_test(
            vocab, gcg.graph, node_id, relation_types, marker_registry, marker_id
        )
        effective = [candidate for candidate in variable.domain if test(candidate)]
        if not effective:
            raise InstantiationError(
                f"variable {variable.name!r} of {gcg.name!r} has no admissible concept type"
            )
        choice = effective[rng.randrange(len(effective))]
        concept_types[node_id] = choice
        assignments[variable.name] = choice
        type_slots.append((TARGET_CONCEPT_TYPE, node_id))

    for variable in marker_vars:
        node_id = variable.target.node_id
        node_type = concept_types[node_id]
        test = _brute_marker_test(vocab, marker_registry, node_type)
        effective = [candidate for candidate in variable.domain if test(candidate)]
        if effective:
            choice = effective[rng.randrange(len(effective))]
        else:
            choice = mint.mint(node_type)
        concept_markers[node_id] = choice
        assignments[variable.name] = choice

    concepts = {
        nid: ConceptNode(nid, concept_types[nid], concept_markers[nid])
        for nid in gcg.graph.concepts
    }
    relations = {
        nid: RelationNode(nid, relation_types[nid], node.args)
        for nid, node in gcg.graph.relations.items()
    }
    return ConceptualGraph(concepts, relations), assignments, tuple(type_slots)


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
    node id through a dict to the next ``c<i>``/``r<j>`` and joins the
    component in with ``brute_absorb``, not the generator's assembler. A
    gamma-CG that fails INSTANTIATION_RETRIES times is set aside for the CG.
    """
    concepts: dict[str, ConceptNode] = {}
    relations: dict[str, RelationNode] = {}
    next_concept = next_relation = 0
    draws: list[ComponentDraw] = []
    failures = [0] * len(gammas)
    skipped_gammas: set[int] = set()
    while len(concepts) + len(relations) < config.min_size:
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
        steps: dict[str, int] = {}
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
            steps[f"{kind}:{node_id}"] = taken
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
        merged, skipped = brute_absorb(vocab, concepts, relations, component)
        draws.append(ComponentDraw(gcg.name, assignments, steps, merged, skipped))
    return ConceptualGraph(concepts, relations), GenerationProvenance(tuple(draws))


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


def vocabulary_doc(vocab: Vocabulary) -> dict:
    """The vocabulary document as a dict; the writer must match json.dumps(doc) + "\\n"."""

    def hierarchy(h: TypeHierarchy, signed: bool) -> dict:
        types = []
        for type_id, label in sorted(h.labels.items(), key=lambda item: item[1]):
            entry = {"id": type_id, "label": label, "parents": sorted(h.parents[type_id])}
            if signed:
                entry["signature"] = list(vocab.signatures[type_id].restrictions)
            types.append(entry)
        return {"root": h.root, "types": types}

    return {
        "formatVersion": "3.0.0",
        "kind": "vocabulary",
        "conceptTypes": hierarchy(vocab.concepts, False),
        "relationTypes": [
            {"arity": arity, **hierarchy(vocab.relations[arity], True)}
            for arity in sorted(vocab.relations)
        ],
        "markers": [
            {"id": marker_id, "type": vocab.markers[marker_id].type_id}
            for marker_id in sorted(vocab.markers)
        ],
    }


def cg_doc(graph: ConceptualGraph) -> dict:
    """The cg document as a dict; the writer must match json.dumps(doc) + "\\n"."""
    return {"formatVersion": "3.0.0", "kind": "cg", **_graph_members(graph)}


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
        "formatVersion": "3.0.0",
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


def _kept_by_absorbed(pairs) -> dict:
    """Each absorbed node of (absorbed, kept) pairs with its kept nodes, in order."""
    kept: dict = {}
    for other, kept_id in pairs:
        kept.setdefault(other, []).append(kept_id)
    return kept


def derivations_text(provenances: list[GenerationProvenance]) -> str:
    """The derivations file of a dataset: its header, then one line per CG, by json.dumps."""
    lines = [{"formatVersion": "3.0.0", "kind": "derivations"}]
    for provenance in provenances:
        draws = [
            {
                "gamma": draw.gamma_name,
                "assignments": draw.assignments,
                "specialisations": draw.specialisations,
                "merged": draw.merged,
                "skippedMerges": _kept_by_absorbed(draw.skipped_merges),
            }
            for draw in provenance.draws
        ]
        lines.append({"draws": draws})
    return "".join(json.dumps(line) + "\n" for line in lines)


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

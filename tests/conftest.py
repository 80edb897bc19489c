import random

import pytest

from cggen import (
    CONCEPT,
    RELATION,
    AutoVarConfig,
    AutoVocConfig,
    ConceptNode,
    ConceptualGraph,
    GammaCG,
    GeneratorConfig,
    Marker,
    MarkerMint,
    ParamSpec,
    RelationNode,
    Signature,
    TypeHierarchy,
    Vocabulary,
    auto_variables,
    auto_vocabulary,
    derive_rng,
)
from oracles import brute_absorb

META_SEED = 20260808


def make_hierarchy(kind, root, edges, arity=None):
    """Hierarchy from (child, parent) pairs; labels equal ids."""
    nodes = {root} | {n for pair in edges for n in pair}
    parents = {n: tuple(sorted(p for c, p in edges if c == n)) for n in nodes}
    parents[root] = ()
    return TypeHierarchy(kind, root, {n: n for n in nodes}, parents, arity=arity)


@pytest.fixture(scope="session")
def tiny_vocab():
    """Small hand-built vocabulary used by most unit tests."""
    concepts = make_hierarchy(
        CONCEPT,
        "Top",
        [
            ("Entity", "Top"),
            ("Act", "Top"),
            ("Person", "Entity"),
            ("Place", "Entity"),
            ("Student", "Person"),
        ],
    )
    unary = make_hierarchy(RELATION, "T1", [("state", "T1")], arity=1)
    binary = make_hierarchy(
        RELATION,
        "T2",
        [("locatedIn", "T2"), ("knows", "T2"), ("attends", "knows")],
        arity=2,
    )
    ternary = make_hierarchy(RELATION, "T3", [("gives", "T3")], arity=3)
    signatures = {
        "T1": Signature("T1", ("Top",)),
        "state": Signature("state", ("Entity",)),
        "T2": Signature("T2", ("Top", "Top")),
        "locatedIn": Signature("locatedIn", ("Entity", "Place")),
        "knows": Signature("knows", ("Person", "Person")),
        "attends": Signature("attends", ("Student", "Person")),
        "T3": Signature("T3", ("Top", "Top", "Top")),
        "gives": Signature("gives", ("Person", "Entity", "Person")),
    }
    markers = {
        m.marker_id: m
        for m in [
            Marker("alice", "Person"),
            Marker("bob", "Person"),
            Marker("carol", "Student"),
            Marker("home", "Place"),
            Marker("rex", "Entity"),
            Marker("thing", "Top"),
        ]
    }
    return Vocabulary(concepts, {1: unary, 2: binary, 3: ternary}, signatures, markers)


@pytest.fixture
def mint(tiny_vocab):
    """A fresh marker mint over tiny_vocab, for instantiate and DrawPlan.draw."""
    return MarkerMint(tiny_vocab, "test")


def random_dag_hierarchy(rng, n_nodes):
    """Random DAG: node i picks 1-2 parents among earlier nodes."""
    nodes = [f"t{i}" for i in range(n_nodes)]
    parents = {"t0": ()}
    for i in range(1, n_nodes):
        count = min(i, rng.randint(1, 2))
        parents[nodes[i]] = tuple(sorted(rng.sample(nodes[:i], count)))
    return TypeHierarchy(CONCEPT, "t0", {n: n for n in nodes}, parents)


def admissible_markers(vocab, concept_type):
    up = vocab.concepts.up[concept_type]
    return sorted(
        marker_id for marker_id, marker in vocab.markers.items() if marker.type_id in up
    )


def build_component(vocab, relation_type, rng, concept_start, relation_index):
    """One relation node plus freshly typed, marked concept arguments."""
    signature = vocab.signature_of(relation_type)
    concepts = {}
    args = []
    for position, restriction in enumerate(signature.restrictions):
        pool = sorted(vocab.concepts.down[restriction])
        concept_type = pool[rng.randrange(len(pool))]
        markers = admissible_markers(vocab, concept_type)
        marker = markers[rng.randrange(len(markers))] if markers else None
        node_id = f"n{concept_start + position}"
        concepts[node_id] = ConceptNode(node_id, concept_type, marker)
        args.append(node_id)
    rel_id = f"e{relation_index}"
    return ConceptualGraph(
        concepts, {rel_id: RelationNode(rel_id, relation_type, tuple(args))}
    )


def build_reference_gammas(vocab, rng, count=8, min_size=8, binary_share=0.9):
    """Arity-2-dominant gamma-CG set over a vocabulary with markers.

    Mirrors a translation-shaped base: mostly binary relation nodes chained
    through shared markers, with occasional arity-1/arity-3 components.
    """
    by_arity = {
        arity: vocab.relations[arity].type_ids() for arity in sorted(vocab.relations)
    }
    others = [t for arity, ids in by_arity.items() if arity != 2 for t in ids]
    gammas = []
    for index in range(count):
        concepts, relations = {}, {}
        concept_counter = 0
        relation_counter = 0
        while len(concepts) + len(relations) < min_size:
            if by_arity.get(2) and (rng.random() < binary_share or not others):
                pool = by_arity[2]
            else:
                pool = others
            relation_type = pool[rng.randrange(len(pool))]
            component = build_component(
                vocab, relation_type, rng, concept_counter, relation_counter
            )
            concept_counter += len(component.concepts)
            relation_counter += 1
            brute_absorb(vocab, concepts, relations, component)
        gammas.append(GammaCG(f"ref-{index}", ConceptualGraph(concepts, relations)))
    return gammas


REFERENCE_VOC_CONFIG = AutoVocConfig(
    concept_depth=ParamSpec.fixed(5),
    relation_depth=ParamSpec.fixed(4),
    max_children=ParamSpec.fixed(3),
    markers_per_type=ParamSpec.fixed(3),
    arities=(1, 2, 3),
)

REFERENCE_VAR_CONFIG = AutoVarConfig(
    concept_vars=ParamSpec.fixed(2),
    relation_vars=ParamSpec.fixed(1),
    marker_vars=ParamSpec.fixed(1),
    values_per_variable=ParamSpec.fixed(4),
    specialisations=ParamSpec.fixed(3),
)


@pytest.fixture(scope="session")
def reference_fixture():
    """Pinned vocabulary + arity-2-dominant gamma set at benchmark scale."""
    vocab = auto_vocabulary(REFERENCE_VOC_CONFIG, derive_rng(META_SEED, "ref-voc"))
    gammas = build_reference_gammas(vocab, derive_rng(META_SEED, "ref-gcg"))
    result = auto_variables(
        vocab, gammas, REFERENCE_VAR_CONFIG, derive_rng(META_SEED, "ref-var")
    )
    config = GeneratorConfig(max_cgs=100, min_size=30, max_spe=3, seed=META_SEED)
    return vocab, list(result.gammas), config


def fresh_rng(*parts) -> random.Random:
    return derive_rng(META_SEED, *parts)

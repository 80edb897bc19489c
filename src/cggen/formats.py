"""Canonical JSON documents for vocabularies, gamma-CGs, CGs and datasets.

Every document embeds a formatVersion; loaders reject unknown major
versions. Saves order types by label, markers by id and nodes by id, so
saving the same value twice produces identical bytes. Generic concept nodes
serialize their marker as an explicit null. Edge positions are 0-based in
documents, diagnostics and DOT labels alike.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    CONCEPT,
    RELATION,
    ConceptNode,
    ConceptualGraph,
    Marker,
    RelationNode,
    Signature,
    TypeHierarchy,
    Vocabulary,
)
from .errors import FormatError, StructureError, VocabularyError
from .gamma import GammaCG, Variable, VariableTarget
from .generator import ComponentDraw, DatasetResult, GenerationProvenance, GeneratorConfig
from .metrics import DatasetStats

FORMAT_VERSION = "1.0.0"

VOCABULARY_FILE = "vocabulary.json"
GAMMA_DIR = "gamma"
DATASET_DIR = "dataset"
MANIFEST_FILE = "manifest.json"
PROVENANCE_FILE = "provenance.json"


def _dump(path: Path, document: dict[str, Any]) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


# The CG, gamma-CG and provenance writers emit the layout of
# json.dumps(document, indent=2) + "\n" directly: every scalar goes through
# the C string encoder, every node or draw through one %-template. This is
# several times faster than json.dumps with an indent, which always runs the
# pure-Python encoder. They stream a document node by node and draw by draw,
# so no writer holds the whole text of a CG or of its provenance.
# docs/formats.md states the layout.
_enc = json.encoder.encode_basestring_ascii
_int = int.__repr__

_CONCEPT = '{\n      "id": %s,\n      "type": %s,\n      "marker": %s\n    }'
_RELATION = '{\n      "id": %s,\n      "type": %s,\n      "args": %s\n    }'
_VARIABLE = (
    '{\n      "name": %s,\n      "target": {\n        "kind": %s,\n        "node": %s\n'
    '      },\n      "domain": %s\n    }'
)
_CG_ENTRY = '{\n      "index": %s,\n      "draws": '
_DRAW = (
    '{\n          "gamma": %s,\n          "assignments": %s,\n'
    '          "specialisations": %s,\n          "merged": %s,\n'
    '          "skippedMerges": %s\n        }'
)


def _write(path: Path, kind: str, members: Iterable[str]) -> None:
    """Write a document: the header, then the text of its other top-level members."""
    header = '{\n  "formatVersion": %s,\n  "kind": %s,\n' % (_enc(FORMAT_VERSION), _enc(kind))
    with path.open("w", encoding="utf-8") as handle:
        handle.write(header)
        handle.writelines(members)
        handle.write("\n}\n")


def _array(items: Sequence[str], depth: int) -> str:
    """A JSON array of encoded items whose own lines are laid out for depth + 1."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _stream(items: Iterable[str], depth: int) -> Iterator[str]:
    """``_array(list(items), depth)``, one item at a time.

    ``_array`` keeps its own body: built as a join of this generator, the
    ~10k ``_triples`` calls of a large-cg provenance took about 14% longer.
    """
    inner = "\n" + "  " * (depth + 1)
    separator = "[" + inner
    for item in items:
        yield separator + item
        separator = "," + inner
    yield "[]" if separator[0] == "[" else "\n" + "  " * depth + "]"


_BY_ID = itemgetter(0)


@functools.cache
def _relation_template(arity: int) -> str:
    """The %-template of a relation node whose ``args`` holds ``arity`` items."""
    return _RELATION % ("%s", "%s", _array(["%s"] * arity, 3))


_MEMBER = "%s: %s".__mod__


def _object(pairs: Sequence[tuple[str, Any]], encode: Callable[[Any], str], depth: int) -> str:
    """A JSON object from (key, value) pairs, each value through ``encode``.

    A repeated key keeps its last value.
    """
    if not pairs:
        return "{}"
    mapping = dict(pairs)
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(map(_MEMBER, zip(map(_enc, mapping), map(encode, mapping.values()))))
    return "{" + inner + body + "\n" + "  " * depth + "}"


_ENTRY_INNER = ",\n" + "  " * 7
_ENTRY_OPEN = "[\n" + "  " * 7
_ENTRY_CLOSE = "\n" + "  " * 6 + "]"


def _triples(entries: Sequence[tuple[str, ...]]) -> str:
    """The "merged" or "skippedMerges" member value of a provenance draw.

    Each entry is laid out as ``_array(..., 6)`` would, with one join.
    """
    return _array(
        [
            _ENTRY_OPEN + _ENTRY_INNER.join(map(_enc, entry)) + _ENTRY_CLOSE if entry else "[]"
            for entry in entries
        ],
        5,
    )


def _parse(path: Path) -> dict[str, Any]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except RecursionError:
        raise FormatError(f"{path}: nested too deeply to read")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}")
    if not isinstance(document, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    return document


def _check_header(document: dict[str, Any], path: Path, kind: str) -> None:
    version = document.get("formatVersion")
    if not isinstance(version, str):
        raise FormatError(f"{path}: missing formatVersion")
    major = version.split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if major != ours:
        raise FormatError(f"{path}: unsupported major version {version!r}")
    if document.get("kind") != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, found {document.get('kind')!r}")


_NUMBER = (int, float)


def _field(
    document: dict[str, Any],
    key: str,
    expected: type | tuple[type, ...],
    path: Path,
    where: str = "",
) -> Any:
    if key in document:
        value = document[key]
        # JSON true and false are ints to isinstance; no field accepts them.
        if isinstance(value, expected) and type(value) is not bool:
            return value
    context = f"{where}." if where else ""
    if key not in document:
        raise FormatError(f"{path}: missing field {context}{key}")
    names = expected if isinstance(expected, tuple) else (expected,)
    raise FormatError(
        f"{path}: field {context}{key} must be {' or '.join(t.__name__ for t in names)}, "
        f"found {type(value).__name__}"
    )


def _list_of(value: list[Any], expected: type, path: Path, where: str) -> list[Any]:
    """``value`` itself, once every item is checked to be an ``expected``."""
    for index, item in enumerate(value):
        if not isinstance(item, expected):
            raise FormatError(
                f"{path}: {where}[{index}] must be {expected.__name__}, "
                f"found {type(item).__name__}"
            )
    return value


def _hierarchy_doc(hierarchy: TypeHierarchy, signatures: dict[str, Signature] | None) -> dict[str, Any]:
    types = []
    for type_id in sorted(hierarchy.labels, key=lambda t: hierarchy.labels[t]):
        entry: dict[str, Any] = {
            "id": type_id,
            "label": hierarchy.labels[type_id],
            "parents": sorted(hierarchy.parents[type_id]),
        }
        if signatures is not None:
            entry["signature"] = list(signatures[type_id].restrictions)
        types.append(entry)
    return {"root": hierarchy.root, "types": types}


def save_vocabulary(path: "str | Path", vocab: Vocabulary) -> None:
    document = {
        "formatVersion": FORMAT_VERSION,
        "kind": "vocabulary",
        "conceptTypes": _hierarchy_doc(vocab.concepts, None),
        "relationTypes": [
            {"arity": arity, **_hierarchy_doc(vocab.relations[arity], vocab.signatures)}
            for arity in sorted(vocab.relations)
        ],
        "markers": [
            {"id": marker.marker_id, "type": marker.type_id}
            for marker in sorted(vocab.markers.values(), key=lambda m: m.marker_id)
        ],
    }
    _dump(Path(path), document)


def _load_hierarchy(
    entry: dict[str, Any], kind: str, arity: int | None, path: Path, where: str
) -> tuple[TypeHierarchy, dict[str, Signature]]:
    root = _field(entry, "root", str, path, where)
    types = _field(entry, "types", list, path, where)
    labels: dict[str, str] = {}
    parents: dict[str, tuple[str, ...]] = {}
    signatures: dict[str, Signature] = {}
    for index, raw in enumerate(types):
        spot = f"{where}.types[{index}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: {spot} must be an object")
        type_id = _field(raw, "id", str, path, spot)
        if type_id in labels:
            raise FormatError(f"{path}: duplicate type id {type_id!r} in {where}")
        labels[type_id] = _field(raw, "label", str, path, spot)
        parent_ids = _field(raw, "parents", list, path, spot)
        parents[type_id] = tuple(_list_of(parent_ids, str, path, f"{spot}.parents"))
        if kind == RELATION:
            restrictions = _field(raw, "signature", list, path, spot)
            _list_of(restrictions, str, path, f"{spot}.signature")
            if arity is not None and len(restrictions) != arity:
                raise VocabularyError(
                    f"{path}: {spot}.signature has {len(restrictions)} entries for arity {arity}"
                )
            signatures[type_id] = Signature(type_id, tuple(restrictions))
    try:
        hierarchy = TypeHierarchy(kind, root, labels, parents, arity=arity)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {where}: {exc}") from exc
    return hierarchy, signatures


def load_vocabulary(path: "str | Path") -> Vocabulary:
    path = Path(path)
    document = _parse(path)
    _check_header(document, path, "vocabulary")
    concepts, _ = _load_hierarchy(
        _field(document, "conceptTypes", dict, path), CONCEPT, None, path, "conceptTypes"
    )
    relations: dict[int, TypeHierarchy] = {}
    signatures: dict[str, Signature] = {}
    for index, entry in enumerate(_field(document, "relationTypes", list, path)):
        where = f"relationTypes[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        arity = _field(entry, "arity", int, path, where)
        hierarchy, sigs = _load_hierarchy(entry, RELATION, arity, path, where)
        if arity in relations:
            raise FormatError(f"{path}: duplicate relation hierarchy for arity {arity}")
        relations[arity] = hierarchy
        signatures.update(sigs)
    markers: dict[str, Marker] = {}
    for index, entry in enumerate(_field(document, "markers", list, path)):
        where = f"markers[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        marker_id = _field(entry, "id", str, path, where)
        if marker_id in markers:
            raise FormatError(f"{path}: duplicate marker id {marker_id!r}")
        markers[marker_id] = Marker(marker_id, _field(entry, "type", str, path, where))
    try:
        return Vocabulary(concepts, relations, signatures, markers)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {exc}") from exc


def _graph_fields(graph: ConceptualGraph) -> Iterator[str]:
    """The "concepts" and "relations" members of a cg or gamma-cg document, node by node."""
    yield '  "concepts": '
    yield from _stream(
        (
            _CONCEPT % (_enc(node_id), _enc(type_id), "null" if marker is None else _enc(marker))
            for node_id, type_id, marker in sorted(graph.concepts.values(), key=_BY_ID)
        ),
        1,
    )
    yield ',\n  "relations": '
    yield from _stream(
        (
            _relation_template(len(args)) % (_enc(node_id), _enc(type_id), *map(_enc, args))
            for node_id, type_id, args in sorted(graph.relations.values(), key=_BY_ID)
        ),
        1,
    )


# The CG, gamma-CG and provenance loaders check a document one column at a
# time: each field of every entry is pulled into a list, and the item types
# of a list are checked with one set comparison. Only when that bulk check
# fails does the per-entry check run, to find the first bad entry and raise
# the error naming it. A valid document so pays the checking overhead once
# per column, not once per field of every entry, and a malformed one gets
# the same diagnostic as from a check of one entry at a time.
def _raise_first_malformed_node(entries: list[Any], key: str, path: Path) -> None:
    """Raise the error of the first malformed entry of a graph's ``key`` list."""
    for index, entry in enumerate(entries):
        where = f"{key}[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        _field(entry, "id", str, path, where)
        if key == "concepts":
            marker = entry.get("marker")
            if marker is not None and not isinstance(marker, str):
                raise FormatError(f"{path}: {where}.marker must be a string or null")
        else:
            _field(entry, "args", list, path, where)
        _field(entry, "type", str, path, where)


def _require_unique(ids: list[str], nodes: dict[str, Any], key: str, path: Path) -> None:
    if len(nodes) != len(ids):
        seen: set[str] = set()
        for index, node_id in enumerate(ids):
            if node_id in seen:
                raise FormatError(f"{path}: duplicate node id {node_id!r} at {key}[{index}].id")
            seen.add(node_id)


def _load_graph(document: dict[str, Any], path: Path) -> ConceptualGraph:
    entries = _field(document, "concepts", list, path)
    try:
        ids = [entry["id"] for entry in entries]
        types = [entry["type"] for entry in entries]
        markers = [entry.get("marker") for entry in entries]  # a missing marker is generic
        valid = (
            {str}.issuperset(map(type, chain(ids, types)))
            and {str, type(None)}.issuperset(map(type, markers))
        )
    except (KeyError, TypeError):
        valid = False
    if not valid:
        _raise_first_malformed_node(entries, "concepts", path)
    concepts = dict(zip(ids, map(ConceptNode, ids, types, markers)))
    _require_unique(ids, concepts, "concepts", path)

    entries = _field(document, "relations", list, path)
    try:
        ids = [entry["id"] for entry in entries]
        types = [entry["type"] for entry in entries]
        args = [entry["args"] for entry in entries]
        valid = (
            {str}.issuperset(map(type, chain(ids, types)))
            and {list}.issuperset(map(type, args))
        )
    except (KeyError, TypeError):
        valid = False
    if not valid:
        _raise_first_malformed_node(entries, "relations", path)
    relations = dict(zip(ids, map(RelationNode, ids, types, map(tuple, args))))
    _require_unique(ids, relations, "relations", path)
    try:
        return ConceptualGraph(concepts, relations)
    except (StructureError, TypeError) as exc:
        # A missing concept, or an unhashable argument, may be an argument
        # that is not a string: look for one only now, so loading a valid
        # graph never pays for a per-argument type check.
        for index, entry in enumerate(entries):
            _list_of(entry["args"], str, path, f"relations[{index}].args")
        if isinstance(exc, TypeError):
            raise
        raise StructureError(f"{path}: {exc}") from exc


def save_cg(path: "str | Path", graph: ConceptualGraph) -> None:
    _write(Path(path), "cg", _graph_fields(graph))


def load_cg(path: "str | Path") -> ConceptualGraph:
    path = Path(path)
    document = _parse(path)
    _check_header(document, path, "cg")
    return _load_graph(document, path)


def save_gamma_cg(path: "str | Path", gcg: GammaCG) -> None:
    variables = (
        _VARIABLE
        % (
            _enc(variable.name),
            _enc(variable.target.kind),
            _enc(variable.target.node_id),
            _array([_enc(value) for value in variable.domain], 3),
        )
        for variable in gcg.variables
    )
    members = chain(
        ('  "name": %s,\n' % _enc(gcg.name),),
        _graph_fields(gcg.graph),
        (',\n  "variables": ',),
        _stream(variables, 1),
    )
    _write(Path(path), "gamma-cg", members)


def load_gamma_cg(path: "str | Path") -> GammaCG:
    path = Path(path)
    document = _parse(path)
    _check_header(document, path, "gamma-cg")
    graph = _load_graph(document, path)
    variables: list[Variable] = []
    for index, entry in enumerate(_field(document, "variables", list, path)):
        where = f"variables[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        target = _field(entry, "target", dict, path, where)
        domain = _field(entry, "domain", list, path, where)
        _list_of(domain, str, path, f"{where}.domain")
        try:
            variables.append(
                Variable(
                    _field(entry, "name", str, path, where),
                    VariableTarget(
                        _field(target, "kind", str, path, f"{where}.target"),
                        _field(target, "node", str, path, f"{where}.target"),
                    ),
                    tuple(domain),
                )
            )
        except StructureError as exc:
            raise StructureError(f"{path}: {where}: {exc}") from exc
    try:
        return GammaCG(_field(document, "name", str, path), graph, tuple(variables))
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def _stats_doc(stats: DatasetStats) -> dict[str, Any]:
    return {
        "cgCount": stats.cg_count,
        "nbNodes": {"mean": stats.nb_nodes_mean, "stddev": stats.nb_nodes_stddev},
        "nbLabels": {"mean": stats.nb_labels_mean, "stddev": stats.nb_labels_stddev},
        "arityCounts": {str(a): mean for a, mean in sorted(stats.arity_counts.items())},
    }


def _load_stats(document: dict[str, Any], path: Path) -> DatasetStats:
    nodes = _field(document, "nbNodes", dict, path, "stats")
    labels = _field(document, "nbLabels", dict, path, "stats")
    arity = _field(document, "arityCounts", dict, path, "stats")
    arity_counts: dict[int, float] = {}
    for key in arity:
        if not key.isdecimal():
            raise FormatError(f"{path}: stats.arityCounts key {key!r} must be an arity")
        arity_counts[int(key)] = float(_field(arity, key, _NUMBER, path, "stats.arityCounts"))
    return DatasetStats(
        cg_count=_field(document, "cgCount", int, path, "stats"),
        nb_nodes_mean=float(_field(nodes, "mean", _NUMBER, path, "stats.nbNodes")),
        nb_nodes_stddev=float(_field(nodes, "stddev", _NUMBER, path, "stats.nbNodes")),
        nb_labels_mean=float(_field(labels, "mean", _NUMBER, path, "stats.nbLabels")),
        nb_labels_stddev=float(_field(labels, "stddev", _NUMBER, path, "stats.nbLabels")),
        arity_counts=arity_counts,
    )


def _config_doc(config: GeneratorConfig) -> dict[str, Any]:
    return {
        "maxCGs": config.max_cgs,
        "minSize": config.min_size,
        "maxSpe": config.max_spe,
        "seed": config.seed,
        # Always this value; kept so that the manifest format stays the same.
        "relationDomainPolicy": "signature-compatible",
    }


def _provenance_members(provenances: Sequence[GenerationProvenance]) -> Iterator[str]:
    """The "perCG" member, draw by draw, so the whole text is never held at once."""
    separator = "[\n    "
    yield '  "perCG": '
    for provenance in provenances:
        yield separator + _CG_ENTRY % _int(provenance.cg_index)
        yield from _stream(
            (
                _DRAW
                % (
                    _enc(draw.gamma_name),
                    _object(draw.assignments, _enc, 5),
                    _object(draw.specialisations, _int, 5),
                    _triples(draw.merged),
                    _triples(draw.skipped_merges),
                )
                for draw in provenance.draws
            ),
            3,
        )
        yield "\n    }"
        separator = ",\n    "
    yield "\n  ]" if provenances else "[]"


def _raise_first_malformed_draw(draws: list[Any], path: Path, where: str) -> None:
    """Raise the error of the first malformed draw of a perCG entry."""
    for number, draw in enumerate(draws):
        spot = f"{where}.draws[{number}]"
        if not isinstance(draw, dict):
            raise FormatError(f"{path}: {spot} must be an object")
        _field(draw, "gamma", str, path, spot)
        for name, value in _field(draw, "assignments", dict, path, spot).items():
            if not isinstance(value, str):
                raise FormatError(
                    f"{path}: field {spot}.assignments.{name} must be str, "
                    f"found {type(value).__name__}"
                )
        for slot, steps in _field(draw, "specialisations", dict, path, spot).items():
            if type(steps) is not int:
                raise FormatError(
                    f"{path}: field {spot}.specialisations.{slot} must be int, "
                    f"found {type(steps).__name__}"
                )
        for key in ("merged", "skippedMerges"):
            _list_of(_field(draw, key, list, path, spot), list, path, f"{spot}.{key}")


_DRAW_FIELDS = itemgetter("gamma", "assignments", "specialisations", "merged", "skippedMerges")


def _tuples(entries: list[list[str]]) -> tuple[tuple[str, ...], ...]:
    return tuple(map(tuple, entries))


def _load_draws(draws: list[Any], path: Path, where: str) -> tuple[ComponentDraw, ...]:
    """The draws of one perCG entry."""
    try:
        columns = tuple(zip(*map(_DRAW_FIELDS, draws))) or ((),) * 5
        gammas, assignments, specialisations, merged, skipped = columns
        valid = (
            {str}.issuperset(map(type, gammas))
            and {dict}.issuperset(map(type, assignments + specialisations))
            and {str}.issuperset(map(type, chain.from_iterable(map(dict.values, assignments))))
            # Exactly int: JSON true and false are ints to isinstance.
            and {int}.issuperset(map(type, chain.from_iterable(map(dict.values, specialisations))))
            and {list}.issuperset(map(type, merged + skipped))
            and {list}.issuperset(map(type, chain.from_iterable(merged + skipped)))
        )
    except (KeyError, TypeError):
        valid = False
    if not valid:
        _raise_first_malformed_draw(draws, path, where)
    return tuple(
        map(
            ComponentDraw,
            gammas,
            map(tuple, map(dict.items, assignments)),
            map(tuple, map(dict.items, specialisations)),
            map(_tuples, merged),
            map(_tuples, skipped),
        )
    )


def _load_provenance(path: Path) -> tuple[GenerationProvenance, ...]:
    document = _parse(path)
    _check_header(document, path, "provenance")
    loaded = []
    for index, entry in enumerate(_field(document, "perCG", list, path)):
        where = f"perCG[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        cg_index = _field(entry, "index", int, path, where)
        if cg_index != index:
            raise FormatError(f"{path}: {where}.index must be {index}, found {cg_index}")
        draws = _field(entry, "draws", list, path, where)
        loaded.append(GenerationProvenance(cg_index, _load_draws(draws, path, where)))
    return tuple(loaded)


class LoadedDataset(NamedTuple):
    graphs: tuple[ConceptualGraph, ...]
    files: tuple[str, ...]
    config: dict[str, Any]
    stats: DatasetStats
    provenances: tuple[GenerationProvenance, ...] | None


def save_dataset(
    directory: "str | Path",
    graphs: Sequence[ConceptualGraph],
    *,
    config: GeneratorConfig,
    provenances: Sequence[GenerationProvenance],
    stats: DatasetStats,
) -> None:
    """Write one document per CG, the manifest and the provenance."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if stats.cg_count != len(graphs):
        raise FormatError(
            f"stats cover {stats.cg_count} CGs but {len(graphs)} were given"
        )
    if len(provenances) != len(graphs):
        raise FormatError(
            f"provenances cover {len(provenances)} CGs but {len(graphs)} were given"
        )
    file_names = [f"cg-{index:04d}.json" for index in range(len(graphs))]
    for name, graph in zip(file_names, graphs):
        save_cg(directory / name, graph)
    manifest: dict[str, Any] = {
        "formatVersion": FORMAT_VERSION,
        "kind": "dataset-manifest",
        "config": _config_doc(config),
        "stats": _stats_doc(stats),
        "cgFiles": file_names,
        "provenanceFile": PROVENANCE_FILE,
    }
    _dump(directory / MANIFEST_FILE, manifest)
    _write(directory / PROVENANCE_FILE, "provenance", _provenance_members(provenances))


def load_dataset(directory: "str | Path") -> LoadedDataset:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    manifest = _parse(manifest_path)
    _check_header(manifest, manifest_path, "dataset-manifest")
    file_names = _field(manifest, "cgFiles", list, manifest_path)
    _list_of(file_names, str, manifest_path, "cgFiles")
    stats = _load_stats(_field(manifest, "stats", dict, manifest_path), manifest_path)
    if stats.cg_count != len(file_names):
        raise FormatError(
            f"{manifest_path}: cgFiles lists {len(file_names)} files "
            f"for cgCount {stats.cg_count}"
        )
    graphs = tuple(load_cg(directory / name) for name in file_names)
    provenances: tuple[GenerationProvenance, ...] | None = None
    provenance_file = manifest.get("provenanceFile")
    if provenance_file is not None and not isinstance(provenance_file, str):
        raise FormatError(f"{manifest_path}: field provenanceFile must be str or null")
    if provenance_file:
        provenance_path = directory / provenance_file
        provenances = _load_provenance(provenance_path)
        if len(provenances) != len(file_names):
            raise FormatError(
                f"{provenance_path}: perCG has {len(provenances)} entries "
                f"for {len(file_names)} cgFiles"
            )
    return LoadedDataset(
        graphs=graphs,
        files=tuple(file_names),
        config=_field(manifest, "config", dict, manifest_path),
        stats=stats,
        provenances=provenances,
    )


def save_result(directory: "str | Path", result: DatasetResult, gammas: Sequence[GammaCG]) -> None:
    """Write a self-contained output directory: vocabulary, gamma-CGs, dataset."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_vocabulary(directory / VOCABULARY_FILE, result.vocabulary)
    gamma_dir = directory / GAMMA_DIR
    gamma_dir.mkdir(exist_ok=True)
    for gcg in gammas:
        save_gamma_cg(gamma_dir / f"{gcg.name}.json", gcg)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: ConceptualGraph) -> str:
    """Render a CG for graphviz: concepts are boxes, relations are ellipses.

    Concept labels read "type : marker" ("type : *" for generic nodes) and
    every edge carries its 0-based argument position.
    """
    lines = ["graph cg {"]
    for node in sorted(graph.concepts.values(), key=lambda n: n.node_id):
        text = f"{node.type_id} : {node.marker if node.marker is not None else '*'}"
        lines.append(
            f'  "{_dot_escape(node.node_id)}" [shape=box, label="{_dot_escape(text)}"];'
        )
    for node in sorted(graph.relations.values(), key=lambda n: n.node_id):
        lines.append(
            f'  "{_dot_escape(node.node_id)}" [shape=ellipse, label="{_dot_escape(node.type_id)}"];'
        )
    for node in sorted(graph.relations.values(), key=lambda n: n.node_id):
        for position, arg in enumerate(node.args):
            lines.append(
                f'  "{_dot_escape(node.node_id)}" -- "{_dot_escape(arg)}" [label="{position}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

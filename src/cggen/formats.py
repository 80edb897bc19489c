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
import os
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
from .metrics import DatasetStats, StatsTally

FORMAT_VERSION = "1.0.0"

VOCABULARY_FILE = "vocabulary.json"
GAMMA_DIR = "gamma"
DATASET_DIR = "dataset"
MANIFEST_FILE = "manifest.json"
PROVENANCE_FILE = "provenance.json"


def _dump(path: Path, document: dict[str, Any]) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


# Every writer but the manifest's (``_dump``, a handful of fields) emits the
# layout of json.dumps(document, indent=2) + "\n" directly: every scalar goes
# through the C string encoder, every node, marker, draw or merge entry
# through one %-template, and the items of an array take one join. This is
# several times faster than json.dumps with an indent, which always runs the
# pure-Python encoder. A CG or gamma-CG document is built whole and written
# with one system call; building it takes about three times the file's size
# at its peak (1.5 MB for a CG of 4000 nodes). The vocabulary and provenance
# writers stream marker by marker and draw by draw, so neither holds its
# whole text; within one write, the provenance writer reuses the text of the
# "assignments" and "specialisations" objects it encoded last, so a repeated
# one is encoded once. docs/formats.md states the layout.
_enc = json.encoder.encode_basestring_ascii
_int = int.__repr__

_CONCEPT = '{\n      "id": %s,\n      "type": %s,\n      "marker": %s\n    }'
_RELATION = '{\n      "id": %s,\n      "type": %s,\n      "args": %s\n    }'
_VARIABLE = (
    '{\n      "name": %s,\n      "target": {\n        "kind": %s,\n        "node": %s\n'
    '      },\n      "domain": %s\n    }'
)
_MARKER = '{\n      "id": %s,\n      "type": %s\n    }'
_CG_ENTRY = '{\n      "index": %s,\n      "draws": '
_DRAW = (
    '{\n          "gamma": %s,\n          "assignments": %s,\n'
    '          "specialisations": %s,\n          "merged": %s,\n'
    '          "skippedMerges": %s\n        }'
)


_HEADER = '{\n  "formatVersion": %s,\n  "kind": %%s,\n' % _enc(FORMAT_VERSION)
# Whole documents: each is built by one %, so its text is copied once.
_CG = _HEADER % _enc("cg") + '  "concepts": %s,\n  "relations": %s\n}\n'
_GAMMA_CG = (
    _HEADER % _enc("gamma-cg")
    + '  "name": %s,\n  "concepts": %s,\n  "relations": %s,\n  "variables": %s\n}\n'
)


def _write(path: Path, kind: str, members: Iterable[str]) -> None:
    """Write a document: the header, then the text of its other top-level members."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write(_HEADER % _enc(kind))
        handle.writelines(members)
        handle.write("\n}\n")


def _write_bytes(path: "str | Path", data: bytes) -> None:
    """Write ``data`` to a raw descriptor, in one ``os.write`` unless it takes less.

    Streamed node by node through a text file instead, the 500 CGs of 30
    nodes of a many-small run took about half as long again to write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


# The dataset writer keeps encoded CG documents, up to this many bytes of
# them, and writes them in a row: creating the files in bursts, rather than
# one between each two generated CGs, made a many-small `cggen generate`
# about 6% faster (wall time, 50 alternating pairs on a 2-core VM, ext4).
_BATCH_BYTES = 1 << 20


class _Batch:
    """Documents waiting to be written: at most ``_BATCH_BYTES``, or a larger one alone."""

    def __init__(self) -> None:
        self._pending: list[tuple[str, bytes]] = []
        self._bytes = 0

    def add(self, path: str, data: bytes) -> None:
        if self._bytes + len(data) > _BATCH_BYTES:
            self.flush()
        self._pending.append((path, data))
        self._bytes += len(data)

    def flush(self) -> None:
        for path, data in self._pending:
            _write_bytes(path, data)
        self._pending.clear()
        self._bytes = 0


def _array(items: Sequence[str], depth: int) -> str:
    """A JSON array of encoded items whose own lines are laid out for depth + 1."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _stream(items: Iterable[str], depth: int) -> Iterator[str]:
    """``_array(list(items), depth)``, one item at a time.

    ``_array`` keeps its own body: a join of this generator took about
    1.7 times as long for an array of three items, and ten times as long
    for one of 4000 (timeit, CPython 3.11).
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


# How many encoded objects of each kind a provenance write keeps. Each entry
# also keeps its key alive, so without this bound the cache grows with the
# number of CGs: `cggen generate` at 16 and 64 CGs of 4000 nodes
# (tests/peak_rss.py, CPython 3.11) peaked at 30.3 and 30.6 MB with 1,024
# entries, 31.9 and 33.2 MB with 4,096, and 32.0 and 42.5 MB unbounded.
_OBJECT_CACHE = 1024

_TRIPLE = "[%s, %s, %s]"
# The lines of a "merged" or "skippedMerges" value, whose entries sit at depth 6.
_TRIPLES_OPEN = "[\n" + "  " * 6
_TRIPLES_SEPARATOR = ",\n" + "  " * 6
_TRIPLES_CLOSE = "\n" + "  " * 5 + "]"


def _triples(entries: Sequence[tuple[str, ...]]) -> str:
    """The "merged" or "skippedMerges" member value of a provenance draw.

    One entry per line, each entry's strings on that line, as
    ``json.dumps(entry)`` lays them out. The generator's entries are all
    triples: each fills ``_TRIPLE`` and the lines take one join. An entry
    of another length, which the loader accepts too, fails to unpack, and
    the whole value then takes the general path.
    """
    if not entries:
        return "[]"
    try:
        lines = [_TRIPLE % (_enc(a), _enc(b), _enc(c)) for a, b, c in entries]
    except ValueError:
        return _array(["[%s]" % ", ".join(map(_enc, entry)) for entry in entries], 5)
    return _TRIPLES_OPEN + _TRIPLES_SEPARATOR.join(lines) + _TRIPLES_CLOSE


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


def _hierarchy_members(
    hierarchy: TypeHierarchy, signatures: dict[str, Signature] | None, depth: int
) -> str:
    """The "root" and "types" members of a hierarchy object whose members sit at ``depth``."""
    labels, parents = hierarchy.labels, hierarchy.parents
    types = []
    for type_id in sorted(labels, key=labels.__getitem__):
        members = [
            ("id", _enc(type_id)),
            ("label", _enc(labels[type_id])),
            ("parents", _array([_enc(parent) for parent in sorted(parents[type_id])], depth + 2)),
        ]
        if signatures is not None:
            restrictions = signatures[type_id].restrictions
            members.append(("signature", _array([_enc(t) for t in restrictions], depth + 2)))
        types.append(_object(members, str, depth + 1))
    pad = "  " * depth
    return '%s"root": %s,\n%s"types": %s' % (pad, _enc(hierarchy.root), pad, _array(types, depth))


def save_vocabulary(path: "str | Path", vocab: Vocabulary) -> None:
    concepts = "{\n%s\n  }" % _hierarchy_members(vocab.concepts, None, 2)
    relations = [
        '{\n      "arity": %s,\n%s\n    }'
        % (_int(arity), _hierarchy_members(vocab.relations[arity], vocab.signatures, 3))
        for arity in sorted(vocab.relations)
    ]
    markers = (
        _MARKER % (_enc(marker_id), _enc(type_id))
        for marker_id, type_id in sorted(vocab.markers.values(), key=_BY_ID)
    )
    members = '  "conceptTypes": %s,\n  "relationTypes": %s,\n  "markers": ' % (
        concepts,
        _array(relations, 1),
    )
    _write(Path(path), "vocabulary", chain((members,), _stream(markers, 1)))


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


def _graph_arrays(graph: ConceptualGraph) -> tuple[str, str]:
    """The "concepts" and "relations" values of a cg or gamma-cg document."""
    concepts = [
        _CONCEPT % (_enc(node_id), _enc(type_id), "null" if marker is None else _enc(marker))
        for node_id, type_id, marker in sorted(graph.concepts.values(), key=_BY_ID)
    ]
    relations = [
        _relation_template(len(args)) % (_enc(node_id), _enc(type_id), *map(_enc, args))
        for node_id, type_id, args in sorted(graph.relations.values(), key=_BY_ID)
    ]
    return _array(concepts, 1), _array(relations, 1)


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


def _cg_document(graph: ConceptualGraph) -> bytes:
    return (_CG % _graph_arrays(graph)).encode()


def save_cg(path: "str | Path", graph: ConceptualGraph) -> None:
    _write_bytes(path, _cg_document(graph))


def load_cg(path: "str | Path") -> ConceptualGraph:
    path = Path(path)
    document = _parse(path)
    _check_header(document, path, "cg")
    return _load_graph(document, path)


def save_gamma_cg(path: "str | Path", gcg: GammaCG) -> None:
    variables = [
        _VARIABLE
        % (
            _enc(variable.name),
            _enc(variable.target.kind),
            _enc(variable.target.node_id),
            _array([_enc(value) for value in variable.domain], 3),
        )
        for variable in gcg.variables
    ]
    concepts, relations = _graph_arrays(gcg.graph)
    document = _GAMMA_CG % (_enc(gcg.name), concepts, relations, _array(variables, 1))
    _write_bytes(path, document.encode())


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


def _provenance_members(provenances: Iterable[GenerationProvenance]) -> Iterator[str]:
    """The "perCG" member, draw by draw, so the whole text is never held at once.

    Each entry is taken from ``provenances`` only when the one before it is
    written, so a lazy iterable is written as it is produced.
    """
    # Draws repeat the same few assignment and specialisation tuples (572
    # and 30 distinct among the 4,942 draws of 4 CGs of 4000 nodes from the
    # README's inputs), so each object is encoded once per distinct tuple.
    # The caches live for one write, and their bound keeps the tuples they
    # hold from growing with the number of CGs.
    cache = functools.lru_cache(maxsize=_OBJECT_CACHE)
    assignments = cache(lambda pairs: _object(pairs, _enc, 5))
    specialisations = cache(lambda pairs: _object(pairs, _int, 5))
    separator = "[\n    "
    yield '  "perCG": '
    for provenance in provenances:
        yield separator + _CG_ENTRY % _int(provenance.cg_index)
        yield from _stream(
            (
                _DRAW
                % (
                    _enc(draw.gamma_name),
                    assignments(draw.assignments),
                    specialisations(draw.specialisations),
                    _triples(draw.merged),
                    _triples(draw.skipped_merges),
                )
                for draw in provenance.draws
            ),
            3,
        )
        yield "\n    }"
        separator = ",\n    "
    yield "[]" if separator[0] == "[" else "\n  ]"


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


def _draw_columns(draws: list[Any], path: Path, where: str) -> tuple[tuple[Any, ...], ...]:
    """The draws of one perCG entry as five checked columns, one per draw field."""
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
    return columns


def check_provenance(path: Path, cg_count: int) -> list[tuple[tuple[Any, ...], ...]]:
    """Check the provenance document of a dataset of ``cg_count`` CGs.

    Returns the draws of each perCG entry as the columns ``_draw_columns``
    checked. Only ``load_dataset`` builds records from them.
    """
    document = _parse(path)
    _check_header(document, path, "provenance")
    entries = _field(document, "perCG", list, path)
    checked = []
    for index, entry in enumerate(entries):
        where = f"perCG[{index}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: {where} must be an object")
        cg_index = _field(entry, "index", int, path, where)
        if cg_index != index:
            raise FormatError(f"{path}: {where}.index must be {index}, found {cg_index}")
        checked.append(_draw_columns(_field(entry, "draws", list, path, where), path, where))
    if len(entries) != cg_count:
        raise FormatError(f"{path}: perCG has {len(entries)} entries for {cg_count} cgFiles")
    return checked


def _draws(columns: tuple[tuple[Any, ...], ...]) -> tuple[ComponentDraw, ...]:
    gammas, assignments, specialisations, merged, skipped = columns
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


def _load_provenance(path: Path, cg_count: int) -> tuple[GenerationProvenance, ...]:
    checked = check_provenance(path, cg_count)
    return tuple(map(GenerationProvenance, range(len(checked)), map(_draws, checked)))


class LoadedDataset(NamedTuple):
    graphs: tuple[ConceptualGraph, ...]
    files: tuple[str, ...]
    config: dict[str, Any]
    stats: DatasetStats
    provenances: tuple[GenerationProvenance, ...] | None


class DatasetManifest(NamedTuple):
    """A dataset's checked manifest.json."""

    files: tuple[str, ...]
    stats: DatasetStats
    config: dict[str, Any]
    # The provenance document, or None when the manifest names none.
    provenance: Path | None


def read_manifest(directory: "str | Path") -> DatasetManifest:
    """Check the manifest of the dataset in ``directory``; no CG is read."""
    directory = Path(directory)
    path = directory / MANIFEST_FILE
    manifest = _parse(path)
    _check_header(manifest, path, "dataset-manifest")
    file_names = _field(manifest, "cgFiles", list, path)
    _list_of(file_names, str, path, "cgFiles")
    stats = _load_stats(_field(manifest, "stats", dict, path), path)
    if stats.cg_count != len(file_names):
        raise FormatError(
            f"{path}: cgFiles lists {len(file_names)} files for cgCount {stats.cg_count}"
        )
    provenance_file = manifest.get("provenanceFile")
    if provenance_file is not None and not isinstance(provenance_file, str):
        raise FormatError(f"{path}: field provenanceFile must be str or null")
    return DatasetManifest(
        files=tuple(file_names),
        stats=stats,
        config=_field(manifest, "config", dict, path),
        provenance=directory / provenance_file if provenance_file else None,
    )


def iter_dataset(directory: "str | Path") -> Iterator[tuple[str, ConceptualGraph]]:
    """Each CG of a dataset with its file name, loaded one at a time.

    The manifest is checked before the first CG is loaded, the CGs are
    loaded in its ``cgFiles`` order, and the provenance is checked after the
    last one, so the first error is the one ``load_dataset`` reports. No
    provenance record is built, and each CG is freed once the caller drops
    it: the memory this needs does not grow with the number of CGs, except
    for the provenance document, which is parsed whole.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    for name in manifest.files:
        yield name, load_cg(directory / name)
    if manifest.provenance is not None:
        check_provenance(manifest.provenance, len(manifest.files))


def write_dataset(
    directory: "str | Path",
    cgs: Iterable[tuple[ConceptualGraph, GenerationProvenance]],
    config: GeneratorConfig,
) -> DatasetStats:
    """Write a dataset one CG at a time; return its statistics.

    Each CG is encoded as soon as ``cgs`` yields it, its perCG entry is
    appended to the open provenance and its counts are added to the running
    statistics. Its document is written with the next batch, at most about
    1 MiB of encoded text later, so the memory this needs does not grow with
    the number of CGs. The manifest goes last.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    file_names: list[str] = []
    tally = StatsTally()
    batch = _Batch()

    def provenances() -> Iterator[GenerationProvenance]:
        for index, (graph, provenance) in enumerate(cgs):
            file_names.append(f"cg-{index:04d}.json")
            batch.add(os.path.join(directory, file_names[-1]), _cg_document(graph))
            tally.add(graph)
            yield provenance
        batch.flush()

    _write(directory / PROVENANCE_FILE, "provenance", _provenance_members(provenances()))
    stats = tally.stats()
    manifest: dict[str, Any] = {
        "formatVersion": FORMAT_VERSION,
        "kind": "dataset-manifest",
        "config": _config_doc(config),
        "stats": _stats_doc(stats),
        "cgFiles": file_names,
        "provenanceFile": PROVENANCE_FILE,
    }
    _dump(directory / MANIFEST_FILE, manifest)
    return stats


def save_dataset(
    directory: "str | Path",
    graphs: Sequence[ConceptualGraph],
    *,
    config: GeneratorConfig,
    provenances: Sequence[GenerationProvenance],
    stats: DatasetStats,
) -> None:
    """Write one document per CG, the manifest and the provenance.

    ``stats`` must be ``compute_stats(graphs)``. Only its CG count is
    checked: the manifest takes the statistics ``write_dataset`` recounts
    as it writes.
    """
    if stats.cg_count != len(graphs):
        raise FormatError(
            f"stats cover {stats.cg_count} CGs but {len(graphs)} were given"
        )
    if len(provenances) != len(graphs):
        raise FormatError(
            f"provenances cover {len(provenances)} CGs but {len(graphs)} were given"
        )
    write_dataset(directory, zip(graphs, provenances), config)


def load_dataset(directory: "str | Path") -> LoadedDataset:
    """Load a whole dataset: every CG and, if the manifest names one, its provenance records.

    The checks and their order are those of ``iter_dataset``, which reads
    one CG at a time and builds no provenance record; ``cggen validate``
    and ``cggen stats`` read a dataset through it.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    graphs = tuple(load_cg(directory / name) for name in manifest.files)
    provenances = None
    if manifest.provenance is not None:
        provenances = _load_provenance(manifest.provenance, len(graphs))
    return LoadedDataset(
        graphs=graphs,
        files=manifest.files,
        config=manifest.config,
        stats=manifest.stats,
        provenances=provenances,
    )


def save_stage(directory: "str | Path", vocab: Vocabulary, gammas: Iterable[GammaCG]) -> None:
    """Write a vocabulary and its gamma-CGs: vocabulary.json and gamma/<name>.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_vocabulary(directory / VOCABULARY_FILE, vocab)
    gamma_dir = directory / GAMMA_DIR
    gamma_dir.mkdir(exist_ok=True)
    for gcg in gammas:
        save_gamma_cg(gamma_dir / f"{gcg.name}.json", gcg)


def save_result(directory: "str | Path", result: DatasetResult, gammas: Sequence[GammaCG]) -> None:
    """Write the vocabulary and gamma-CGs of a collected run; ``save_dataset`` writes its CGs."""
    save_stage(directory, result.vocabulary, gammas)


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

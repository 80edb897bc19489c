"""Canonical JSON documents for vocabularies, gamma-CGs, CGs and datasets.

Every document embeds a formatVersion; loaders reject unknown major
versions. Saves order types by label, markers by id and nodes by id, so
saving the same value twice produces identical bytes. Generic concept nodes
serialize their marker as an explicit null. Edge positions are 0-based in
documents, diagnostics and DOT labels alike.
"""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import accumulate, chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    plain_file_name,
)
from .errors import FormatError, StructureError, VocabularyError
from .gamma import GammaCG, Variable, VariableTarget
from .generator import DatasetResult, GenerationProvenance, GeneratorConfig
from .metrics import DatasetStats, StatsTally

FORMAT_VERSION = "3.0.0"

VOCABULARY_FILE = "vocabulary.json"
GAMMA_DIR = "gamma"
DATASET_DIR = "dataset"
MANIFEST_FILE = "manifest.json"
DERIVATIONS_FILE = "derivations.jsonl"


# Every document is json.dumps(document) + "\n", and so is each line of a
# derivations file: built as dicts and lists, encoded by json.dumps's C
# encoder, made once here (json.dumps builds a new one per call).
_dumps = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ", False, False, True
)


def _document(kind: str, **members: Any) -> bytes:
    """json.dumps of a ``kind`` document, as bytes ending in a newline.

    ``formatVersion`` and ``kind`` come first, then ``members`` in order.
    """
    document = {"formatVersion": FORMAT_VERSION, "kind": kind, **members}
    return ("".join(_dumps(document, 0)) + "\n").encode()


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


_BY_ID = itemgetter(0)


def _kept_by_absorbed(pairs: Sequence[tuple[str, str]]) -> dict[str, list[str]]:
    """The "skippedMerges" value of a derivation draw: each absorbed node's kept nodes.

    The pairs of one absorbed node are adjacent, in the order they were compared.
    """
    kept_by_other: dict[str, list[str]] = {}
    for other, kept in pairs:
        if other in kept_by_other:
            kept_by_other[other].append(kept)
        else:
            kept_by_other[other] = [kept]
    return kept_by_other


def _read_text(path: Path) -> str:
    # Bytes decoded at once: a text-mode read took about 5 us more a file,
    # 2.4 ms over the 500 CGs of a many-small read-back. JSON reads "\r" as
    # whitespace, so no newline needs translating.
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}")
    return _decode(data, path)


def _decode(data: bytes, where: "Path | str") -> str:
    """``data`` as UTF-8 text, which is the file or line ``where``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def read_json(path: Path) -> dict[str, Any]:
    """The JSON object in ``path``; a ``FormatError`` naming the file otherwise."""
    return _object_in(_read_text(path), path)


def _object_in(text: str, path: Path, line: int | None = None) -> dict[str, Any]:
    """The JSON object in ``text``, which is ``path`` or its line ``line``."""
    where = path if line is None else f"{path}:{line}"
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{line or exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        raise FormatError(f"{where}: nested too deeply to read")
    if not isinstance(document, dict):
        raise FormatError(f"{where}: top-level value must be an object")
    return document


def _check_header(document: dict[str, Any], path: "Path | str", kind: str) -> None:
    version = document.get("formatVersion")
    if not isinstance(version, str):
        raise FormatError(f"{path}: missing formatVersion")
    major = version.split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if major != ours:
        raise FormatError(f"{path}: unsupported major version {version!r}")
    if document.get("kind") != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, found {document.get('kind')!r}")


# The field rules of each document kind, one table per kind, in the subset
# of JSON Schema (draft 2020-12) that the loaders use: "type", "properties"
# with "required", "items", "additionalProperties" (the values of a map),
# "minimum" and "maximum". Our own "message" keyword
# gives the error for a value that does not fit, where the accepted types'
# names would not say it. An optional property reads as null when it is absent.
# docs/formats.md lists the fields of every table; a test compares the two.
_STRING = {"type": "string"}
_INTEGER = {"type": "integer"}
# json.loads reads NaN and Infinity; neither lies within these bounds.
_NON_NEGATIVE = {"type": "number", "minimum": 0, "maximum": sys.float_info.max}
_STRINGS = {"type": "array", "items": _STRING}
# A number of downward specialisation steps.
_STEPS = {"type": "integer", "minimum": 0}


def _table(*optional: str, **properties: dict[str, Any]) -> dict[str, Any]:
    """An object with these properties, each required unless named in ``optional``."""
    required = [key for key in properties if key not in optional]
    return {"type": "object", "properties": properties, "required": required}


def _entries(table: dict[str, Any]) -> dict[str, Any]:
    """An array of objects, each checked against ``table``."""
    return {"type": "array", "items": dict(table, message="{where} must be an object")}


_NULLABLE_MARKER = {"type": ["string", "null"], "message": "{where} must be a string or null"}
_GRAPH_FIELDS = {
    "concepts": _entries(_table("marker", id=_STRING, type=_STRING, marker=_NULLABLE_MARKER)),
    # Whether each argument is a string is checked only when the graph
    # fails to build (_ARGUMENTS): checking every one would cost every load.
    "relations": _entries(_table(id=_STRING, type=_STRING, args={"type": "array"})),
}
_TYPE_FIELDS = {"id": _STRING, "label": _STRING, "parents": _STRINGS}
_RELATION_TYPES = _entries(_table(**_TYPE_FIELDS, signature=_STRINGS))
_VARIABLE_TABLE = _table(name=_STRING, target=_table(kind=_STRING, node=_STRING), domain=_STRINGS)
_MEANS = _table(mean=_NON_NEGATIVE, stddev=_NON_NEGATIVE)
_COUNTS = {"type": "object", "additionalProperties": _NON_NEGATIVE}
_DRAW_TABLE = _table(
    gamma=_STRING,
    assignments={"type": "object", "additionalProperties": _STRING},
    specialisations={"type": "object", "additionalProperties": _STEPS},
    merged={"type": "object", "additionalProperties": _STRING},
    skippedMerges={"type": "object", "additionalProperties": _STRINGS},
)
_TABLES = {
    "vocabulary": _table(
        conceptTypes=_table(root=_STRING, types=_entries(_table(**_TYPE_FIELDS))),
        relationTypes=_entries(_table(arity=_INTEGER, root=_STRING, types=_RELATION_TYPES)),
        markers=_entries(_table(id=_STRING, type=_STRING)),
    ),
    "cg": _table(**_GRAPH_FIELDS),
    "gamma-cg": _table(name=_STRING, **_GRAPH_FIELDS, variables=_entries(_VARIABLE_TABLE)),
    "dataset-manifest": _table(
        # The bounds of GeneratorConfig.
        config=_table(
            maxCGs={"type": "integer", "minimum": 1},
            minSize={"type": "integer", "minimum": 1},
            maxSpe=_STEPS,
            seed=_INTEGER,
        ),
        stats=_table(cgCount=_INTEGER, nbNodes=_MEANS, nbLabels=_MEANS, arityCounts=_COUNTS),
        cgFiles=_STRINGS,
    ),
    # Each line of the derivations file after its header.
    "derivations": _table(draws=_entries(_DRAW_TABLE)),
}

_ARGUMENTS = _table(relations=_entries(_table(args=_STRINGS)))
_CHECKED = {**_TABLES, "arguments": _ARGUMENTS}

# What json.loads gives for each JSON type, compared exactly: a bool is never an int.
_PYTHON_TYPES = {
    "string": (str,), "integer": (int,), "number": (int, float),
    "array": (list,), "object": (dict,), "null": (type(None),),
}


def _types(table: dict[str, Any]) -> list[type]:
    kinds = table["type"] if isinstance(table["type"], list) else [table["type"]]
    return [python for kind in kinds for python in _PYTHON_TYPES[kind]]


def _constraint(table: dict[str, Any]) -> Callable[[list[Any]], bool] | None:
    """Whether the values of a column, all of accepted types, pass what ``table`` also says."""
    if "minimum" in table:
        low, high = table["minimum"], table.get("maximum", math.inf)
        if table["type"] == "integer":  # no NaN: C-level min and max bound it
            return lambda column: not column or low <= min(column) and max(column) <= high
        # NaN fails every comparison, but min and max may pass over one.
        return lambda column: all(low <= value <= high for value in column)
    return None


def _compile(
    table: dict[str, Any], name: str = ""
) -> Callable[[Iterable[Any], dict[str, list[Any]]], bool]:
    """The bulk check of a column of values that ``table`` describes, built once per table.

    ``check(column, columns)`` tells whether every value fits, checking the
    types of each column with one set comparison. It records the values of
    each property in ``columns`` by name ("concepts[].id"); the items of
    arrays and the values of maps stream. A missing required key raises KeyError.
    """
    accepts, constraint = frozenset(_types(table)).issuperset, _constraint(table)
    properties = []
    for key, row in table.get("properties", {}).items():
        child = f"{name}.{key}".lstrip(".")
        properties.append((key, key in table["required"], child, _compile(row, child)))
    items = _compile(table["items"], name + "[]") if "items" in table else None
    values = table.get("additionalProperties")
    values = None if values is None else _compile(values, name + ".*")
    if not (properties or items or values or constraint):
        return lambda column, columns: accepts(map(type, column))

    def check(column: Iterable[Any], columns: dict[str, list[Any]]) -> bool:
        column = column if type(column) is list else [*column]
        if not accepts(map(type, column)):
            return False
        if constraint is not None and not constraint(column):
            return False
        for key, required, child, check_child in properties:
            pulled = [e[key] for e in column] if required else [e.get(key) for e in column]
            columns[child] = pulled
            if not check_child(pulled, columns):
                return False
        if items is not None:
            # A document's own array is its items' column: it needs no copy.
            if not items(column[0] if len(column) == 1 else chain.from_iterable(column), columns):
                return False
        return values is None or values(chain.from_iterable(map(dict.values, column)), columns)

    return check


def _locate(table: dict[str, Any], value: Any, path: Path, where: str, field: str = "") -> None:
    """Raise the error of the first value, depth first, that does not fit ``table``."""
    types, constraint = _types(table), _constraint(table)
    if type(value) not in types or not (constraint is None or constraint([value])):
        fits = type(value) in types
        expected = " or ".join(python.__name__ for python in types)
        if fits and "minimum" in table and value < table["minimum"]:
            expected += f" >= {table['minimum']}"
        found = repr(value) if fits else type(value).__name__
        message = table.get("message", field + "{where} must be " + expected + ", found {found}")
        raise FormatError(f"{path}: " + message.format(where=where, found=found))
    for key, row in table.get("properties", {}).items():
        spot = f"{where}.{key}".lstrip(".")
        if key in table["required"] and key not in value:
            raise FormatError(f"{path}: missing field {spot}")
        _locate(row, value.get(key), path, spot, "field ")
    for index, item in enumerate(value if "items" in table else ()):
        _locate(table["items"], item, path, f"{where}[{index}]")
    for key, item in value.items() if "additionalProperties" in table else ():
        _locate(table["additionalProperties"], item, path, f"{where}.{key}", "field ")


_BULK = {kind: _compile(table) for kind, table in _CHECKED.items()}


def _check(kind: str, document: dict[str, Any], path: "Path | str") -> dict[str, list[Any]]:
    """The columns of ``document`` if it fits the table of ``kind``; else its first fault."""
    columns: dict[str, list[Any]] = {}
    try:
        if _BULK[kind]([document], columns):
            return columns
    except KeyError:
        pass
    _locate(_CHECKED[kind], document, path, "")
    raise AssertionError(f"{path}: the bulk check failed but the locator found no fault")


def _checked(document: dict[str, Any], path: Path, kind: str) -> dict[str, list[Any]]:
    """The columns of ``document``, once its header and fields are checked as a ``kind``."""
    _check_header(document, path, kind)
    return _check(kind, document, path)


def _require_unique(ids: list[Any], distinct: int, path: Path, message: str) -> None:
    """Unless ``ids`` holds ``distinct`` values, raise ``message`` at its first repeat."""
    if distinct != len(ids):
        seen: set[Any] = set()
        for index, item in enumerate(ids):
            if item in seen:
                raise FormatError(f"{path}: " + message.format(id=item, index=index))
            seen.add(item)


def _hierarchy_doc(
    hierarchy: TypeHierarchy, signatures: dict[str, Signature] | None
) -> dict[str, Any]:
    """The "root" and "types" members of a hierarchy; relation types carry a "signature"."""
    labels, parents = hierarchy.labels, hierarchy.parents
    types = []
    for type_id in sorted(labels, key=labels.__getitem__):
        entry = {"id": type_id, "label": labels[type_id], "parents": sorted(parents[type_id])}
        if signatures is not None:
            entry["signature"] = signatures[type_id].restrictions
        types.append(entry)
    return {"root": hierarchy.root, "types": types}


def save_vocabulary(path: "str | Path", vocab: Vocabulary) -> None:
    relations = [
        {"arity": arity, **_hierarchy_doc(vocab.relations[arity], vocab.signatures)}
        for arity in sorted(vocab.relations)
    ]
    markers = [
        {"id": marker_id, "type": type_id}
        for marker_id, type_id in sorted(vocab.markers.values(), key=_BY_ID)
    ]
    document = _document(
        "vocabulary",
        conceptTypes=_hierarchy_doc(vocab.concepts, None),
        relationTypes=relations,
        markers=markers,
    )
    _write_bytes(path, document)


def _load_hierarchy(
    entry: dict[str, Any], kind: str, arity: int | None, path: Path, where: str
) -> TypeHierarchy:
    types = entry["types"]
    ids = [raw["id"] for raw in types]
    labels = dict(zip(ids, [raw["label"] for raw in types]))
    _require_unique(ids, len(labels), path, f"duplicate type id {{id!r}} in {where}")
    parents = dict(zip(ids, [tuple(raw["parents"]) for raw in types]))
    try:
        return TypeHierarchy(kind, entry["root"], labels, parents, arity=arity)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {where}: {exc}") from exc


def load_vocabulary(path: "str | Path") -> Vocabulary:
    path = Path(path)
    return _vocabulary(read_json(path), path)


def _vocabulary(document: dict[str, Any], path: Path) -> Vocabulary:
    columns = _checked(document, path, "vocabulary")
    concepts = _load_hierarchy(document["conceptTypes"], CONCEPT, None, path, "conceptTypes")
    relations: dict[int, TypeHierarchy] = {}
    signatures: dict[str, Signature] = {}
    for index, entry in enumerate(document["relationTypes"]):
        where, arity = f"relationTypes[{index}]", entry["arity"]
        for number, raw in enumerate(entry["types"]):
            sig, spot = tuple(raw["signature"]), f"{where}.types[{number}].signature"
            if len(sig) != arity:
                raise VocabularyError(f"{path}: {spot} has {len(sig)} entries for arity {arity}")
            signatures[raw["id"]] = Signature(raw["id"], sig)
        relations[arity] = _load_hierarchy(entry, RELATION, arity, path, where)
    arities = columns["relationTypes[].arity"]
    _require_unique(arities, len(relations), path, "duplicate relation hierarchy for arity {id}")
    ids = columns["markers[].id"]
    # One string per type, not one per marker: the 22,081 markers of 64 CGs
    # of 4000 nodes then hold 1.2 MB less.
    markers = dict(zip(ids, map(Marker, ids, map(sys.intern, columns["markers[].type"]))))
    _require_unique(ids, len(markers), path, "duplicate marker id {id!r}")
    try:
        return Vocabulary(concepts, relations, signatures, markers)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {exc}") from exc


def _graph_doc(graph: ConceptualGraph) -> dict[str, list[dict[str, Any]]]:
    """The "concepts" and "relations" members of a cg or gamma-cg document."""
    return {
        "concepts": [
            {"id": node_id, "type": type_id, "marker": marker}
            for node_id, type_id, marker in sorted(graph.concepts.values(), key=_BY_ID)
        ],
        "relations": [
            {"id": node_id, "type": type_id, "args": args}
            for node_id, type_id, args in sorted(graph.relations.values(), key=_BY_ID)
        ],
    }


_CONCEPT_KEYS = ("concepts[].id", "concepts[].type", "concepts[].marker")
_RELATION_KEYS = ("relations[].id", "relations[].type", "relations[].args")
_CONCEPT_COLUMNS = itemgetter(*_CONCEPT_KEYS)
_RELATION_COLUMNS = itemgetter(*_RELATION_KEYS)


def _load_graph(document: dict[str, Any], columns: dict[str, list], path: Path) -> ConceptualGraph:
    # tuple.__new__ skips the Python-level __new__ of each node record.
    new = tuple.__new__
    ids, types, markers = _CONCEPT_COLUMNS(columns)
    concepts = dict(zip(ids, map(new, repeat(ConceptNode), zip(ids, types, markers))))
    _require_unique(ids, len(concepts), path, "duplicate node id {id!r} at concepts[{index}].id")
    ids, types, args = _RELATION_COLUMNS(columns)
    relations = dict(zip(ids, map(new, repeat(RelationNode), zip(ids, types, map(tuple, args)))))
    _require_unique(ids, len(relations), path, "duplicate node id {id!r} at relations[{index}].id")
    try:
        return ConceptualGraph(concepts, relations)
    except (StructureError, TypeError) as exc:
        # A missing concept, or an unhashable argument, may be an argument
        # that is not a string: look for one only now, so loading a valid
        # graph never pays for a per-argument type check.
        _check("arguments", document, path)
        if isinstance(exc, TypeError):
            raise
        raise StructureError(f"{path}: {exc}") from exc


def _cg_document(graph: ConceptualGraph) -> bytes:
    return _document("cg", **_graph_doc(graph))


def load_cg(path: "str | Path") -> ConceptualGraph:
    # iter_dataset passes a Path per CG; building another took 2.8 us a call.
    path = path if isinstance(path, Path) else Path(path)
    return _cg(read_json(path), path)


def _cg(
    document: dict[str, Any], path: Path, columns: dict[str, list] | None = None
) -> ConceptualGraph:
    """The CG in ``document``, checked first unless ``columns`` are its columns, already checked."""
    if columns is None:
        columns = _checked(document, path, "cg")
    return _load_graph(document, columns, path)


def save_gamma_cg(path: "str | Path", gcg: GammaCG) -> None:
    variables = [
        {
            "name": variable.name,
            "target": {"kind": variable.target.kind, "node": variable.target.node_id},
            "domain": variable.domain,
        }
        for variable in gcg.variables
    ]
    document = _document("gamma-cg", name=gcg.name, **_graph_doc(gcg.graph), variables=variables)
    _write_bytes(path, document)


def load_gamma_cg(path: "str | Path") -> GammaCG:
    path = Path(path)
    return _gamma_cg(read_json(path), path)


def _gamma_cg(document: dict[str, Any], path: Path) -> GammaCG:
    graph = _load_graph(document, _checked(document, path, "gamma-cg"), path)
    variables: list[Variable] = []
    for index, entry in enumerate(document["variables"]):
        name, target, domain = entry["name"], entry["target"], tuple(entry["domain"])
        try:
            variables.append(Variable(name, VariableTarget(target["kind"], target["node"]), domain))
        except StructureError as exc:
            raise StructureError(f"{path}: variables[{index}]: {exc}") from exc
    try:
        return GammaCG(document["name"], graph, tuple(variables))
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


_LOADERS: dict[str, Callable[[dict[str, Any], Path], Any]] = {
    "vocabulary": _vocabulary,
    "cg": _cg,
    "gamma-cg": _gamma_cg,
}


def _first_line(text: str, path: Path) -> dict[str, Any]:
    """The object on the first line of ``text``, or ``{}`` if it holds none."""
    try:
        return _object_in(text.partition("\n")[0], path, 1)
    except FormatError:
        return {}


def load_document(
    path: "str | Path", admit: Callable[[Any], None] = lambda kind: None
) -> Vocabulary | ConceptualGraph | GammaCG:
    """The vocabulary, CG or gamma-CG in ``path``, by its ``kind``, parsed once.

    ``admit(kind)`` is called with the document's ``kind`` before anything
    else is checked, and may raise to refuse it. A ``kind`` other than
    these three is a ``FormatError``.
    """
    path = Path(path)
    text = _read_text(path)
    try:
        document = _object_in(text, path)
    except FormatError:
        # A derivations file is one object per line, not one JSON value, but
        # its header line names its kind all the same.
        document = _first_line(text, path)
        if document.get("kind") != "derivations":
            raise
    kind = document.get("kind")
    admit(kind)
    load = _LOADERS.get(kind) if isinstance(kind, str) else None
    if load is None:
        raise FormatError(f"{path}: cannot load documents of kind {kind!r}")
    return load(document, path)


def _stats_doc(stats: DatasetStats) -> dict[str, Any]:
    return {
        "cgCount": stats.cg_count,
        "nbNodes": {"mean": stats.nb_nodes_mean, "stddev": stats.nb_nodes_stddev},
        "nbLabels": {"mean": stats.nb_labels_mean, "stddev": stats.nb_labels_stddev},
        "arityCounts": {str(a): mean for a, mean in sorted(stats.arity_counts.items())},
    }


def _load_stats(document: dict[str, Any], path: Path) -> DatasetStats:
    arity_counts = document["arityCounts"]
    for key in arity_counts:
        if not key.isdecimal():
            raise FormatError(f"{path}: stats.arityCounts key {key!r} must be an arity")
    nodes, labels = document["nbNodes"], document["nbLabels"]
    return DatasetStats(
        cg_count=document["cgCount"],
        nb_nodes_mean=float(nodes["mean"]),
        nb_nodes_stddev=float(nodes["stddev"]),
        nb_labels_mean=float(labels["mean"]),
        nb_labels_stddev=float(labels["stddev"]),
        arity_counts={int(key): float(mean) for key, mean in arity_counts.items()},
    )


def _config_doc(config: GeneratorConfig) -> dict[str, Any]:
    return {
        "maxCGs": config.max_cgs,
        "minSize": config.min_size,
        "maxSpe": config.max_spe,
        "seed": config.seed,
    }


_DERIVATIONS_HEADER = _document("derivations").decode()


def _derivation_line(provenance: GenerationProvenance) -> Iterator[str]:
    """The derivations line of one CG: json.dumps of its draws, encoded one draw at a time.

    Only one draw's dicts are alive at once, never the whole line's.
    """
    separator = '{"draws": ['
    for gamma, assignments, specialisations, merged, skipped in provenance.draws:
        draw = {
            "gamma": gamma,
            "assignments": dict(assignments),
            "specialisations": dict(specialisations),
            "merged": dict(merged),
            "skippedMerges": _kept_by_absorbed(skipped),
        }
        yield separator + "".join(_dumps(draw, 0))
        separator = ", "
    yield '{"draws": []}\n' if separator[0] == "{" else "]}\n"


_MARKER_OF = itemgetter(2)  # ConceptNode.marker, read without a Python call


def _check_kept(
    columns: dict[str, list[Any]], graph: ConceptualGraph, path: Path, number: int, name: str
) -> None:
    """Unless each kept node of line ``number`` is a marked concept of CG ``name``, raise.

    One set test covers the line; the draw and the absorbed node of the
    first fault are looked for only when it fails.
    """
    merged, skipped = columns["draws[].merged"], columns["draws[].skippedMerges"]
    kept = set(chain.from_iterable(map(dict.values, merged)))
    kept.update(chain.from_iterable(chain.from_iterable(map(dict.values, skipped))))
    concepts = graph.concepts
    if kept <= concepts.keys() and None not in map(_MARKER_OF, map(concepts.__getitem__, kept)):
        return
    for index, (merges, skips) in enumerate(zip(merged, skipped)):
        entries = chain(
            (("merged", other, kept) for other, kept in merges.items()),
            (("skippedMerges", other, kept) for other, kepts in skips.items() for kept in kepts),
        )
        for field, other, kept in entries:
            node = concepts.get(kept)
            if node is None or node.marker is None:
                fault = f"of {name} has no marker" if node else f"is not a concept of {name}"
                raise StructureError(
                    f"{path}:{number}: draws[{index}].{field}.{other}: kept node {kept!r} {fault}"
                )


class LoadedDataset(NamedTuple):
    graphs: tuple[ConceptualGraph, ...]
    config: dict[str, Any]
    stats: DatasetStats


class DatasetManifest(NamedTuple):
    """A dataset's checked manifest.json."""

    files: tuple[str, ...]
    stats: DatasetStats
    config: dict[str, Any]


def read_manifest(directory: "str | Path") -> DatasetManifest:
    """Check the manifest of the dataset in ``directory``; no CG is read."""
    path = Path(directory) / MANIFEST_FILE
    manifest = read_json(path)
    _checked(manifest, path, "dataset-manifest")
    stats = _load_stats(manifest["stats"], path)
    file_names = manifest["cgFiles"]
    if stats.cg_count != len(file_names):
        raise FormatError(
            f"{path}: cgFiles lists {len(file_names)} files for cgCount {stats.cg_count}"
        )
    for index, name in enumerate(file_names):
        if not plain_file_name(name):
            raise FormatError(f"{path}: cgFiles[{index}] {name!r} is not a plain file name")
    _require_unique(file_names, len(set(file_names)), path, "duplicate {id!r} at cgFiles[{index}]")
    return DatasetManifest(files=tuple(file_names), stats=stats, config=manifest["config"])


def _readline(lines: BinaryIO, path: Path, number: int) -> str:
    """Line ``number`` of the derivations file ``path``, decoded on its own; "" past the end."""
    return _decode(lines.readline(), f"{path}:{number}")


def _derivation(text: str, path: Path, number: int, name: str) -> dict[str, list[Any]]:
    """The columns of ``text``, line ``number`` of the derivations file ``path``, CG ``name``'s."""
    if not text:
        raise FormatError(f"{path}: no line {number}, the derivation of {name}")
    return _check("derivations", _object_in(text, path, number), f"{path}:{number}")


# A dataset is read back in batches of at most this much text, CG documents
# and derivations lines together, each batch checked in bulk. A CG is checked
# on its own only in a batch of one or in a batch with a fault. Against the
# CG-by-CG read, 64 KiB batches made a many-small `cggen validate` 7-9%
# faster (16 and 24 alternating runs, 2-core VM, CPython 3.11); 8 KiB ones
# gained nothing, 256 KiB ones as much and 1 MiB ones about 4%.
_READ_BATCH_BYTES = 1 << 16

# What a read of one CG gives: its file name and path, the number of its
# derivations line, and the text of each. A text that could not be read is
# the FormatError its read raised; a missing line is "".
_Entry = tuple[str, Path, int, str | FormatError, str | FormatError]


def _batches(
    directory: Path, files: Sequence[str], lines: BinaryIO, path: Path
) -> Iterator[list[_Entry]]:
    """The entry of each of ``files``, in order, in batches of at most ``_READ_BATCH_BYTES``.

    A larger CG forms a batch alone. An entry that holds a read error or a
    missing line ends the last batch.
    """
    batch: list[_Entry] = []
    size = 0
    for number, name in enumerate(files, 2):
        if batch and size >= _READ_BATCH_BYTES:
            # Handed over before the next CG is read, so that a batch of one
            # large CG is never held beside the next one's text.
            yield batch
            batch, size = [], 0
        text: str | FormatError
        line: str | FormatError = ""
        cg_path = directory / name
        try:
            text = _read_text(cg_path)
        except FormatError as exc:
            text = exc
        else:
            try:
                line = _readline(lines, path, number)
            except FormatError as exc:
                line = exc
        if type(line) is not str or not line:
            batch.append((name, cg_path, number, text, line))
            break
        length = len(text) + len(line)
        if batch and size + length > _READ_BATCH_BYTES:
            yield batch
            batch, size = [], 0
        batch.append((name, cg_path, number, text, line))
        size += length
    if batch:
        yield batch


def _text(read: str | FormatError) -> str:
    """The text a read gave, or the error it raised, raised now."""
    if isinstance(read, FormatError):
        raise read
    return read


def _bulk(batch: list[_Entry]) -> tuple[list[dict[str, Any]], dict, dict] | None:
    """The CG documents of ``batch``, and the columns of its documents and of its lines.

    Each document and line is parsed, and each column is checked once for
    the whole batch. None if any of them is at fault, or if a text could not
    be read: no check says which.
    """
    last = batch[-1][4]
    if type(last) is not str or not last:
        return None
    try:
        documents = [json.loads(text) for *_, text, _ in batch]
        derivations = [json.loads(line) for *_, line in batch]
    except (ValueError, RecursionError):
        return None
    if not all(type(document) is dict for document in documents):
        return None
    graphs: dict[str, list[Any]] = {}
    draws: dict[str, list[Any]] = {}
    try:
        for document in documents:
            _check_header(document, "", "cg")
        if _BULK["cg"](documents, graphs) and _BULK["derivations"](derivations, draws):
            return documents, graphs, draws
    except (FormatError, KeyError):
        pass
    return None


def _split(columns: dict[str, list], array: str, keys: Sequence[str]) -> list[dict[str, list]]:
    """Each document's part of the ``keys`` columns of a batch, by the length of its ``array``."""
    bounds = [*accumulate(map(len, columns[array]), initial=0)]
    spans = zip(bounds, bounds[1:])
    return [{key: columns[key][start:end] for key in keys} for start, end in spans]


_KEPT_KEYS = ("draws[].merged", "draws[].skippedMerges")


def _batch(batch: list[_Entry], path: Path) -> Iterator[tuple[str, ConceptualGraph]]:
    """Each CG of ``batch`` with its file name, and its first fault as a CG-by-CG read raises it.

    Each graph is built only as it is yielded. A batch of one, or one that
    fails its bulk check, is read one CG at a time: its CG, then its line.
    """
    bulk = _bulk(batch) if len(batch) > 1 else None
    if bulk is None:
        for name, cg_path, number, text, line in batch:
            graph = _cg(_object_in(_text(text), cg_path), cg_path)
            columns = _derivation(_text(line), path, number, name)
            _check_kept(columns, graph, path, number, name)
            yield name, graph
        return
    documents, graphs, draws = bulk
    parts = zip(
        batch,
        documents,
        _split(graphs, "concepts", _CONCEPT_KEYS),
        _split(graphs, "relations", _RELATION_KEYS),
        _split(draws, "draws", _KEPT_KEYS),
    )
    for (name, cg_path, number, _, _), document, concepts, relations, kept in parts:
        graph = _cg(document, cg_path, {**concepts, **relations})
        _check_kept(kept, graph, path, number, name)
        yield name, graph


def _dataset(directory: Path, files: Sequence[str]) -> Iterator[tuple[str, ConceptualGraph]]:
    """Each of ``files`` with its CG, once its derivations line is checked.

    The CG documents and their lines are read in ``files`` order, in
    batches of at most ``_READ_BATCH_BYTES`` of text (a larger CG alone),
    and each batch is parsed and checked in bulk. Each graph is built only
    as it is yielded, and nothing is kept from one batch to the next: the
    parsed line of a CG of 4000 nodes takes about 3 MB. The first fault is
    the one a CG-by-CG read reports, after the same CGs: a batch with one is
    read again one CG at a time, from the texts already read.
    """
    path = directory / DERIVATIONS_FILE
    try:
        lines = path.open("rb")
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}")
    with lines:
        _check_header(_object_in(_readline(lines, path, 1), path, 1), f"{path}:1", "derivations")
        for batch in _batches(directory, files, lines, path):
            yield from _batch(batch, path)
        if lines.readline():
            raise FormatError(f"{path}: more lines than a header and one per CG")


def iter_dataset(directory: "str | Path") -> Iterator[tuple[str, ConceptualGraph]]:
    """Each CG of a dataset with its file name, built one at a time.

    The manifest is checked before the first CG is read. The CG documents
    and their derivations lines are read in ``cgFiles`` order, in batches
    of at most 64 KiB of text (a larger CG alone), each checked in bulk and
    dropped before the next: the derivations are read only to be checked.
    The first error, and the CGs yielded before it, are those of reading
    each CG and then its line on its own. ``load_dataset`` reads the same
    way. Each CG is freed once the caller drops it: the memory this needs
    does not grow with the number of CGs.
    """
    directory = Path(directory)
    yield from _dataset(directory, read_manifest(directory).files)


def write_dataset(
    directory: "str | Path",
    cgs: Iterable[tuple[ConceptualGraph, GenerationProvenance]],
    config: GeneratorConfig,
) -> DatasetStats:
    """Write a dataset one CG at a time; return its statistics.

    Each CG is encoded as soon as ``cgs`` yields it, its derivation is
    appended to the open derivations file and its counts are added to the
    running statistics. Its document is written with the next batch, at
    most about 1 MiB of encoded text later, so the memory this needs does
    not grow with the number of CGs. The manifest goes last.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    file_names: list[str] = []
    tally = StatsTally()
    batch = _Batch()
    with (directory / DERIVATIONS_FILE).open("w", encoding="utf-8") as lines:
        lines.write(_DERIVATIONS_HEADER)
        for index, (graph, provenance) in enumerate(cgs):
            file_names.append(f"cg-{index:04d}.json")
            batch.add(os.path.join(directory, file_names[-1]), _cg_document(graph))
            tally.add(graph)
            lines.writelines(_derivation_line(provenance))
        batch.flush()
    stats = tally.stats()
    manifest = _document(
        "dataset-manifest",
        config=_config_doc(config),
        stats=_stats_doc(stats),
        cgFiles=file_names,
    )
    _write_bytes(directory / MANIFEST_FILE, manifest)
    return stats


def save_dataset(
    directory: "str | Path",
    graphs: Sequence[ConceptualGraph],
    *,
    config: GeneratorConfig,
    provenances: Sequence[GenerationProvenance],
    stats: DatasetStats,
) -> None:
    """Write one document per CG, the derivations and the manifest.

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
    """Load a whole dataset: every CG, with the manifest's config and statistics.

    The CGs are those ``iter_dataset`` yields, read and checked the same
    way, in batches of at most 64 KiB of text: each derivations line is
    checked and dropped, and no provenance record is built. ``cggen
    validate`` and ``cggen stats`` hold one built CG at a time, as
    ``iter_dataset`` does.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    graphs = tuple(graph for _, graph in _dataset(directory, manifest.files))
    return LoadedDataset(graphs, manifest.config, manifest.stats)


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

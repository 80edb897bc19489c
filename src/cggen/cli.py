"""Command-line front end.

Subcommands: generate, auto-voc, auto-gcg, auto-var, validate, stats,
export-dot. Exit codes: 0 success, 1 validation failure, 2 configuration or
parse error. Every behavior is a thin shell over the library.

The ``cggen`` process (``console_main``) runs with the cyclic garbage
collector off. cggen's data holds no reference cycles, so reference counting
frees all of it; left on, the collector repeatedly walks the lists and dicts
that ``json.loads`` and the generator build, for nothing.

Once ``main`` has returned its exit code, the process flushes stdout and
stderr and ends with ``os._exit``. That skips the interpreter's teardown,
which frees every module and object one by one, for memory the operating
system reclaims anyway: 9-15 ms of every child (CPython 3.11, one core of a
2-core VM). It also skips what teardown does besides: the atexit handlers,
of which cggen registers none, and the flushing of files left open, of which
cggen leaves none. Every writer closes its file in a ``with`` block or with
``os.close``, and the tests turn a ``ResourceWarning`` (a file never closed)
into an error. An exception from ``main``, argparse's ``SystemExit``
(``--help``, a usage error) and a failed flush leave the normal way, so the
interpreter reports them as it always has.

``main`` itself leaves the collector and teardown alone, so library and
in-process callers are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import formats
from .autogen import (
    AutoGcgConfig,
    AutoVarConfig,
    AutoVocConfig,
    ParamSpec,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
)
from .core import ConceptualGraph, Marker, Vocabulary, validate_graph
from .errors import CggenError, ConfigError, FormatError, StructureError, VocabularyError
from .gamma import GammaCG, validate_gamma
from .generator import (
    GenerationProvenance,
    GeneratorConfig,
    _name_problem,
    derive_rng,
    generate_cgs,
    validate_inputs,
)
from .metrics import compute_stats, stats_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2


def _check_keys(section: dict[str, Any], allowed: set[str], label: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {', '.join(unknown)}")


def _integer(value: Any, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer")
    return value


def _number(value: Any, label: str) -> float:
    # JSON true and false load as bool, a subclass of int; NaN loads as a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{label} must be a number")
    return float(value)


def _param(value: Any, label: str) -> ParamSpec:
    if isinstance(value, (int, float)):
        return ParamSpec.fixed(_number(value, label))
    if isinstance(value, dict):
        _check_keys(value, {"mean", "stddev"}, label)
        if "mean" not in value:
            raise ConfigError(f"{label} needs a mean")
        mean = _number(value["mean"], f"{label}.mean")
        stddev = _number(value.get("stddev", 0.0), f"{label}.stddev")
        return _record(ParamSpec, label, ("mean", "stddev"), mean, stddev)
    raise ConfigError(f"{label} must be a number or {{mean, stddev}}")


def _record(record: Any, label: str, keys: Sequence[str], *values: Any) -> Any:
    """``record(*values)``; a ConfigError that names a field first gets the field's key path.

    ``keys`` are the config keys of the record's fields, in field order.
    """
    try:
        return record(*values)
    except ConfigError as exc:
        key = dict(zip(record._fields, keys)).get(str(exc).partition(" ")[0])
        raise ConfigError(f"{label}.{key}: {exc}" if key else f"{label}: {exc}") from None


# The record of each section and the section's keys, in the record's field order.
_SECTIONS: dict[str, tuple[Any, tuple[str, ...]]] = {
    "autoVoc": (
        AutoVocConfig,
        ("conceptDepth", "relationDepth", "maxChildren", "markersPerType", "arities"),
    ),
    "autoGcg": (AutoGcgConfig, ("count", "minSize")),
    "autoVar": (
        AutoVarConfig,
        ("conceptVars", "relationVars", "markerVars", "valuesPerVariable", "specialisations"),
    ),
    "generator": (GeneratorConfig, ("maxCGs", "minSize", "maxSpe")),
}


def _section(doc: dict[str, Any], name: str, optional: str) -> tuple[Any, Sequence[str], dict]:
    """Section ``name``'s record, keys and object: its keys only, each present but ``optional``."""
    record, keys = _SECTIONS[name]
    section = doc.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} is missing or not an object")
    _check_keys(section, set(keys), name)
    missing = [key for key in keys if key not in section and key != optional]
    if missing:
        raise ConfigError(f"{name}.{missing[0]} is required")
    return record, keys, section


def _auto_config(doc: dict[str, Any], name: str) -> Any:
    """The record of auto-* section ``name``: a parameter per key but autoVoc's ``arities``."""
    record, keys, section = _section(doc, name, optional="arities")
    values = [_param(section[key], f"{name}.{key}") for key in keys if key != "arities"]
    if name == "autoVoc":
        arities = section.get("arities", [1, 2, 3])
        if not isinstance(arities, list):
            raise ConfigError("autoVoc.arities must be a list of integers")
        values.append(tuple(_integer(a, f"autoVoc.arities[{i}]") for i, a in enumerate(arities)))
    return _record(record, name, keys, *values)


def _generator_config(doc: dict[str, Any], seed: int) -> GeneratorConfig:
    record, keys, section = _section(doc, "generator", optional="maxSpe")
    values = [_integer(section.get(key, 0), f"generator.{key}") for key in keys]
    return _record(record, "generator", keys, *values, seed)


def _load_config_doc(config_path: str) -> tuple[dict[str, Any], Path]:
    """The config document, an absent or null ``inputs`` read as ``{}``, and its folder."""
    path = Path(config_path)
    doc = formats.read_json(path)
    _check_keys(doc, {"seed", "inputs", *_SECTIONS}, "config document")
    if doc.get("inputs") is None:
        doc["inputs"] = {}
    if not isinstance(doc["inputs"], dict):
        raise ConfigError("config section 'inputs' must be an object")
    _check_keys(doc["inputs"], {"vocabulary", "gammas"}, "inputs")
    return doc, path.parent


def _resolve_seed(doc: dict[str, Any], override: int | None) -> int:
    seed = doc.get("seed")
    if seed is not None:
        # Checked even when --seed overrides it.
        seed = _integer(seed, "seed")
    if override is not None:
        return override
    if seed is not None:
        return seed
    # Imported here: secrets loads OpenSSL, which no read-only command needs.
    import secrets

    return secrets.randbits(63)


def _source(doc: dict[str, Any], key: str, section: str, noun: str) -> Any:
    """``inputs.<key>``, or None when auto-* ``section`` makes it; exactly one must be given.

    A key counts as given whatever its value, unless that is null.
    """
    source = doc["inputs"].get(key)
    if (source is not None) == (section in doc):
        raise ConfigError(f"exactly one {noun} source is required (inputs.{key} or {section})")
    return source


def _resolve_vocabulary(doc: dict[str, Any], base: Path, seed: int) -> Callable[[], Vocabulary]:
    """Checks the vocabulary source; the stage that reads ``inputs.vocabulary`` or runs autoVoc."""
    path = doc["inputs"].get("vocabulary")
    if path is not None and not isinstance(path, str):
        raise ConfigError("inputs.vocabulary must be a file path")
    if _source(doc, "vocabulary", "autoVoc", "vocabulary") is not None:
        if not path:
            raise ConfigError("inputs.vocabulary must not be empty")
        return lambda: formats.load_vocabulary(base / path)
    config = _auto_config(doc, "autoVoc")
    return lambda: auto_vocabulary(config, derive_rng(seed, "auto-voc"))


def _gamma_paths(source: Any, base: Path) -> list[Path]:
    if isinstance(source, str):
        if not source:
            raise ConfigError("inputs.gammas must not be empty")
        directory = base / source
        if not directory.is_dir():
            raise ConfigError(f"inputs.gammas directory {directory} does not exist")
        paths = sorted(directory.glob("*.json"))
        if not paths:
            raise ConfigError(f"inputs.gammas directory {directory} holds no .json files")
        return paths
    if isinstance(source, list) and all(isinstance(p, str) for p in source):
        if not source:
            raise ConfigError("inputs.gammas lists no files")
        return [base / p for p in source]
    raise ConfigError("inputs.gammas must be a directory or a list of files")


def _resolve_gammas(doc: dict[str, Any], base: Path) -> list[Path] | AutoGcgConfig:
    """The gamma-CGs' files or their autoGcg parameters."""
    source = _source(doc, "gammas", "autoGcg", "gamma-CG")
    return _auto_config(doc, "autoGcg") if source is None else _gamma_paths(source, base)


def _load_gammas(doc: dict[str, Any], paths: list[Path], vocab: Vocabulary) -> list[GammaCG]:
    """The gamma-CGs in ``paths``, checked first when auto-var will run.

    Auto-var computes admissible domains from the graphs' labels, so an
    unknown label is reported beforehand with the lines generate_cgs would
    report. Without auto-var, generate_cgs checks them itself.
    """
    gammas = [formats.load_gamma_cg(path) for path in paths]
    if "autoVar" in doc:
        problems = validate_inputs(vocab, gammas)
        if problems:
            raise StructureError("invalid gamma-CGs in inputs.gammas:\n" + "\n".join(problems))
    return gammas


def _apply_auto_var(
    config: AutoVarConfig | None, gammas: list[GammaCG], vocab: Vocabulary, seed: int
) -> list[GammaCG]:
    if config is None:
        return gammas
    result = auto_variables(vocab, gammas, config, derive_rng(seed, "auto-var"))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return list(result.gammas)


class _OutputDir:
    """Creates the output directory; removes what its body wrote if it raises.

    Entered before a command's work, so a non-empty directory is rejected
    before any of it runs.
    """

    def __init__(self, out: str) -> None:
        self.path = Path(out)
        # The outermost directory this created, if any.
        self.created: Path | None = None

    def __enter__(self) -> Path:
        if self.path.exists():
            if not self.path.is_dir() or any(self.path.iterdir()):
                raise ConfigError(f"output directory {self.path} exists and is not empty")
        else:
            created = self.path
            while not created.parent.exists():
                created = created.parent
            try:
                self.path.mkdir(parents=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {self.path}: {exc.strerror}")
            self.created = created
        return self.path

    def __exit__(self, exc_type: type[BaseException] | None, *_: object) -> None:
        if exc_type is None:
            return
        if self.created is not None:
            shutil.rmtree(self.created, ignore_errors=True)
            return
        for child in self.path.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink(missing_ok=True)


def _minted_into(
    cgs: Iterable[tuple[ConceptualGraph, GenerationProvenance, tuple[Marker, ...]]],
    minted: list[tuple[str, tuple[str, ...]]],
) -> Iterator[tuple[ConceptualGraph, GenerationProvenance]]:
    """Each CG's graph and provenance; its minted markers go to ``minted``.

    A CG's markers are kept as one string of their ids, NUL-separated (a
    minted id is ``cg<i>-m<n>``), and the tuple of their types. Kept as
    Marker tuples, each CG's markers pinned the memory freed around them:
    at 64 CGs of 4000 nodes the peak was 2.7 MB higher than with this.
    """
    for graph, provenance, markers in cgs:
        ids, types = zip(*markers) if markers else ((), ())
        minted.append(("\0".join(ids), types))
        yield graph, provenance


def _unpacked(minted: list[tuple[str, tuple[str, ...]]]) -> Iterator[Marker]:
    """The markers ``_minted_into`` kept."""
    for ids, types in minted:
        yield from map(Marker, ids.split("\0"), types)


def _config_command(body: Callable[..., str]) -> Callable[[argparse.Namespace], int]:
    """The subcommand that runs ``body(doc, base, seed, out)`` and prints its summary line.

    ``--out`` is entered before ``body`` runs, and ``body`` checks every
    section it reads before its first stage.
    """

    def run(args: argparse.Namespace) -> int:
        doc, base = _load_config_doc(args.config)
        seed = _resolve_seed(doc, args.seed)
        with _OutputDir(args.out) as out:
            summary = body(doc, base, seed, out)
        print(f"seed: {seed}")
        print(summary)
        return EXIT_OK

    return run


@_config_command
def _cmd_generate(doc: dict[str, Any], base: Path, seed: int, out: Path) -> str:
    make_vocabulary = _resolve_vocabulary(doc, base, seed)
    gamma_source = _resolve_gammas(doc, base)
    variables = _auto_config(doc, "autoVar") if "autoVar" in doc else None
    config = _generator_config(doc, seed)
    vocab = make_vocabulary()
    if isinstance(gamma_source, AutoGcgConfig):
        result = auto_gamma_cgs(vocab, gamma_source, derive_rng(seed, "auto-gcg"))
        gammas, vocab = list(result.gammas), result.vocabulary
    else:
        gammas = _load_gammas(doc, gamma_source, vocab)
    gammas = _apply_auto_var(variables, gammas, vocab, seed)
    cgs = generate_cgs(vocab, gammas, config)
    minted: list[tuple[str, tuple[str, ...]]] = []
    stats = formats.write_dataset(out / formats.DATASET_DIR, _minted_into(cgs, minted), config)
    formats.save_stage(out, vocab.with_markers(_unpacked(minted)), gammas)
    return stats_table(stats)


@_config_command
def _cmd_auto_voc(doc: dict[str, Any], base: Path, seed: int, out: Path) -> str:
    vocab = auto_vocabulary(_auto_config(doc, "autoVoc"), derive_rng(seed, "auto-voc"))
    formats.save_vocabulary(out / formats.VOCABULARY_FILE, vocab)
    return f"wrote {out / formats.VOCABULARY_FILE}"


@_config_command
def _cmd_auto_gcg(doc: dict[str, Any], base: Path, seed: int, out: Path) -> str:
    make_vocabulary = _resolve_vocabulary(doc, base, seed)
    config = _auto_config(doc, "autoGcg")
    result = auto_gamma_cgs(make_vocabulary(), config, derive_rng(seed, "auto-gcg"))
    formats.save_stage(out, result.vocabulary, result.gammas)
    return f"wrote {len(result.gammas)} gamma-CGs to {out / formats.GAMMA_DIR}"


@_config_command
def _cmd_auto_var(doc: dict[str, Any], base: Path, seed: int, out: Path) -> str:
    make_vocabulary = _resolve_vocabulary(doc, base, seed)
    source = doc["inputs"].get("gammas")
    if source is None:
        raise ConfigError("auto-var needs inputs.gammas")
    paths = _gamma_paths(source, base)
    config = _auto_config(doc, "autoVar")
    vocab = make_vocabulary()
    gammas = _apply_auto_var(config, _load_gammas(doc, paths, vocab), vocab, seed)
    formats.save_stage(out, vocab, gammas)
    return f"wrote {len(gammas)} gamma-CGs to {out / formats.GAMMA_DIR}"


def _validate_directory(directory: Path, diagnostics: list[str]) -> None:
    vocab_path = directory / formats.VOCABULARY_FILE
    vocab = formats.load_vocabulary(vocab_path)
    gamma_dir = directory / formats.GAMMA_DIR
    if gamma_dir.is_dir():
        # Each gamma-CG is saved as gamma/<name>.json: its name follows
        # validate_inputs' rule and is its file's stem.
        names: set[str] = set()
        for path in sorted(gamma_dir.glob("*.json")):
            gcg = formats.load_gamma_cg(path)
            problem = _name_problem(gcg.name, names)
            if problem is None and gcg.name != path.stem:
                problem = f"name-mismatch: {gcg.name!r} is not the file's stem {path.stem!r}"
            if problem:
                diagnostics.append(f"{path}: {problem}")
            diagnostics.extend(f"{path}: {line}" for line in validate_gamma(vocab, gcg))
    dataset_dir = directory / formats.DATASET_DIR
    if dataset_dir.is_dir():
        # Held back until the whole dataset has loaded: a load error reports
        # only itself, whatever the CGs before it held.
        lines: list[str] = []
        manifest = formats.read_manifest(dataset_dir)
        max_cgs, min_size = manifest.config["maxCGs"], manifest.config["minSize"]
        if manifest.stats.cg_count != max_cgs:
            lines.append(
                f"{dataset_dir / formats.MANIFEST_FILE}: count-mismatch:"
                f" cgCount {manifest.stats.cg_count} is not config.maxCGs {max_cgs}"
            )
        # iter_dataset's reading, with the manifest read once.
        for name, graph in formats._dataset(dataset_dir, manifest.files):
            if graph.size < min_size:
                lines.append(
                    f"{dataset_dir / name}: too-small: {graph.size} nodes,"
                    f" below config.minSize {min_size}"
                )
            report = validate_graph(vocab, graph)
            lines.extend(f"{dataset_dir / name}: {line}" for line in report.lines())
        diagnostics.extend(lines)


def _admit(path: Path, vocab: Vocabulary | None, kind: Any) -> None:
    """Refuse a file ``cggen validate`` cannot check, before it is loaded."""
    if kind not in ("vocabulary", "cg", "gamma-cg"):
        raise ConfigError(f"{path}: cannot validate documents of kind {kind!r}")
    if kind != "vocabulary" and vocab is None:
        raise ConfigError(f"{path}: --vocab is required to validate a {kind} file")


def _cmd_validate(args: argparse.Namespace) -> int:
    diagnostics: list[str] = []
    vocab: Vocabulary | None = None
    if args.vocab:
        vocab = formats.load_vocabulary(args.vocab)
    for raw in args.paths:
        path = Path(raw)
        try:
            if path.is_dir():
                _validate_directory(path, diagnostics)
                continue
            loaded = formats.load_document(path, lambda kind: _admit(path, vocab, kind))
            if isinstance(loaded, ConceptualGraph):
                lines = validate_graph(vocab, loaded).lines()
            elif isinstance(loaded, GammaCG):
                lines = validate_gamma(vocab, loaded)
            else:
                continue
            diagnostics.extend(f"{path}: {line}" for line in lines)
        except (VocabularyError, StructureError) as exc:
            diagnostics.append(str(exc))
    for line in diagnostics:
        print(line)
    return EXIT_VALIDATION if diagnostics else EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = compute_stats(graph for _, graph in formats.iter_dataset(args.dataset))
    print(stats_table(stats))
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    graph = formats.load_cg(args.cg)
    text = formats.export_dot(graph)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cggen",
        description="Generate synthetic conceptual-graph datasets from ontological constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in [
        ("generate", _cmd_generate, "run the full pipeline and write a dataset"),
        ("auto-voc", _cmd_auto_voc, "generate a random vocabulary"),
        ("auto-gcg", _cmd_auto_gcg, "generate random gamma-CGs from a vocabulary"),
        ("auto-var", _cmd_auto_var, "attach random variables to gamma-CGs"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory (must be empty or absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func)
    # Accepts only 1, the default; kept for the benchmark harness's command line.
    generate = sub.choices["generate"]
    generate.add_argument("--jobs", type=int, default=1, choices=[1], help=argparse.SUPPRESS)

    p = sub.add_parser("validate", help="validate vocabularies, gamma-CGs, CGs or output dirs")
    p.add_argument("paths", nargs="+", help="files or output directories")
    p.add_argument("--vocab", default=None, help="vocabulary for standalone CG/gamma files")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="recompute and print dataset statistics")
    p.add_argument("dataset", help="dataset directory (holds manifest.json)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export-dot", help="render a CG as graphviz text")
    p.add_argument("cg", help="CG document")
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CggenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigError, FormatError)) else EXIT_VALIDATION


def console_main() -> None:
    # Reference counting frees everything cggen builds; the cyclic collector
    # would only rescan it (see the module docstring).
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without it
                stream.flush()
    except (OSError, ValueError):
        # A closed pipe or stream: the interpreter's exit flushes again and
        # reports the failure as it would without the shortcut below.
        raise SystemExit(code)
    # The output is out; skip the teardown (see the module docstring).
    os._exit(code)

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
from typing import Any, Iterable, Iterator, Sequence

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
        return ParamSpec.normal(mean, _number(value.get("stddev", 0.0), f"{label}.stddev"))
    raise ConfigError(f"{label} must be a number or {{mean, stddev}}")


def _section(doc: dict[str, Any], name: str) -> dict[str, Any]:
    value = doc.get(name)
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} is missing or not an object")
    return value


def _auto_voc_config(section: dict[str, Any]) -> AutoVocConfig:
    _check_keys(
        section,
        {"conceptDepth", "relationDepth", "maxChildren", "markersPerType", "arities"},
        "autoVoc",
    )
    for key in ("conceptDepth", "relationDepth", "maxChildren", "markersPerType"):
        if key not in section:
            raise ConfigError(f"autoVoc.{key} is required")
    arities = section.get("arities", [1, 2, 3])
    if not isinstance(arities, list):
        raise ConfigError("autoVoc.arities must be a list of integers")
    return AutoVocConfig(
        concept_depth=_param(section["conceptDepth"], "autoVoc.conceptDepth"),
        relation_depth=_param(section["relationDepth"], "autoVoc.relationDepth"),
        max_children=_param(section["maxChildren"], "autoVoc.maxChildren"),
        markers_per_type=_param(section["markersPerType"], "autoVoc.markersPerType"),
        arities=tuple(_integer(a, f"autoVoc.arities[{i}]") for i, a in enumerate(arities)),
    )


def _auto_gcg_config(section: dict[str, Any]) -> AutoGcgConfig:
    _check_keys(section, {"count", "minSize"}, "autoGcg")
    for key in ("count", "minSize"):
        if key not in section:
            raise ConfigError(f"autoGcg.{key} is required")
    return AutoGcgConfig(
        count=_param(section["count"], "autoGcg.count"),
        min_size=_param(section["minSize"], "autoGcg.minSize"),
    )


def _auto_var_config(section: dict[str, Any]) -> AutoVarConfig:
    allowed = {
        "conceptVars",
        "relationVars",
        "markerVars",
        "valuesPerVariable",
        "specialisations",
    }
    _check_keys(section, allowed, "autoVar")
    for key in allowed:
        if key not in section:
            raise ConfigError(f"autoVar.{key} is required")
    return AutoVarConfig(
        concept_vars=_param(section["conceptVars"], "autoVar.conceptVars"),
        relation_vars=_param(section["relationVars"], "autoVar.relationVars"),
        marker_vars=_param(section["markerVars"], "autoVar.markerVars"),
        values_per_variable=_param(section["valuesPerVariable"], "autoVar.valuesPerVariable"),
        specialisations=_param(section["specialisations"], "autoVar.specialisations"),
    )


def _generator_config(section: dict[str, Any], seed: int) -> GeneratorConfig:
    _check_keys(section, {"maxCGs", "minSize", "maxSpe"}, "generator")
    return GeneratorConfig(
        max_cgs=_integer(section.get("maxCGs"), "generator.maxCGs"),
        min_size=_integer(section.get("minSize"), "generator.minSize"),
        max_spe=_integer(section.get("maxSpe", 0), "generator.maxSpe"),
        seed=seed,
    )


def _load_config_doc(config_path: str) -> tuple[dict[str, Any], Path]:
    path = Path(config_path)
    doc = formats.read_json(path)
    _check_keys(
        doc,
        {"seed", "autoVoc", "autoGcg", "autoVar", "generator", "inputs"},
        "config document",
    )
    inputs = doc.get("inputs")
    if inputs is not None:
        if not isinstance(inputs, dict):
            raise ConfigError("config section 'inputs' must be an object")
        _check_keys(inputs, {"vocabulary", "gammas"}, "inputs")
    return doc, path.parent


def _resolve_seed(doc: dict[str, Any], override: int | None) -> int:
    if override is not None:
        return override
    seed = doc.get("seed")
    if seed is not None:
        return _integer(seed, "seed")
    # Imported here: secrets loads OpenSSL, which no read-only command needs.
    import secrets

    return secrets.randbits(63)


def _resolve_vocabulary(
    doc: dict[str, Any], base: Path, seed: int
) -> Vocabulary:
    inputs = doc.get("inputs", {})
    file_source = inputs.get("vocabulary") if isinstance(inputs, dict) else None
    if file_source is not None and not isinstance(file_source, str):
        raise ConfigError("inputs.vocabulary must be a file path")
    has_auto = "autoVoc" in doc
    if bool(file_source) == has_auto:
        raise ConfigError("exactly one vocabulary source is required (inputs.vocabulary or autoVoc)")
    if file_source:
        return formats.load_vocabulary(base / file_source)
    config = _auto_voc_config(_section(doc, "autoVoc"))
    return auto_vocabulary(config, derive_rng(seed, "auto-voc"))


def _gamma_paths(source: Any, base: Path) -> list[Path]:
    if isinstance(source, str):
        directory = base / source
        if not directory.is_dir():
            raise ConfigError(f"inputs.gammas directory {directory} does not exist")
        paths = sorted(directory.glob("*.json"))
        if not paths:
            raise ConfigError(f"inputs.gammas directory {directory} holds no .json files")
        return paths
    if isinstance(source, list) and all(isinstance(p, str) for p in source):
        return [base / p for p in source]
    raise ConfigError("inputs.gammas must be a directory or a list of files")


def _load_gammas(
    doc: dict[str, Any], source: Any, base: Path, vocab: Vocabulary
) -> list[GammaCG]:
    """The gamma-CGs of ``inputs.gammas``, checked first when auto-var will run.

    Auto-var computes admissible domains from the graphs' labels, so an
    unknown label is reported beforehand with the lines generate_cgs would
    report. Without auto-var, generate_cgs checks them itself.
    """
    gammas = [formats.load_gamma_cg(path) for path in _gamma_paths(source, base)]
    if "autoVar" in doc:
        problems = validate_inputs(vocab, gammas)
        if problems:
            raise StructureError("invalid gamma-CGs in inputs.gammas:\n" + "\n".join(problems))
    return gammas


def _resolve_gammas(
    doc: dict[str, Any], base: Path, seed: int, vocab: Vocabulary
) -> tuple[list[GammaCG], Vocabulary]:
    inputs = doc.get("inputs", {})
    file_source = inputs.get("gammas") if isinstance(inputs, dict) else None
    has_auto = "autoGcg" in doc
    if bool(file_source) == has_auto:
        raise ConfigError("exactly one gamma-CG source is required (inputs.gammas or autoGcg)")
    if file_source:
        return _load_gammas(doc, file_source, base, vocab), vocab
    config = _auto_gcg_config(_section(doc, "autoGcg"))
    result = auto_gamma_cgs(vocab, config, derive_rng(seed, "auto-gcg"))
    return list(result.gammas), result.vocabulary


def _apply_auto_var(
    doc: dict[str, Any],
    gammas: list[GammaCG],
    vocab: Vocabulary,
    seed: int,
) -> list[GammaCG]:
    if "autoVar" not in doc:
        return gammas
    config = _auto_var_config(_section(doc, "autoVar"))
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


def _cmd_generate(args: argparse.Namespace) -> int:
    doc, base = _load_config_doc(args.config)
    seed = _resolve_seed(doc, args.seed)
    with _OutputDir(args.out) as out:
        vocab = _resolve_vocabulary(doc, base, seed)
        gammas, vocab = _resolve_gammas(doc, base, seed, vocab)
        config = _generator_config(_section(doc, "generator"), seed)
        gammas = _apply_auto_var(doc, gammas, vocab, seed)
        cgs = generate_cgs(vocab, gammas, config)
        minted: list[tuple[str, tuple[str, ...]]] = []
        stats = formats.write_dataset(out / formats.DATASET_DIR, _minted_into(cgs, minted), config)
        formats.save_stage(out, vocab.with_markers(_unpacked(minted)), gammas)
    print(f"seed: {seed}")
    print(stats_table(stats))
    return EXIT_OK


def _cmd_auto_voc(args: argparse.Namespace) -> int:
    doc, _base = _load_config_doc(args.config)
    seed = _resolve_seed(doc, args.seed)
    with _OutputDir(args.out) as out:
        config = _auto_voc_config(_section(doc, "autoVoc"))
        vocab = auto_vocabulary(config, derive_rng(seed, "auto-voc"))
        formats.save_vocabulary(out / formats.VOCABULARY_FILE, vocab)
    print(f"seed: {seed}")
    print(f"wrote {out / formats.VOCABULARY_FILE}")
    return EXIT_OK


def _cmd_auto_gcg(args: argparse.Namespace) -> int:
    doc, base = _load_config_doc(args.config)
    seed = _resolve_seed(doc, args.seed)
    with _OutputDir(args.out) as out:
        vocab = _resolve_vocabulary(doc, base, seed)
        config = _auto_gcg_config(_section(doc, "autoGcg"))
        result = auto_gamma_cgs(vocab, config, derive_rng(seed, "auto-gcg"))
        formats.save_stage(out, result.vocabulary, result.gammas)
    print(f"seed: {seed}")
    print(f"wrote {len(result.gammas)} gamma-CGs to {out / formats.GAMMA_DIR}")
    return EXIT_OK


def _cmd_auto_var(args: argparse.Namespace) -> int:
    doc, base = _load_config_doc(args.config)
    seed = _resolve_seed(doc, args.seed)
    with _OutputDir(args.out) as out:
        vocab = _resolve_vocabulary(doc, base, seed)
        inputs = doc.get("inputs", {})
        source = inputs.get("gammas") if isinstance(inputs, dict) else None
        if not source:
            raise ConfigError("auto-var needs inputs.gammas")
        config = _auto_var_config(_section(doc, "autoVar"))
        gammas = _load_gammas(doc, source, base, vocab)
        result = auto_variables(vocab, gammas, config, derive_rng(seed, "auto-var"))
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        formats.save_stage(out, vocab, result.gammas)
    print(f"seed: {seed}")
    print(f"wrote {len(result.gammas)} gamma-CGs to {out / formats.GAMMA_DIR}")
    return EXIT_OK


def _validate_directory(directory: Path, diagnostics: list[str]) -> None:
    vocab_path = directory / formats.VOCABULARY_FILE
    vocab = formats.load_vocabulary(vocab_path)
    gamma_dir = directory / formats.GAMMA_DIR
    if gamma_dir.is_dir():
        for path in sorted(gamma_dir.glob("*.json")):
            gcg = formats.load_gamma_cg(path)
            diagnostics.extend(f"{path}: {line}" for line in validate_gamma(vocab, gcg))
    dataset_dir = directory / formats.DATASET_DIR
    if dataset_dir.is_dir():
        # Held back until the whole dataset has loaded: a load error reports
        # only itself, whatever the CGs before it held.
        lines: list[str] = []
        for name, graph in formats.iter_dataset(dataset_dir):
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

    def add_config_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory (must be empty or absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("generate", help="run the full pipeline and write a dataset")
    add_config_out(p)
    # Accepts only 1, the default; kept for the benchmark harness's command line.
    p.add_argument("--jobs", type=int, default=1, choices=[1], help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("auto-voc", help="generate a random vocabulary")
    add_config_out(p)
    p.set_defaults(func=_cmd_auto_voc)

    p = sub.add_parser("auto-gcg", help="generate random gamma-CGs from a vocabulary")
    add_config_out(p)
    p.set_defaults(func=_cmd_auto_gcg)

    p = sub.add_parser("auto-var", help="attach random variables to gamma-CGs")
    add_config_out(p)
    p.set_defaults(func=_cmd_auto_var)

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
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CggenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


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

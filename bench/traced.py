"""Traced, in-process equivalent of ``cggen generate`` for one workload.

Calls each module's public functions in the order ``cli._cmd_generate``
does, with a span around every call, and writes the spans plus the counters
read off the results to ``--spans`` when it ends. Its output directory must
hash to the same digest as the CLI's, which ``run.py`` checks.

It then runs the layer probes under a second top-level span: the autogen
stages the workload pins (``auto_vocabulary``, and on workloads whose
gamma-CGs are pinned ``auto_gamma_cgs`` and ``auto_variables``), which must
rebuild the input files exactly; ``PROBE_CALLS`` calls of ``instantiate``
per gamma-CG; and reading the written output back (vocabulary, dataset,
``validate_graph`` over every CG).

Run by ``run.py``; needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import Tracer

from cggen import formats, generator
from cggen.autogen import (
    AutoGcgConfig,
    AutoVarConfig,
    AutoVocConfig,
    ParamSpec,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
)
from cggen.core import validate_graph
from cggen.errors import InstantiationError
from cggen.gamma import instantiate
from cggen.generator import GeneratorConfig, MarkerMint, derive_rng, generate_dataset
from cggen.metrics import compute_stats, stats_table

# instantiate calls per gamma-CG in the probe.
PROBE_CALLS = 20


def _fixed(section: dict, key: str) -> ParamSpec:
    # The CLI turns a plain number into ParamSpec.fixed(float(value)).
    return ParamSpec.fixed(float(section[key]))


def _auto_gcg(vocab, section: dict, seed: int):
    return auto_gamma_cgs(
        vocab,
        AutoGcgConfig(_fixed(section, "count"), _fixed(section, "minSize")),
        derive_rng(seed, "auto-gcg"),
    )


def _auto_var(vocab, gammas: list, section: dict, seed: int):
    return auto_variables(
        vocab,
        gammas,
        AutoVarConfig(
            concept_vars=_fixed(section, "conceptVars"),
            relation_vars=_fixed(section, "relationVars"),
            marker_vars=_fixed(section, "markerVars"),
            values_per_variable=_fixed(section, "valuesPerVariable"),
            specialisations=_fixed(section, "specialisations"),
        ),
        derive_rng(seed, "auto-var"),
        signature_compatible=True,
    )


def _file_order(gammas) -> list:
    # The CLI reads a gamma-CG directory in file-name order, and the stages
    # write one <name>.json per gamma-CG.
    return sorted(gammas, key=lambda g: f"{g.name}.json")


def _pipeline(tracer: Tracer, config_path: Path, out: Path, seed: int) -> tuple:
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    base = config_path.parent
    with tracer.span("formats.load_vocabulary"):
        input_vocab = formats.load_vocabulary(base / doc["inputs"]["vocabulary"])

    if "autoGcg" in doc:
        with tracer.span("autogen.auto_gamma_cgs"):
            components = _auto_gcg(input_vocab, doc["autoGcg"], seed)
        gammas, vocab = list(components.gammas), components.vocabulary
    else:
        with tracer.span("formats.load_gamma_cg"):
            paths = sorted((base / doc["inputs"]["gammas"]).glob("*.json"))
            gammas, vocab = [formats.load_gamma_cg(path) for path in paths], input_vocab

    section = doc["generator"]
    config = GeneratorConfig(
        max_cgs=section["maxCGs"],
        min_size=section["minSize"],
        max_spe=int(section.get("maxSpe", 0)),
        seed=seed,
    )

    warnings: list[str] = []
    if "autoVar" in doc:
        with tracer.span("autogen.auto_variables"):
            variables = _auto_var(vocab, gammas, doc["autoVar"], seed)
        warnings = list(variables.warnings)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        gammas = list(variables.gammas)

    with tracer.span("generator.generate_dataset"):
        result = generate_dataset(vocab, gammas, config, jobs=1)
    with tracer.span("metrics.compute_stats"):
        stats = compute_stats(result.graphs)
    with tracer.span("formats.save"):
        out.mkdir(parents=True)
        formats.save_result(out, result, gammas)
        formats.save_dataset(
            out / formats.DATASET_DIR,
            result.graphs,
            config=config,
            provenances=result.provenances,
            stats=stats,
        )
    print(f"seed: {seed}")
    print(stats_table(stats))

    draws = [draw for provenance in result.provenances for draw in provenance.draws]
    nodes = sum(graph.size for graph in result.graphs)
    counters = {
        "autogen.markers": len(vocab.markers),
        "autogen.gamma_nodes": sum(g.graph.size for g in gammas),
        "autogen.variables": sum(len(g.variables) for g in gammas),
        "autogen.warnings": len(warnings),
        "generator.cgs": len(result.graphs),
        "generator.nodes": nodes,
        "generator.draws": len(draws),
        "generator.merges": sum(len(d.merged) for d in draws),
        "generator.skipped_merges": sum(len(d.skipped_merges) for d in draws),
        "generator.minted_markers": len(result.vocabulary.markers) - len(vocab.markers),
    }
    return input_vocab, vocab, gammas, result, counters


def _probe(
    tracer: Tracer, args: argparse.Namespace, input_vocab, vocab, gammas, result
) -> tuple[dict, dict]:
    pinned = json.loads(args.inputs_config.read_text(encoding="utf-8"))
    section = pinned["autoVoc"]
    with tracer.span("autogen.auto_vocabulary"):
        rebuilt = auto_vocabulary(
            AutoVocConfig(
                concept_depth=_fixed(section, "conceptDepth"),
                relation_depth=_fixed(section, "relationDepth"),
                max_children=_fixed(section, "maxChildren"),
                markers_per_type=_fixed(section, "markersPerType"),
            ),
            derive_rng(pinned["seed"], "auto-voc"),
        )
    counters = {}
    rebuilt_gammas = gammas
    if "autoGcg" in pinned:
        # The stages ran one after another through files: auto-var read the
        # gamma-CGs auto-gcg wrote, in file-name order.
        with tracer.span("autogen.auto_gamma_cgs"):
            components = _auto_gcg(rebuilt, pinned["autoGcg"], pinned["seed"])
        rebuilt = components.vocabulary
        with tracer.span("autogen.auto_variables"):
            variables = _auto_var(
                rebuilt, _file_order(components.gammas), pinned["autoVar"], pinned["seed"]
            )
        rebuilt_gammas = _file_order(variables.gammas)
        counters["autogen.warnings"] = len(variables.warnings)

    attempts = failures = 0
    with tracer.span("gamma.instantiate"):
        for gcg in gammas:
            mint = MarkerMint(vocab, "probe")
            for _ in range(PROBE_CALLS):
                rng = derive_rng(args.seed, "probe", attempts)
                try:
                    instantiate(vocab, gcg, rng, mint=mint)
                except InstantiationError:
                    failures += 1
                attempts += 1

    with tracer.span("formats.load_vocabulary"):
        loaded_vocab = formats.load_vocabulary(args.out / formats.VOCABULARY_FILE)
    with tracer.span("formats.load_dataset"):
        loaded = formats.load_dataset(args.out / formats.DATASET_DIR)
    violations = 0
    with tracer.span("core.validate_graph"):
        for graph in loaded.graphs:
            violations += len(validate_graph(loaded_vocab, graph).violations)

    counters.update(
        {
            "gamma.instantiate.attempts": attempts,
            "gamma.instantiate.failures": failures,
            "core.violations": violations,
        }
    )
    checks = {
        "autogen_rebuilds_inputs": rebuilt == input_vocab and rebuilt_gammas == gammas,
        "readback_matches_generated": loaded.graphs == result.graphs
        and loaded_vocab == result.vocabulary,
        "no_violations": violations == 0,
    }
    return counters, checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument(
        "--inputs-config", type=Path, required=True, help="seed and autogen sections of the pinned inputs"
    )
    args = parser.parse_args()

    tracer = Tracer(args.run_id)
    original_validate_inputs = generator.validate_inputs

    def traced_validate_inputs(*a, **kw):
        with tracer.span("generator.validate_inputs"):
            return original_validate_inputs(*a, **kw)

    # generate_dataset looks validate_inputs up in its module at call time,
    # so this span nests inside generator.generate_dataset.
    generator.validate_inputs = traced_validate_inputs

    with tracer.span("generate"):
        input_vocab, vocab, gammas, result, counters = _pipeline(
            tracer, args.config, args.out, args.seed
        )
    with tracer.span("probe"):
        probe_counters, checks = _probe(tracer, args, input_vocab, vocab, gammas, result)
    counters.update(probe_counters)
    tracer.dump(args.spans, counters=counters, checks=checks)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

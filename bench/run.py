"""The cggen benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload many-small --seed 1 --seconds 40 --trace 0

``--trace 0`` runs ``cggen generate --jobs 1`` as one child process at a
time, for ``--seconds`` seconds, and reports the end-to-end metrics. Every
timed child sits between two runs of a fixed reference child
(``reference.py``), and its wall time is scaled by them to a fixed machine
speed. Each value is the mean over the repeats without the lowest and
highest tenth, printed with the median, quartiles and sample count; NOTES.md
says why. Every repeat is checked (see ``check_output``); a failed check
counts in ``run_fail_ratio`` and never stops the run.

``--trace 1`` alternates a traced in-process run of the same pipeline
(``traced.py``) with untraced CLI runs and reports the per-layer metrics,
read from the traced run's spans and counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, including
the output digest, go to ``bench/results/``. Standard library only; the
program under test is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from harness import (
    ChildResult,
    TreeDigest,
    at_reference_speed,
    duration,
    ratio,
    repeats,
    run_child,
    self_time,
    summary,
    tree_digest,
    trimmed_mean,
    under,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Inputs made once per run, before timing, with this seed rather than the
# run's (NOTES.md, "Seeds"): the vocabulary on every workload, and the
# gamma-CGs with their variables where "pinGammas" is set. Left to the run
# seed, the vocabulary's shape alone moved rich-inputs' run time 2.6x, and
# the gamma-CGs moved large-cg's output size by 9% (quartile spread over
# seeds), against 1% with them pinned. 42 is the README's seed; on
# rich-inputs it gives the 18-type, 1800-marker vocabulary the workload is
# meant to stress.
INPUT_SEED = 42

README_VOC = {"conceptDepth": 4, "relationDepth": 3, "maxChildren": 3, "markersPerType": 3}
README_GCG = {"count": 20, "minSize": 8}
README_VAR = {
    "conceptVars": 1,
    "relationVars": 1,
    "markerVars": 1,
    "valuesPerVariable": 4,
    "specialisations": 3,
}

# Why each workload exists is written up in NOTES.md.
WORKLOADS = {
    "many-small": {
        "pinGammas": True,
        "autoVoc": README_VOC,
        "autoGcg": README_GCG,
        "autoVar": README_VAR,
        "generator": {"maxCGs": 500, "minSize": 30, "maxSpe": 3},
    },
    "large-cg": {
        "pinGammas": True,
        "autoVoc": README_VOC,
        "autoGcg": README_GCG,
        "autoVar": README_VAR,
        "generator": {"maxCGs": 4, "minSize": 4000, "maxSpe": 3},
    },
    "rich-inputs": {
        "pinGammas": False,
        "autoVoc": {"conceptDepth": 5, "relationDepth": 4, "maxChildren": 3, "markersPerType": 100},
        "autoGcg": {"count": 20, "minSize": 50},
        "autoVar": {
            "conceptVars": 4,
            "relationVars": 4,
            "markerVars": 4,
            "valuesPerVariable": 8,
            "specialisations": 3,
        },
        "generator": {"maxCGs": 50, "minSize": 200, "maxSpe": 3},
    },
}

END_TO_END_UNITS = {
    "generate_s": "s",
    "nodes_per_s": "nodes/s",
    "setup_s": "s",
    "readback_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

PER_LAYER_UNITS = {
    "autogen.auto_vocabulary.s": "s",
    "autogen.auto_gamma_cgs.s": "s",
    "autogen.auto_variables.s": "s",
    "autogen.markers": "count",
    "autogen.gamma_nodes": "count",
    "autogen.variables": "count",
    "generator.validate_inputs.s": "s",
    "generator.generate_dataset.s": "s",
    "generator.generate_dataset.self_s": "s",
    "generator.cg_ms": "ms",
    "generator.draws": "count",
    "generator.nodes_per_draw": "nodes/draw",
    "generator.merges": "count",
    "generator.skipped_merges": "count",
    "generator.minted_markers": "count",
    "gamma.instantiate.s_per_call": "s",
    "gamma.instantiate.attempts": "count",
    "gamma.instantiate.failures": "count",
    "gamma.instantiate.fail_ratio": "ratio",
    "metrics.compute_stats.s": "s",
    "formats.save.s": "s",
    "formats.files_written": "count",
    "formats.bytes_written": "B",
    "formats.load_dataset.s": "s",
    "formats.load_vocabulary.s": "s",
    "core.validate_graph.s": "s",
    "cli.import_s": "s",
    "trace.wall_ratio": "ratio",
}

# Printed with the per-layer metrics and kept in the detail file, but not
# declared: the first two are 0 on every workload (violations fail the run),
# and the overhead is a difference of two noisy times that can come out
# negative.
TRACE_INFO_UNITS = {
    "autogen.warnings": "count",
    "core.violations": "count",
    "trace.overhead_s": "s",
}

# Printed with the end-to-end metrics and kept in the detail file, but not
# declared: the raw wall times behind the scaled ones, and the reference
# child's own wall time (the mean of the two readings around each child).
WALL_UNITS = {
    "setup.wall_s": "s",
    "generate.wall_s": "s",
    "readback.wall_s": "s",
    "reference.wall_s": "s",
}

# The reference child's wall time on a machine running at full speed (the
# fast level of the 2-core host the benchmark was built on). A timed child's
# wall time w, taken between reference readings r, is reported as
# w * REFERENCE_S / r: its wall time at that speed. NOTES.md says why.
REFERENCE_S = 0.3

CGGEN = [sys.executable, "-c", "from cggen.cli import console_main; console_main()"]
CHILD_TIMEOUT_S = 120
MIN_REPEATS = 3
IMPORT_REPEATS = 5


def cg_sizes(dataset: Path) -> list[int] | None:
    """Node count of every CG the manifest lists; None if any is unreadable."""
    try:
        manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
        sizes = []
        for name in manifest["cgFiles"]:
            doc = json.loads((dataset / name).read_text(encoding="utf-8"))
            sizes.append(len(doc["concepts"]) + len(doc["relations"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return sizes


class Bench:
    """One benchmark run: a private work directory, its inputs and its checks."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: TreeDigest | None = None
        self.table: str | None = None
        self.nodes = 0
        self.verified: set[str] = set()

    # -- processes -------------------------------------------------------

    def child(self, argv: list[str]) -> ChildResult:
        return run_child(
            argv, env=self.env, cwd=ROOT, log_dir=self.work, timeout_s=CHILD_TIMEOUT_S
        )

    def generate(self, config: Path, out: Path) -> ChildResult:
        shutil.rmtree(out, ignore_errors=True)
        return self.child(
            CGGEN
            + ["generate", "--config", str(config), "--out", str(out)]
            + ["--seed", str(self.seed), "--jobs", "1"]
        )

    # -- inputs ----------------------------------------------------------

    def prepare(self) -> None:
        """Byte-compile the program, then write the workload's inputs."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        built = self.child([sys.executable, "-m", "compileall", "-q", str(SRC)])
        if built.returncode != 0:
            raise SystemExit(f"compileall failed:\n{built.stdout}{built.stderr}")

        spec = self.spec
        pinned = {"seed": INPUT_SEED, "autoVoc": spec["autoVoc"]}
        self.stage("auto-voc", "voc", pinned)
        inputs = {"vocabulary": "voc/vocabulary.json"}
        autogen = {"autoGcg": spec["autoGcg"], "autoVar": spec["autoVar"]}
        if spec["pinGammas"]:
            pinned |= autogen
            gcg = {"vocabulary": "gcg/vocabulary.json", "gammas": "gcg/gamma"}
            self.stage("auto-gcg", "gcg", {"seed": INPUT_SEED, "inputs": inputs, "autoGcg": spec["autoGcg"]})
            self.stage("auto-var", "var", {"seed": INPUT_SEED, "inputs": gcg, "autoVar": spec["autoVar"]})
            inputs = {"vocabulary": "var/vocabulary.json", "gammas": "var/gamma"}
            autogen = {}
        self.inputs_config = self.work / "inputs.json"
        self.inputs_config.write_text(json.dumps(pinned), encoding="utf-8")

        def write_config(name: str, generator: dict) -> Path:
            path = self.work / name
            doc = {"inputs": inputs, **autogen, "generator": generator}
            path.write_text(json.dumps(doc), encoding="utf-8")
            return path

        self.config = write_config("run.json", spec["generator"])
        # The same command stopped after one CG of a single component: what
        # remains is interpreter start, import, config, loading the inputs,
        # auto-gcg and auto-var where they are not pinned, validate_inputs
        # and the saves.
        self.setup_config = write_config(
            "setup.json", {**spec["generator"], "maxCGs": 1, "minSize": 1}
        )

    def stage(self, command: str, name: str, doc: dict) -> None:
        """Run one ``cggen auto-*`` stage into ``<work>/<name>``."""
        config = self.work / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        done = self.child(CGGEN + [command, "--config", str(config), "--out", str(self.work / name)])
        if done.returncode != 0:
            raise SystemExit(f"cggen {command} failed:\n{done.stderr}")

    # -- checks ----------------------------------------------------------

    def fail(self, reason: str) -> bool:
        self.failures.append(reason)
        return False

    def outcome(self, ok: bool) -> bool:
        """Count one attempted run, and whether it failed."""
        self.attempted += 1
        self.failed += not ok
        return ok

    def check_output(self, gen: ChildResult, out: Path) -> bool:
        """The correctness gate for one ``generate`` child.

        Every repeat: exit code 0, and the same output digest and printed
        statistics as the run's first repeat (same seed, so determinism).
        For each digest not seen before, also: ``cggen validate`` and
        ``cggen stats`` run on it, the manifest lists exactly maxCGs CGs of
        at least minSize nodes each, and ``stats`` prints the row
        ``generate`` printed. Identical bytes give identical results, so
        those run once per digest.
        """
        if gen.returncode != 0:
            return self.fail(f"generate exited {gen.returncode}: {gen.stderr.strip()[-500:]}")
        table = "\n".join(gen.stdout.strip().splitlines()[-2:])
        digest = tree_digest(out)
        if self.digest is None:
            self.digest, self.table = digest, table
        elif digest != self.digest or table != self.table:
            return self.fail(f"same seed, different output: {digest.sha256} vs {self.digest.sha256}")
        if digest.sha256 in self.verified:
            return True
        validated = self.child(CGGEN + ["validate", str(out)])
        if validated.returncode != 0:
            return self.fail(f"validate exited {validated.returncode}: {validated.stdout[-500:]}")
        stats = self.child(CGGEN + ["stats", str(out / "dataset")])
        if stats.returncode != 0 or stats.stdout.strip() != table:
            return self.fail(f"stats row {stats.stdout.strip()!r} != generate row {table!r}")
        generator = self.spec["generator"]
        sizes = cg_sizes(out / "dataset")
        if sizes is None or len(sizes) != generator["maxCGs"]:
            return self.fail(f"manifest does not list {generator['maxCGs']} readable CGs")
        if min(sizes) < generator["minSize"]:
            return self.fail(f"a CG has {min(sizes)} nodes, below minSize")
        self.nodes = sum(sizes)
        self.verified.add(digest.sha256)
        return True

    def check_setup(self, setup: ChildResult, out: Path) -> bool:
        if setup.returncode != 0:
            return self.fail(f"set-up run exited {setup.returncode}: {setup.stderr[-500:]}")
        sizes = cg_sizes(out / "dataset")
        if sizes is None or len(sizes) != 1 or sizes[0] < 1:
            return self.fail("set-up run did not write exactly one non-empty CG")
        return True

    # -- the two modes ---------------------------------------------------

    def reference(self) -> float:
        """Wall time of one reference child (``reference.py``)."""
        ref = self.child([sys.executable, str(BENCH / "reference.py")])
        if ref.returncode != 0:
            raise SystemExit(f"reference.py exited {ref.returncode}: {ref.stderr[-500:]}")
        return ref.wall_s

    def end_to_end(self, seconds: float) -> dict[str, list[float]]:
        """Timed repeats: reference, set-up, generate, reference, read-back, reference.

        Each timed child is scaled by the mean of the reference times on
        either side of it (``at_reference_speed``); the raw wall times are
        kept under ``*.wall``.
        """
        samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS | WALL_UNITS}
        out = self.work / "out"
        setup_out = self.work / "setup-out"
        before = self.reference()
        for _ in repeats(seconds, MIN_REPEATS):
            setup = self.generate(self.setup_config, setup_out)
            setup_ok = self.check_setup(setup, setup_out)
            gen = self.generate(self.config, out)
            middle = self.reference()
            ok = self.check_output(gen, out) and setup_ok
            if ok:
                readback = self.child(CGGEN + ["validate", str(out)])
                if readback.returncode != 0:
                    ok = self.fail(f"validate exited {readback.returncode}")
            after = self.reference()
            first, second = (before + middle) / 2, (middle + after) / 2
            before = after
            samples["reference.wall_s"].extend((first, second))
            if not self.outcome(ok):
                continue
            generate_s = at_reference_speed(gen.wall_s, first, REFERENCE_S)
            samples["setup_s"].append(at_reference_speed(setup.wall_s, first, REFERENCE_S))
            samples["generate_s"].append(generate_s)
            samples["nodes_per_s"].append(self.nodes / generate_s)
            samples["readback_s"].append(at_reference_speed(readback.wall_s, second, REFERENCE_S))
            samples["peak_rss_mb"].append(gen.peak_rss_mb)
            samples["output_mb"].append(self.digest.bytes / 1e6)
            samples["setup.wall_s"].append(setup.wall_s)
            samples["generate.wall_s"].append(gen.wall_s)
            samples["readback.wall_s"].append(readback.wall_s)
        return samples

    def traced(self, seconds: float) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS | TRACE_INFO_UNITS}
        for _ in range(IMPORT_REPEATS):
            imported = self.child([sys.executable, "-c", "import cggen.cli"])
            if self.outcome(
                imported.returncode == 0
                or self.fail(f"import cggen.cli exited {imported.returncode}")
            ):
                samples["cli.import_s"].append(imported.wall_s)

        out = self.work / "out"
        traced_out = self.work / "traced-out"
        traced_walls: list[float] = []
        untraced_walls: list[float] = []
        for repeat in repeats(seconds, MIN_REPEATS):
            gen = self.generate(self.config, out)
            if self.outcome(self.check_output(gen, out)):
                untraced_walls.append(gen.wall_s)

            spans_path = self.work / "spans.json"
            shutil.rmtree(traced_out, ignore_errors=True)
            run = self.child(
                [sys.executable, str(BENCH / "traced.py")]
                + ["--config", str(self.config), "--out", str(traced_out)]
                + ["--seed", str(self.seed), "--spans", str(spans_path)]
                + ["--run-id", f"{self.workload}-{self.seed}-{repeat}"]
                + ["--inputs-config", str(self.inputs_config)]
            )
            if not self.outcome(self.check_output(run, traced_out) and self.check_trace(spans_path)):
                continue
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            self._collect(trace, samples)
            probe_s = sum(duration(s) for s in trace["spans"] if s["name"] == "probe")
            traced_walls.append(run.wall_s - probe_s)

        if traced_walls and untraced_walls:
            traced_s, untraced_s = trimmed_mean(traced_walls), trimmed_mean(untraced_walls)
            samples["trace.wall_ratio"].append(ratio(traced_s, untraced_s))
            samples["trace.overhead_s"].append(traced_s - untraced_s)
        samples["formats.files_written"].append(self.digest.files if self.digest else 0)
        samples["formats.bytes_written"].append(self.digest.bytes if self.digest else 0)
        return samples

    def check_trace(self, spans_path: Path) -> bool:
        checks = json.loads(spans_path.read_text(encoding="utf-8"))["checks"]
        if not all(checks.values()):
            return self.fail(f"traced run checks failed: {checks}")
        return True

    @staticmethod
    def _collect(trace: dict, samples: dict[str, list[float]]) -> None:
        spans = trace["spans"]
        counters = trace["counters"]

        def seconds(root: str, name: str) -> float:
            return sum(duration(s) for s in under(spans, root, name))

        # auto-gcg and auto-var run in the pipeline where the gamma-CGs are
        # made per run, and in the probe where they are pinned inputs.
        for name in ("autogen.auto_gamma_cgs", "autogen.auto_variables"):
            samples[f"{name}.s"].append(seconds("generate", name) + seconds("probe", name))
        for name in (
            "generator.validate_inputs",
            "generator.generate_dataset",
            "metrics.compute_stats",
            "formats.save",
        ):
            samples[f"{name}.s"].append(seconds("generate", name))
        (generate_span,) = under(spans, "generate", "generator.generate_dataset")
        samples["generator.generate_dataset.self_s"].append(self_time(spans, generate_span["id"]))
        samples["generator.cg_ms"].append(
            1000 * duration(generate_span) / counters["generator.cgs"]
        )
        for name in (
            "autogen.markers",
            "autogen.gamma_nodes",
            "autogen.variables",
            "autogen.warnings",
            "generator.draws",
            "generator.merges",
            "generator.skipped_merges",
            "generator.minted_markers",
        ):
            samples[name].append(counters[name])
        samples["generator.nodes_per_draw"].append(
            ratio(counters["generator.nodes"], counters["generator.draws"])
        )
        attempts = counters["gamma.instantiate.attempts"]
        samples["gamma.instantiate.attempts"].append(attempts)
        samples["gamma.instantiate.failures"].append(counters["gamma.instantiate.failures"])
        samples["gamma.instantiate.fail_ratio"].append(
            ratio(counters["gamma.instantiate.failures"], attempts)
        )
        samples["gamma.instantiate.s_per_call"].append(
            ratio(seconds("probe", "gamma.instantiate"), attempts)
        )
        samples["core.violations"].append(counters["core.violations"])
        for name in (
            "autogen.auto_vocabulary",
            "formats.load_vocabulary",
            "formats.load_dataset",
            "core.validate_graph",
        ):
            samples[f"{name}.s"].append(seconds("probe", name))


def report(
    bench: Bench,
    samples: dict[str, list[float]],
    units: dict[str, str],
    info_units: dict[str, str],
    trace: int,
) -> int:
    missing = [name for name in units | info_units if not samples[name]]
    if missing:
        for reason in bench.failures:
            print(f"failure: {reason}", file=sys.stderr)
        print(f"no successful samples for {', '.join(missing)}", file=sys.stderr)
        return 1

    summaries = {name: summary(samples[name]) for name in units}
    information = {name: summary(samples[name]) for name in info_units}
    failed = bench.failed
    print(f"workload {bench.workload}  seed {bench.seed}  trace {trace}")
    all_units = units | info_units
    for name, s in (summaries | information).items():
        print(
            f"  {name:36s} {s['trimmed_mean']:.6g} {all_units[name]}  (median {s['median']:.6g},"
            f" q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
            + ("  information only" if name in info_units else "")
        )
    print(
        f"  {'run_fail_ratio':36s} {failed / bench.attempted:.6g} ratio"
        f"  ({failed} failed of {bench.attempted} runs attempted)"
    )
    digest = bench.digest.sha256 if bench.digest else None
    print(f"  output sha256 {digest} (information only)")
    for reason in bench.failures:
        print(f"  failure: {reason}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = {
        "workload": bench.workload,
        "seed": bench.seed,
        "inputSeed": INPUT_SEED,
        "trace": trace,
        "config": bench.spec,
        "attempted": bench.attempted,
        "failed": failed,
        "failures": bench.failures,
        "outputSha256": digest,
        "metrics": {name: {**s, "unit": units[name]} for name, s in summaries.items()},
        "information": {name: {**s, "unit": info_units[name]} for name, s in information.items()},
        "samples": {name: samples[name] for name in units | info_units},
    }
    (results / f"{bench.workload}-seed{bench.seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8"
    )
    line = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": s["trimmed_mean"], "unit": units[name]}
            for name, s in summaries.items()
        },
    }
    print(json.dumps(line))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="cggen benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cggen" / "cli.py").is_file():
        print(f"error: {SRC / 'cggen'} not found; run from a cggen checkout", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One core for this process and every child it starts, so that the
        # reference child runs where the timed children run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed)
    try:
        bench.prepare()
        if args.trace:
            return report(bench, bench.traced(args.seconds), PER_LAYER_UNITS, TRACE_INFO_UNITS, 1)
        return report(bench, bench.end_to_end(args.seconds), END_TO_END_UNITS, WALL_UNITS, 0)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

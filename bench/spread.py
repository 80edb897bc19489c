"""Run the benchmark twice on each seed and report how far the two runs agree.

    python3 bench/spread.py --seeds 1-10 --workloads many-small large-cg \\
        --out bench/results/e2e.json

Sets A and B run the same code, interleaved one seed at a time: A then B on
seed 1, A then B on seed 2, and so on. For every metric it prints:

- ``same-seed``: the largest, over seeds, of larger / smaller - 1 between
  the A and B runs of one seed. A parent and a change are compared on the
  same seed, so this is what a bound in BENCHMARK.json has to cover.
- each set's median over the seeds and its spread: the distance between
  the first and third quartile as a share of that median. The seeds are
  different inputs, so the spread mixes the workload's own variation with
  noise.
- ``B/A``: the ratio of the two sets' medians.

An end-to-end metric is within its bound when the same-seed difference and
the medians' ratio stay within it, and so does each set's spread (except for
``setup_s``, whose spread the bound does not govern). Every run's
correctness and output digest go to ``--out``; A and B must give the same
digest on each seed. Exits 1 if a run fails or a bound is passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from harness import spread, summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = ("A", "B")


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def apart(a: float, b: float) -> float | None:
    """How far two positive values are apart: larger / smaller - 1."""
    if min(a, b) <= 0:
        return None
    return max(a, b) / min(a, b) - 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload]
        + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    wall_s = time.perf_counter() - started
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    return {"seed": seed, "wall_s": wall_s, **result, "outputSha256": detail["outputSha256"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary_doc: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {name: [] for name in SETS}
        for seed in args.seeds:
            pair = [run_once(workload, seed, args.seconds, args.trace) for _ in SETS]
            if None in pair:
                ok = False
                continue
            for name, run in zip(SETS, pair):
                runs[name].append(run)
                ok &= run["correct"]
            same = pair[0]["outputSha256"] == pair[1]["outputSha256"]
            ok &= same
            print(
                f"{workload} seed {seed}: correct {[r['correct'] for r in pair]},"
                f" same digest {same}, {pair[0]['wall_s']:.1f} s + {pair[1]['wall_s']:.1f} s",
                flush=True,
            )

        metrics = {}
        for name in runs["A"][0]["metrics"] if runs["A"] else []:
            values = {s: [run["metrics"][name]["value"] for run in runs[s]] for s in SETS}
            sets = {s: summary(values[s]) for s in SETS}
            for s in SETS:
                sets[s]["spread"] = spread(values[s]) if sets[s]["median"] > 0 else None
            same_seed = [apart(a, b) for a, b in zip(values["A"], values["B"])]
            worst = None if None in same_seed else max(same_seed)
            medians = apart(sets["A"]["median"], sets["B"]["median"])
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                checked = [worst, medians] + (
                    [] if name == "setup_s" else [sets[s]["spread"] for s in SETS]
                )
                within = all(v is not None and v <= bound for v in checked)
                ok &= within
                verdict = "ok" if within else "PAST BOUND"
            metrics[name] = {
                "bound": bound,
                "sameSeed": same_seed,
                "sameSeedMax": worst,
                "medianRatioBA": sets["B"]["median"] / sets["A"]["median"]
                if sets["A"]["median"]
                else None,
                **{s: {**sets[s], "values": values[s]} for s in SETS},
            }

            def shown(value: float | None) -> str:
                return "n/a" if value is None else f"{value:.3f}"

            print(
                f"  {name:36s} same-seed {shown(worst)}"
                f"  A {sets['A']['median']:.6g} ({shown(sets['A']['spread'])})"
                f"  B {sets['B']['median']:.6g} ({shown(sets['B']['spread'])})"
                f"  B/A {shown(metrics[name]['medianRatioBA'])}  bound {bound}  {verdict}",
                flush=True,
            )
        summary_doc["workloads"][workload] = {"runs": runs, "metrics": metrics}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary_doc, indent=2) + "\n", encoding="utf-8")
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

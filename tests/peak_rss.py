"""Peak RSS of `cggen generate` and `cggen validate` must not grow with the number of CGs.

Byte-compiles ``src`` first, in a child: a child that compiles the modules
it imports peaks about 1 MB higher. Then runs ``console_main`` on the
README's run configuration at each point of ``POINTS``, each run in its own
child of this process, then ``cggen validate`` on each output, and reads each
child's own peak resident set with ``os.wait4``:

- ``minSize`` 4000 at 4, 16 and 64 CGs. The 64-CG point also bounds the
  markers minted per CG that the vocabulary validate reads carries.
- ``minSize`` 30 at 100 and 1000 CGs, which validate reads back in batches
  of many CGs.

Exits 1 if generate or validate peaks more than ``SLACK_MB`` above the
first run of its point at a later one.

A child's peak counts the resident set of the process that started it, so
this one imports neither cggen nor pytest: it reads the configuration from
the README's JSON block.

    PYTHONPATH=src python tests/peak_rss.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CODE = "from cggen.cli import console_main; console_main()"
# Each point: the CGs' minSize and the CG counts run, the first being the
# baseline of the others.
POINTS = ((4000, (4, 16, 64)), (30, (100, 1000)))
# How far, in MB, each later run's peak may rise above the point's first.
SLACK_MB = 4


def peak_rss_mb(argv: list[str]) -> float:
    """The peak RSS, in MB, of one cggen child run with ``argv``."""
    child = subprocess.Popen([sys.executable, "-c", CODE, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"cggen {' '.join(argv)} failed")
    # Linux reports ru_maxrss in KiB.
    return usage.ru_maxrss * 1024 / 1e6


def generate(work: Path, min_size: int, max_cgs: int) -> tuple[Path, float]:
    """`cggen generate`'s output, ``max_cgs`` CGs of ``min_size`` nodes, and its peak RSS in MB."""
    text = README.read_text(encoding="utf-8")
    config = json.loads(re.search(r"^```json\n(.*?)^```", text, re.M | re.S).group(1))
    config["generator"] = {"maxCGs": max_cgs, "minSize": min_size, "maxSpe": 3}
    path = work / f"run-{min_size}-{max_cgs}.json"
    path.write_text(json.dumps(config))
    out = work / f"out-{min_size}-{max_cgs}"
    return out, peak_rss_mb(["generate", "--config", str(path), "--out", str(out)])


def main() -> int:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    status = 0
    with tempfile.TemporaryDirectory() as work:
        for min_size, counts in POINTS:
            peaks: dict[str, dict[int, float]] = {"generate": {}, "validate": {}}
            for count in counts:
                out, peaks["generate"][count] = generate(Path(work), min_size, count)
                peaks["validate"][count] = peak_rss_mb(["validate", str(out)])
            for step, peak in peaks.items():
                line = ", ".join(f"{count} CGs {mb:.1f} MB" for count, mb in peak.items())
                print(f"peak RSS of {step} at minSize {min_size}: {line}")
            for step, peak in peaks.items():
                for count in counts[1:]:
                    if peak[count] > peak[counts[0]] + SLACK_MB:
                        print(
                            f"error: {step} at {count} CGs of minSize {min_size} peaks more"
                            f" than {SLACK_MB} MB above {counts[0]} CGs",
                            file=sys.stderr,
                        )
                        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

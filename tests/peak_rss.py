"""Peak RSS of `cggen generate` and `cggen validate` must not grow with the number of CGs.

Runs ``console_main`` on the README's run configuration with ``minSize``
4000 at 4, 16 and 64 CGs, each in its own child of this process, then
``cggen validate`` on each output, and reads each child's own peak resident
set with ``os.wait4``. The 64-CG point also bounds what the derivation
writer caches within one dataset, and the markers minted per CG that the
vocabulary validate reads carries. Exits 1 if generate or validate peaks
more than ``SLACK_MB`` above its 4-CG run at 16 or 64 CGs.

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

README = Path(__file__).resolve().parent.parent / "README.md"
CODE = "from cggen.cli import console_main; console_main()"
# The CG counts run, the first being the baseline of the others.
COUNTS = (4, 16, 64)
# How far, in MB, each larger run's peak may rise above the 4-CG peak.
SLACK_MB = 4


def peak_rss_mb(argv: list[str]) -> float:
    """The peak RSS, in MB, of one cggen child run with ``argv``."""
    child = subprocess.Popen([sys.executable, "-c", CODE, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"cggen {' '.join(argv)} failed")
    # Linux reports ru_maxrss in KiB.
    return usage.ru_maxrss * 1024 / 1e6


def generate(work: Path, max_cgs: int) -> tuple[Path, float]:
    """The output of `cggen generate` at ``max_cgs`` CGs of 4000 nodes, and its peak RSS in MB."""
    text = README.read_text(encoding="utf-8")
    config = json.loads(re.search(r"^```json\n(.*?)^```", text, re.M | re.S).group(1))
    config["generator"] = {"maxCGs": max_cgs, "minSize": 4000, "maxSpe": 3}
    path = work / f"run-{max_cgs}.json"
    path.write_text(json.dumps(config))
    out = work / f"out-{max_cgs}"
    return out, peak_rss_mb(["generate", "--config", str(path), "--out", str(out)])


def main() -> int:
    peaks: dict[str, dict[int, float]] = {"generate": {}, "validate": {}}
    with tempfile.TemporaryDirectory() as work:
        for count in COUNTS:
            out, peaks["generate"][count] = generate(Path(work), count)
            peaks["validate"][count] = peak_rss_mb(["validate", str(out)])
    for step, peak in peaks.items():
        line = ", ".join(f"{count} CGs {mb:.1f} MB" for count, mb in peak.items())
        print(f"peak RSS of {step}: {line}")
    status = 0
    for step, peak in peaks.items():
        baseline = peak[COUNTS[0]]
        for count in COUNTS[1:]:
            if peak[count] > baseline + SLACK_MB:
                print(
                    f"error: {step} at {count} CGs peaks more than {SLACK_MB} MB"
                    f" above {COUNTS[0]} CGs",
                    file=sys.stderr,
                )
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

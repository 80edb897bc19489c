"""Peak RSS of `cggen generate` must not grow with the number of CGs.

Runs ``console_main`` on the README's run configuration with ``minSize``
4000 at 4, 16 and 64 CGs, each in its own child of this process, and reads
each child's own peak resident set with ``os.wait4``. Exits 1 if the 16-CG
or the 64-CG run peaks more than ``SLACK_MB`` above the 4-CG run. The 64-CG
point also bounds what the provenance writer caches within one write.

It then runs ``cggen validate`` on each output and prints its peak too, for
information only: validate reads one CG at a time, but it parses the
provenance document whole, so its peak still grows with the number of CGs.

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


def generate_and_validate(work: Path, max_cgs: int) -> tuple[float, float]:
    """The peak RSS, in MB, of `cggen generate` at ``max_cgs`` CGs of 4000 nodes,
    then of `cggen validate` on its output."""
    text = README.read_text(encoding="utf-8")
    config = json.loads(re.search(r"^```json\n(.*?)^```", text, re.M | re.S).group(1))
    config["generator"] = {"maxCGs": max_cgs, "minSize": 4000, "maxSpe": 3}
    path = work / f"run-{max_cgs}.json"
    path.write_text(json.dumps(config))
    out = str(work / f"out-{max_cgs}")
    return (
        peak_rss_mb(["generate", "--config", str(path), "--out", out]),
        peak_rss_mb(["validate", out]),
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        peaks = {count: generate_and_validate(Path(work), count) for count in COUNTS}
    for step, index in (("generate", 0), ("validate", 1)):
        line = ", ".join(f"{count} CGs {peak[index]:.1f} MB" for count, peak in peaks.items())
        print(f"peak RSS of {step}: {line}")
    print("(validate: information only; the provenance is parsed whole)")
    baseline = peaks[COUNTS[0]][0]
    status = 0
    for count in COUNTS[1:]:
        if peaks[count][0] > baseline + SLACK_MB:
            print(
                f"error: {count} CGs peak more than {SLACK_MB} MB above {COUNTS[0]} CGs",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

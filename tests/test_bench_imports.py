"""The benchmark's traced run imports library names directly.

Importing it here makes a rename or move of any of those names fail the
test suite, not only the benchmark smoke run.
"""

import os
import subprocess
import sys
from pathlib import Path

import cggen

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_benchmark_imports():
    src = str(Path(cggen.__file__).resolve().parent.parent)
    path = [str(BENCH), src, os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", "import traced"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr

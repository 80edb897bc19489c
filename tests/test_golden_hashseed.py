"""The README golden must not depend on how strings hash.

Python salts string hashes per process, so code that iterates a set or
frozenset of ids can visit them in another order in every run. Running the
`test_golden.py` config under two fixed `PYTHONHASHSEED` values makes such
an order fail every test run, not only a run whose random salt is unlucky.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cggen
from test_golden import GOLDEN_FILES, GOLDEN_SHA256, README_CONFIG, tree_digest


def run_generate(tmp_path, run_config, hash_seed):
    """Run `cggen generate` on ``run_config`` in a child with a fixed hash seed; the output path."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(run_config))
    out = tmp_path / "out"
    src = str(Path(cggen.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    code = "import sys; from cggen.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "generate", "--config", str(config), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return out


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_digest_under_fixed_hash_seed(tmp_path, hash_seed):
    out = run_generate(tmp_path, README_CONFIG, hash_seed)
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)

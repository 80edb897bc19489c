"""The cggen process entry point runs with the cyclic garbage collector off.

That is safe only while reference counting frees everything cggen builds,
so a run must leave no more cyclic garbage at 50 CGs than at 5.
"""

import copy
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import cggen
from cggen.cli import main
from test_golden import GOLDEN_FILES, GOLDEN_SHA256, README_CONFIG, tree_digest

SRC = Path(cggen.__file__).resolve().parents[1]


def test_console_main_output_digest_is_pinned(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["generate", "--config", str(config), "--out", str(out)]
    code = "from cggen.cli import console_main; console_main()"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)


def cyclic_garbage_of_a_run(tmp_path, max_cgs):
    """Objects the cyclic collector finds after generate, validate and stats."""
    config = copy.deepcopy(README_CONFIG)
    config["generator"]["maxCGs"] = max_cgs
    config_path = tmp_path / f"run-{max_cgs}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / f"out-{max_cgs}"
    gc.collect()
    gc.disable()
    try:
        assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        assert main(["stats", str(out / "dataset")]) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_dataset(tmp_path, capsys):
    small = cyclic_garbage_of_a_run(tmp_path, 5)
    large = cyclic_garbage_of_a_run(tmp_path, 50)
    capsys.readouterr()
    assert small == large

"""The cggen process entry point.

It runs with the cyclic garbage collector off. That is safe only while
reference counting frees everything cggen builds, so a run must leave no
more cyclic garbage at 50 CGs than at 5.

It also ends the process without the interpreter's teardown once ``main``
has returned, so what a child prints and the code it exits with must be
what ``main`` gives in-process, and a closed or missing stream must end it
as the interpreter's own exit would.
"""

import copy
import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cggen
from cggen.cli import main
from test_golden import GOLDEN_FILES, GOLDEN_SHA256, README_CONFIG, tree_digest

SRC = Path(cggen.__file__).resolve().parents[1]
CONSOLE_MAIN = "from cggen.cli import console_main; console_main()"
# The entry point with the interpreter's own exit: the reference for what a
# failed write of the output does.
NORMAL_EXIT = "import gc; from cggen.cli import main; gc.disable(); raise SystemExit(main())"


def child_env(**changes):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Output to a pipe is buffered unless this says otherwise.
    env.pop("PYTHONUNBUFFERED", None)
    env.update(changes)
    return env


def run_console_main(argv, *options):
    return subprocess.run(
        [sys.executable, *options, "-c", CONSOLE_MAIN, *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


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


@pytest.mark.skipif(
    not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")),
    reason="this Python has no SHA-256 module of its own",
)
def test_generate_loads_no_openssl(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(README_CONFIG))
    argv = ["generate", "--config", str(config), "--out", str(tmp_path / "out")]
    # -X importtime writes one line per module imported to stderr; -S keeps
    # the site imports out.
    done = run_console_main(argv, "-S", "-X", "importtime")
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "cggen.generator" in imported and imported & {"_sha2", "_sha256"}
    assert not imported & {"_hashlib", "hashlib"}


@pytest.fixture(scope="module")
def small_output(tmp_path_factory):
    """A small generated output, its first CG's type changed to one its vocabulary lacks."""
    root = tmp_path_factory.mktemp("small")
    config = copy.deepcopy(README_CONFIG)
    config["generator"] = {"maxCGs": 3, "minSize": 20, "maxSpe": 2}
    (root / "run.json").write_text(json.dumps(config))
    out = root / "out"
    assert main(["generate", "--config", str(root / "run.json"), "--out", str(out)]) == 0
    tampered = out / "tampered.json"
    doc = json.loads((out / "dataset" / "cg-0000.json").read_text())
    doc["concepts"][0]["type"] = "NoSuchType"
    tampered.write_text(json.dumps(doc))
    (root / "bad.json").write_text(json.dumps({**config, "bogus": 1}))
    return root


def argv_of(case, root, out):
    """The arguments of one exit-path case; ``out`` is a fresh output directory."""
    vocab = str(root / "out" / "vocabulary.json")
    return {
        "generate": ["generate", "--config", str(root / "run.json"), "--out", str(out)],
        "validate-tampered": ["validate", str(root / "out" / "tampered.json"), "--vocab", vocab],
        "bad-config": ["generate", "--config", str(root / "bad.json"), "--out", str(out)],
        "unknown-flag": ["generate", "--no-such-flag"],
        "stats": ["stats", str(root / "out" / "dataset")],
    }[case]


@pytest.mark.parametrize(
    "case, code",
    [("generate", 0), ("validate-tampered", 1), ("bad-config", 2), ("unknown-flag", 2)],
)
def test_child_prints_and_exits_as_main_does(small_output, tmp_path, capsys, case, code):
    capsys.readouterr()
    try:
        returned = main(argv_of(case, small_output, tmp_path / "in-process"))
    except SystemExit as exc:  # argparse
        returned = exc.code
    expected = capsys.readouterr()
    done = run_console_main(argv_of(case, small_output, tmp_path / "child"))
    assert (done.returncode, done.stdout, done.stderr) == (code, expected.out, expected.err)
    assert returned == code


@pytest.mark.parametrize("case", ["stats", "validate-tampered"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_the_child_as_the_interpreter_would(small_output, case, unbuffered):
    def run(code):
        reader, writer = os.pipe()
        os.close(reader)  # closed before the child writes
        try:
            done = subprocess.run(
                [sys.executable, "-c", code, *argv_of(case, small_output, None)],
                env=child_env(PYTHONUNBUFFERED=unbuffered),
                stdout=writer,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
            )
        finally:
            os.close(writer)
        # A traceback's frames differ between the two entry points; the
        # unindented lines name what was raised and what was ignored.
        return done.returncode, [line for line in done.stderr.splitlines() if line[:1] != " "]

    ours = run(CONSOLE_MAIN)
    assert ours[1][-1] == "BrokenPipeError: [Errno 32] Broken pipe"
    assert ours == run(NORMAL_EXIT)


@pytest.mark.parametrize("case", ["stats", "bad-config"])
@pytest.mark.parametrize("closed", [1, 2], ids=["no-stdout", "no-stderr"])
def test_child_started_without_a_stream_exits_as_the_interpreter_would(
    small_output, tmp_path, case, closed
):
    # Python sets sys.stdout or sys.stderr to None when the process starts
    # with that descriptor closed; this wrapper closes it, then runs the child.
    wrapper = f"import os, sys; os.close({closed}); os.execv(sys.executable, sys.argv[1:])"

    def run(code, out):
        argv = [sys.executable, "-c", code, *argv_of(case, small_output, out)]
        done = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        return done.returncode, done.stdout, done.stderr

    assert run(CONSOLE_MAIN, tmp_path / "one") == run(NORMAL_EXIT, tmp_path / "two")


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


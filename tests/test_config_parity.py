"""What the generating commands answer when one field of the run configuration is broken.

Two run configurations are used: a tiny full-auto one, and a staged one with
no autoVoc or autoGcg section whose ``inputs`` name the vocabulary and the
gamma-CG directory of an ``auto-gcg`` output, resolved relative to the
config file. For every field path of each (the first item of a list only),
the field is deleted, set to null, or set to one value of another JSON type.
``cggen generate`` then runs on the broken config in-process, and so does
each other command that reads the field's section: ``auto-voc`` and
``auto-gcg`` on the full-auto config, ``auto-var`` on the staged one, and
``generate --seed 3`` on the full-auto config's seed, which it overrides. Its
exit code and standard error, with the temporary folder written ``<root>``,
must equal the pins in ``config_parity.json``. A config without a seed
draws one from ``secrets.randbits``, which the test fixes, so a run that
succeeds prints the same warnings every time.

    python tests/test_config_parity.py

rewrites the pins from the current code. Run it only for a deliberate
change of a message or an exit code, and say which pins changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import secrets
import shutil
import sys
from pathlib import Path

import pytest

from cggen.cli import main
from test_field_parity import MUTATIONS, field_paths, mutated

PINS = Path(__file__).with_name("config_parity.json")
FULL_AUTO = {
    "seed": 7,
    "autoVoc": {
        "conceptDepth": 3,
        "relationDepth": 2,
        "maxChildren": 2,
        "markersPerType": 1,
        "arities": [1, 2, 3],
    },
    "autoGcg": {"count": 2, "minSize": 6},
    "autoVar": {
        "conceptVars": 1,
        "relationVars": 1,
        "markerVars": {"mean": 1, "stddev": 1},
        "valuesPerVariable": 2,
        "specialisations": 2,
    },
    "generator": {"maxCGs": 2, "minSize": 12, "maxSpe": 2},
}
# FULL_AUTO's generated sections replaced by the files of its auto-gcg output.
STAGED = {
    **{key: value for key, value in FULL_AUTO.items() if key not in ("autoVoc", "autoGcg")},
    "inputs": {"vocabulary": "stage/vocabulary.json", "gammas": "stage/gamma"},
}
CONFIGS = {"full-auto": FULL_AUTO, "staged": STAGED}
# The commands run on each config, with the top-level fields each reads:
# auto-var needs inputs.gammas, which only the staged config has.
COMMANDS = {
    "full-auto": {
        "generate": ("seed", "autoVoc", "autoGcg", "autoVar", "generator"),
        "auto-voc": ("autoVoc",),
        "auto-gcg": ("autoVoc", "autoGcg"),
        "generate --seed 3": ("seed",),
    },
    "staged": {
        "generate": ("seed", "autoVar", "generator", "inputs"),
        "auto-var": ("inputs", "autoVar"),
    },
}
ENTROPY_SEED = 11


def prepare(root: Path) -> Path:
    """Write the stage the staged config reads; ``root``."""
    config = root / "full-auto.json"
    config.write_text(json.dumps(FULL_AUTO))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["auto-gcg", "--config", str(config), "--out", str(root / "stage")]) == 0
    return root


def cases():
    """(config name, command, path, mutation) for every pinned run."""
    for name, config in CONFIGS.items():
        for path in field_paths(config):
            for command, sections in COMMANDS[name].items():
                if path[0] not in sections:
                    continue
                for mutation in MUTATIONS:
                    if mutation == "delete" and isinstance(path[-1], int):
                        continue  # a list item is nulled or retyped, never removed
                    yield name, command, list(path), mutation


def answer(root: Path, command: str, text: str) -> dict:
    """``cggen <command>``'s exit code and standard error on the config ``text``."""
    config = root / "run.json"
    config.write_text(text)
    out = root / "out"
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*command.split(), "--config", str(config), "--out", str(out)])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"exit": code, "stderr": stderr.getvalue().replace(str(root), "<root>")}


def case_id(name: str, command: str, path, mutation: str) -> str:
    dotted = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return f"{name}:{command}:{dotted[1:]}:{mutation}"


def pinned() -> list[dict]:
    return json.loads(PINS.read_text()) if PINS.exists() else []


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return prepare(tmp_path_factory.mktemp("config"))


@pytest.fixture
def entropy(monkeypatch):
    monkeypatch.setattr(secrets, "randbits", lambda bits: ENTROPY_SEED)


def test_pins_cover_every_field():
    expected = [case_id(*case) for case in cases()]
    got = [case_id(p["config"], p["command"], p["path"], p["mutation"]) for p in pinned()]
    assert got == expected


def test_unbroken_configs_run(root, entropy):
    for name, commands in COMMANDS.items():
        for command in commands:
            assert answer(root, command, json.dumps(CONFIGS[name])) == {"exit": 0, "stderr": ""}


@pytest.mark.parametrize(
    "pin", pinned(), ids=lambda p: case_id(p["config"], p["command"], p["path"], p["mutation"])
)
def test_config_answer_is_pinned(root, entropy, pin):
    text = mutated(json.dumps(CONFIGS[pin["config"]]), pin["path"], pin["mutation"])
    got = answer(root, pin["command"], text)
    assert got == {key: pin[key] for key in ("exit", "stderr")}


if __name__ == "__main__":
    import tempfile

    secrets.randbits = lambda bits: ENTROPY_SEED
    with tempfile.TemporaryDirectory() as scratch:
        root = prepare(Path(scratch))
        pins = [
            {"config": name, "command": command, "path": path, "mutation": mutation}
            | answer(root, command, mutated(json.dumps(CONFIGS[name]), path, mutation))
            for name, command, path, mutation in cases()
        ]
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}", file=sys.stderr)

"""What ``cggen validate`` answers when one field of a saved document is broken.

A small seeded output (2 CGs of 30 nodes) is generated once. For every
field path of its vocabulary, first gamma-CG, first CG, manifest, and the
header and first CG's line of its derivations file (the first entry of each
list only), the field is deleted, set to null, or set to one value of
another JSON type. ``cggen validate <out>`` then runs on the tree, and its
exit code, standard output and standard error, with the output directory
written ``<out>``, must equal the pins in ``field_parity.json``. Every
mutated document is still valid JSON, so no message of the JSON decoder,
which differs between Python versions, is pinned.

    python tests/test_field_parity.py

rewrites the pins from the current code. Run it only for a deliberate
change of a message or an exit code, and say which pins changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cggen.cli import main

PINS = Path(__file__).with_name("field_parity.json")
DOCUMENTS = (
    "vocabulary.json",
    "gamma/gcg-0.json",
    "dataset/cg-0000.json",
    "dataset/manifest.json",
    # Lines of a file are named <file>:<line number>.
    "dataset/derivations.jsonl:1",
    "dataset/derivations.jsonl:2",
)
CONFIG = {
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
        "markerVars": 1,
        "valuesPerVariable": 2,
        "specialisations": 2,
    },
    "generator": {"maxCGs": 2, "minSize": 30, "maxSpe": 2},
}
MUTATIONS = ("delete", "null", "retype")


def generate(root: Path) -> Path:
    config = root / "run.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    return out


def field_paths(value, prefix=()):
    """The path of every object member and of the first item of every list, outermost first."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from field_paths(item, prefix + (key,))
    elif isinstance(value, list) and value:
        yield prefix + (0,)
        yield from field_paths(value[0], prefix + (0,))


def source(out: Path, document: str) -> tuple[Path, int | None]:
    """The file that holds ``document``, and its line number if it is one line."""
    name, _, line = document.partition(":")
    return out / name, int(line) if line else None


def read(out: Path, document: str) -> str:
    path, line = source(out, document)
    text = path.read_text()
    return text if line is None else text.splitlines()[line - 1]


def write(out: Path, document: str, text: str) -> None:
    """Put ``text`` in place of ``document``: a whole file, or one line of it."""
    path, line = source(out, document)
    if line is not None:
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = text + "\n"
        text = "".join(lines)
    path.write_text(text)


def cases(out: Path):
    """(document, path, mutation) for every mutation that changes a document."""
    for document in DOCUMENTS:
        doc = json.loads(read(out, document))
        for path in field_paths(doc):
            for mutation in MUTATIONS:
                if mutation == "delete" and isinstance(path[-1], int):
                    continue  # a list item is nulled or retyped, never removed
                if mutation == "null" and lookup(doc, path) is None:
                    continue
                yield document, list(path), mutation


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(text: str, path, mutation: str) -> str:
    doc = json.loads(text)
    parent = lookup(doc, path[:-1])
    if mutation == "delete":
        del parent[path[-1]]
    elif mutation == "null":
        parent[path[-1]] = None
    else:
        parent[path[-1]] = 1 if isinstance(parent[path[-1]], str) else "x"
    return json.dumps(doc)


def answer(out: Path, document: str, path, mutation: str) -> dict:
    """``cggen validate``'s exit code and output with one field of ``document`` broken."""
    text = read(out, document)
    write(out, document, mutated(text, path, mutation))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["validate", str(out)])
    finally:
        write(out, document, text)
    return {
        "exit": code,
        "stdout": stdout.getvalue().replace(str(out), "<out>"),
        "stderr": stderr.getvalue().replace(str(out), "<out>"),
    }


def case_id(document: str, path, mutation: str) -> str:
    dotted = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return f"{document}:{dotted[1:] if dotted.startswith('.') else dotted}:{mutation}"


def pinned() -> list[dict]:
    return json.loads(PINS.read_text()) if PINS.exists() else []


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("parity"))


def test_pins_cover_every_field(out):
    expected = [case_id(*case) for case in cases(out)]
    assert [case_id(p["document"], p["path"], p["mutation"]) for p in pinned()] == expected


@pytest.mark.parametrize(
    "pin", pinned(), ids=lambda p: case_id(p["document"], p["path"], p["mutation"])
)
def test_validate_answer_is_pinned(out, pin):
    got = answer(out, pin["document"], pin["path"], pin["mutation"])
    assert got == {key: pin[key] for key in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        root = generate(Path(scratch))
        pins = [
            {"document": document, "path": path, "mutation": mutation}
            | answer(root, document, path, mutation)
            for document, path, mutation in cases(root)
        ]
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}", file=sys.stderr)

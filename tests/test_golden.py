"""Byte-identity contract: the SHA-256 of a fixed seeded `cggen generate` tree.

The digest covers every file's relative path and bytes, so it pins the
layout (each document is json.dumps(document) + "\\n") as well as the
values. It may only change in a change that sets out to alter the output
and says so in CHANGES.md.

The content digest covers the same tree with each JSON document, and each
line of the derivations file, read as a JSON value. It holds through a
change of whitespace alone and fails on any change of what the run wrote.
"""

import hashlib
import json

import pytest

from cggen.cli import main

# The README full-auto configuration, with a smaller maxCGs.
README_CONFIG = {
    "seed": 42,
    "autoVoc": {"conceptDepth": 4, "relationDepth": 3, "maxChildren": 3, "markersPerType": 3},
    "autoGcg": {"count": 20, "minSize": 8},
    "autoVar": {
        "conceptVars": 1,
        "relationVars": 1,
        "markerVars": 1,
        "valuesPerVariable": 4,
        "specialisations": 3,
    },
    "generator": {"maxCGs": 50, "minSize": 30, "maxSpe": 3},
}

GOLDEN_FILES = 73
GOLDEN_SHA256 = "172fc98b13550ffb05a267e53d4442948a5e927f3c6d996ed192ca4eb08eb10a"
GOLDEN_CONTENT_SHA256 = "65bbf40f503ab6c526029a802719a024564ca260ca96c88db0bd226bcd8b2056"


def tree_digest(root):
    """SHA-256 over (relative posix path, NUL, bytes, NUL) of every file, sorted by path."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return len(files), digest.hexdigest()


def content_digest(root):
    """``tree_digest`` with each JSON file, and each derivations line, as its sorted-key value."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        name = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if name.endswith(".json"):
            data = json.dumps(json.loads(data), sort_keys=True).encode()
        elif name == "dataset/derivations.jsonl":
            lines = data.decode("utf-8").splitlines()
            data = "".join(json.dumps(json.loads(line), sort_keys=True) for line in lines).encode()
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(data + b"\0")
    return len(files), digest.hexdigest()


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "run.json"
    config.write_text(json.dumps(README_CONFIG))
    out = root / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_generate_output_digest_is_pinned(readme_run):
    assert tree_digest(readme_run) == (GOLDEN_FILES, GOLDEN_SHA256)


def test_generate_output_content_is_pinned(readme_run):
    assert content_digest(readme_run) == (GOLDEN_FILES, GOLDEN_CONTENT_SHA256)

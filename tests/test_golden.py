"""Byte-identity contract: the SHA-256 of a fixed seeded `cggen generate` tree.

The digest covers every file's relative path and bytes. It may only change
in a change that sets out to alter the output and says so in CHANGES.md.
"""

import hashlib
import json

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
GOLDEN_SHA256 = "151ecde206dc4b060e9a735979d5bd0b2ccf6d7f7943728a7d7125d0032b2d09"


def tree_digest(root):
    """SHA-256 over (relative posix path, NUL, bytes, NUL) of every file, sorted by path."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return len(files), digest.hexdigest()


def test_generate_output_digest_is_pinned(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == (GOLDEN_FILES, GOLDEN_SHA256)

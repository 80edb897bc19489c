"""Fixed work that gauges how fast the machine is running right now.

    python3 bench/reference.py

``run.py`` times this script as a child process between the children it
measures, and scales their wall times by it (NOTES.md, "Machine speed").
It does the kind of work a ``cggen`` child does: start the interpreter,
build many small dicts and lists, write them as ``indent=2`` JSON, parse
that back, group and sort. It uses the standard library only and nothing
from the program under test, so no change to the program moves it.
"""

import json
import random

RECORDS = 12_000


def main() -> None:
    rng = random.Random(7)
    doc = [
        {
            "id": index,
            "label": f"t{rng.randrange(1000)}",
            "args": [rng.randrange(100) for _ in range(4)],
            "meta": {"from": [index] * 3, "kind": "concept"},
        }
        for index in range(RECORDS)
    ]
    back = json.loads(json.dumps(doc, indent=2))
    groups: dict[str, list[int]] = {}
    for record in back:
        groups.setdefault(record["label"], []).append(record["id"])
    back.sort(key=lambda record: (record["label"], record["id"]))
    if len(back) != RECORDS or sum(map(len, groups.values())) != RECORDS:
        raise SystemExit("reference work lost records")


if __name__ == "__main__":
    main()

"""Measurement helpers shared by ``run.py``, ``traced.py`` and ``spread.py``.

Standard library only: medians and quartiles, child processes timed with
their own rusage, output-tree digests, and an in-memory span recorder whose
spans are written out once, when the traced run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def summary(values: Sequence[float]) -> dict[str, float]:
    """Trimmed mean, median, first and third quartile (statistics.quantiles, n=4), n."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = float(values[0])
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "trimmed_mean": trimmed_mean(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (which must be positive)."""
    s = summary(values)
    return ratio(s["q3"] - s["q1"], s["median"])


def ratio(part: float, base: float) -> float:
    """``part / base``; a ratio without a base is refused, not reported as 0."""
    if base <= 0:
        raise ValueError(f"ratio base must be positive, got {base}")
    return part / base


def at_reference_speed(wall_s: float, reference_s: float, nominal_s: float) -> float:
    """``wall_s`` scaled to the speed at which the reference takes ``nominal_s``.

    ``reference_s`` is the reference work's wall time measured next to the
    timed one, so a machine running at half speed doubles both and the
    scaled time stays put.
    """
    return wall_s * ratio(nominal_s, reference_s)


def repeats(seconds: float, minimum: int) -> Iterator[int]:
    """Repeat indices for a loop that must end within ``seconds``.

    The next repeat starts only if one as long as the longest so far still
    ends in time, so the loop does not overrun its budget; at least
    ``minimum`` repeats run regardless.
    """
    start = time.perf_counter()
    longest = 0.0
    count = 0
    while True:
        now = time.perf_counter()
        if count >= minimum and now - start + longest > seconds:
            return
        yield count
        count += 1
        longest = max(longest, time.perf_counter() - now)


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(
    argv: Sequence[str], *, env: dict[str, str], cwd: Path, log_dir: Path, timeout_s: float
) -> ChildResult:
    """Run one child to completion; time its wall clock and read its own rusage.

    The child is reaped with ``os.wait4`` so ``ru_maxrss`` is that child's
    peak resident set, not the maximum over every child this process waited
    for. A child still running after ``timeout_s`` is killed and reported
    with its nonzero status.
    """
    out_path = log_dir / "child.out"
    err_path = log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass(frozen=True)
class TreeDigest:
    sha256: str
    files: int
    bytes: int


def tree_digest(root: Path) -> TreeDigest:
    """SHA-256 over every file's relative path, length and bytes, in path order."""
    digest = hashlib.sha256()
    files = 0
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
        files += 1
        total += len(data)
    return TreeDigest(digest.hexdigest(), files, total)


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until ``dump``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path, **extra: object) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}), encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(spans: Sequence[dict], span_id: int) -> float:
    """A span's duration minus the part of its interval its children cover.

    Overlapping children are counted once, and child time outside the
    parent's interval is ignored.
    """
    parent = spans[span_id]
    intervals = sorted(
        (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
        for s in spans
        if s["parent"] == span_id
    )
    covered = 0.0
    reach = parent["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return duration(parent) - covered


def under(spans: Sequence[dict], root_name: str, name: str) -> list[dict]:
    """Spans called ``name`` anywhere below a top-level span called ``root_name``."""
    by_id = {s["id"]: s for s in spans}

    def root_of(span: dict) -> dict:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    return [s for s in spans if s["name"] == name and root_of(s)["name"] == root_name]

"""Percentiles, run summaries and the correctness checks.

Every check returns a list of human-readable problems (empty means the
check passed), so a test can feed it a deliberately wrong output and
see it fail, and the runner can count failed operations from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks — the same rule as ``statistics.quantiles(...,
    method='inclusive')`` at the matching cut point."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above percentile ``q``."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int, beyond: int = 10, cap: int = 99) -> int:
    """The highest whole percentile (at most ``cap``) with at least
    ``beyond`` of ``n`` samples above it."""
    for q in range(cap, 0, -1):
        if samples_beyond(n, q) >= beyond:
            return q
    raise ValueError(f"{n} samples cannot have {beyond} beyond any percentile")


def canonical_fingerprint(path: Path, drop=("created_at",)) -> str:
    """sha256 of a published model or bundle file with the ``drop``
    fields removed at any depth (by default its wall-clock stamps) —
    the bytes a rerun of the same stream must reproduce exactly."""

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key not in drop
            }
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    payload = strip(json.loads(Path(path).read_text(encoding="utf-8")))
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Fields of a stream repetition that must repeat exactly, traced or
#: not: the human bill, the quality, the graph counts and the bytes of
#: the final published artifact.
EXACT_FIELDS = ("questions", "cells_correct", "graphs_built", "fingerprint")


def check_repetitions(reps: Sequence[Dict]) -> List[str]:
    """Problems with a run's stream repetitions: each repetition's own
    checks, and every repetition of one sub-stream (``stream``)
    agreeing exactly with the first on :data:`EXACT_FIELDS`."""
    problems: List[str] = []
    by_stream: Dict[int, List[Dict]] = {}
    for rep in reps:
        problems.extend(f"rep {rep.get('rep')}: {p}" for p in rep["problems"])
        by_stream.setdefault(rep.get("stream", 0), []).append(rep)
    for stream, group in sorted(by_stream.items()):
        for field in EXACT_FIELDS:
            seen = [rep[field] for rep in group if rep.get(field) is not None]
            if any(value != seen[0] for value in seen):
                problems.append(
                    f"stream {stream}: {field} differs across "
                    f"repetitions: {seen}"
                )
        if group[0]["questions"] <= 0 or group[0]["cells_correct"] <= 0:
            problems.append(f"stream {stream} asks nothing or fixes nothing")
    return problems


def _disagrees(rep: Dict, reference: Dict) -> bool:
    return any(
        rep.get(field) != reference.get(field)
        for field in EXACT_FIELDS
        if rep.get(field) is not None and reference.get(field) is not None
    )


def stream_outcome(reps: Sequence[Dict]) -> Dict:
    """Correctness header over a run's stream repetitions.

    Each repetition attempts every batch of its stream.  A repetition
    that crashed, failed its own checks, or disagrees with the first
    repetition of its sub-stream fails all of its batches."""
    finished = [rep for rep in reps if "questions" in rep]
    problems = check_repetitions(finished) + [
        problem
        for rep in reps
        if "questions" not in rep
        for problem in rep["problems"]
    ]
    per_rep = max((rep["batches"] for rep in reps), default=0)
    first: Dict[int, Dict] = {}
    failed = 0
    for rep in reps:
        reference = first.setdefault(rep.get("stream", 0), rep)
        if rep.get("problems") or _disagrees(rep, reference):
            failed += per_rep
    return {**outcome(per_rep * len(reps), failed, problems),
            "problems": problems}


def check_restart(
    asked: Iterable, reopened, name: str = "decision log"
) -> List[str]:
    """Every member replacement the oracle was asked about (``asked``
    holds ``(member, approved)`` pairs) must have a verdict in the
    reopened decision log, so a restarted stream re-asks none of them.

    The verdict need not equal the asked one: the log keeps the first
    verdict per pair in either orientation, and one learn pass can ask
    both orientations of a pair in different groups."""
    missing = sum(1 for member, _ in asked if reopened.get(member) is None)
    if missing:
        return [
            f"{name}: {missing} asked questions have no verdict after "
            "reopening (a restart would re-ask them)"
        ]
    return []


def check_reply(
    reply: Optional[Dict], sent: Sequence[str], expected: Sequence[str]
) -> Optional[str]:
    """Why one served ``apply`` reply is wrong, or None when it
    byte-equals the offline engine's output for the version it
    claims.  A missing reply (timeout, refused or dropped) is wrong."""
    if reply is None:
        return "no reply"
    if not reply.get("ok"):
        return f"refused: {reply.get('error')}"
    values = reply.get("values")
    if not isinstance(values, list) or len(values) != len(sent):
        return "reply values do not match the request"
    if values != list(expected):
        version = reply.get("version")
        return f"reply differs from the offline engine at v{version}"
    return None


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.  ``VmHWM`` is the
    high-water mark of the process's own address space; ``ru_maxrss``
    would also carry the parent's size at fork time."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def outcome(attempted: int, failed: int, problems: Sequence[str]) -> Dict:
    """The result header: correct only when every check passed."""
    return {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
    }

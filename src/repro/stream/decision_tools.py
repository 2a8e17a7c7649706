"""Verdict-log tooling (``repro decisions``): compact, diff, audit.

A durable decision log (:mod:`repro.stream.decisions`) is paid-for
human review history, and long-lived streams accumulate artifacts in
it: orientation-duplicate lines from logs written before lookups were
orientation-aware, archived ``*.pre-fresh-N`` generations, and — since
the scheduler landed — machine-``inferred`` verdicts interleaved with
asked ones.  These helpers read the raw JSON-lines file (tolerating
the same crash-torn tail the cache repairs) and answer the operational
questions: what does this log actually decide (:func:`compact_log`),
how do two logs differ (:func:`diff_logs`), and is this log healthy
(:func:`audit_log`)?

Everything here is read-only over the log's own line format; the
authoritative replay semantics stay in
:class:`~repro.stream.decisions.DecisionCache` (first verdict wins per
orientation, an exact verdict before a mirrored one), and these
functions apply its very rule (:func:`~repro.stream.decisions.admits`)
so their answers match what a resumed stream would do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..pipeline.oracle import FORWARD, REVERSE, Decision
from .decisions import admits

PathLike = Union[str, Path]

#: verdicts with no explicit provenance were asked of a human
DEFAULT_SOURCE = "asked"


@dataclass(frozen=True)
class LogEntry:
    """One verdict line, as written (orientation preserved)."""

    lhs: str
    rhs: str
    approved: bool
    direction: str
    source: str
    line: int  # 1-based line number in the file

    @property
    def pair(self) -> Tuple[str, str]:
        """Orientation-free identity of the judged value pair."""
        return (min(self.lhs, self.rhs), max(self.lhs, self.rhs))

    @property
    def key(self) -> Tuple[str, str]:
        """The judged replacement, orientation included."""
        return (self.lhs, self.rhs)

    @property
    def decision(self) -> Decision:
        return Decision(self.approved, self.direction)

    @property
    def outcome(self) -> Tuple[str, ...]:
        """The orientation-free effect of the verdict: the resolved
        rewrite for approvals, a plain marker for rejections.  Two
        lines with the same pair and the same outcome are duplicates;
        same pair, different outcome is a conflict."""
        if not self.approved:
            return ("rejected",)
        if self.direction == REVERSE:
            return ("rewrite", self.rhs, self.lhs)
        return ("rewrite", self.lhs, self.rhs)

    def to_json(self) -> str:
        row = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "approved": self.approved,
            "direction": self.direction,
        }
        if self.source != DEFAULT_SOURCE:
            row["source"] = self.source
        return json.dumps(row, ensure_ascii=False)


def read_log(path: PathLike) -> Tuple[List[LogEntry], Optional[str]]:
    """Parse a verdict log into entries plus a tail-damage note.

    Mirrors :meth:`DecisionCache._read`'s tolerance exactly: only the
    *final* line may be malformed (a crash-torn append, reported as
    ``"torn tail"``) or missing its newline (``"unterminated tail"``);
    corruption anywhere else raises ``ValueError`` loudly.
    """
    path = Path(path)
    data = path.read_bytes()
    raw_lines = data.split(b"\n")
    terminated = data.endswith(b"\n")
    entries: List[LogEntry] = []
    for index, raw in enumerate(raw_lines):
        if index == len(raw_lines) - 1 and raw == b"":
            break
        last = index == len(raw_lines) - 1
        line = raw.decode("utf-8", errors="replace").strip()
        try:
            if not line:
                raise ValueError("blank line")
            row = json.loads(line)
            direction = str(row.get("direction", FORWARD))
            if direction not in (FORWARD, REVERSE):
                raise ValueError(f"bad direction {direction!r}")
            entry = LogEntry(
                str(row["lhs"]),
                str(row["rhs"]),
                bool(row["approved"]),
                direction,
                str(row.get("source", DEFAULT_SOURCE)),
                index + 1,
            )
        except (ValueError, KeyError, TypeError) as exc:
            if last:
                return entries, "torn tail"
            raise ValueError(
                f"{path}:{index + 1}: corrupt decision log entry ({exc})"
            ) from exc
        entries.append(entry)
        if last and not terminated:
            return entries, "unterminated tail"
    return entries, None


def compact_log(
    entries: List[LogEntry],
) -> Tuple[List[LogEntry], List[LogEntry]]:
    """Split a log into ``(kept, dropped)`` under replay semantics.

    Keeps exactly the lines a :class:`DecisionCache` replay would load
    — the first verdict per orientation, plus a reverse-orientation
    verdict unless it would close an A⇄B rewrite cycle — and drops the
    rest (exact repeats, and the cycle-closing orientation duplicates
    legacy logs accumulated).  Replaying the compacted log is
    equivalent to replaying the original.
    """
    effective = _effective(entries)
    kept = [e for e in entries if effective.get(e.key) is e]
    dropped = [e for e in entries if effective.get(e.key) is not e]
    return kept, dropped


def _effective(entries: List[LogEntry]) -> Dict[Tuple[str, str], LogEntry]:
    """Orientation -> the entry replay loads for it."""
    effective: Dict[Tuple[str, str], LogEntry] = {}
    for entry in entries:
        exact = effective.get(entry.key)
        reverse = effective.get((entry.rhs, entry.lhs))
        if admits(
            exact.decision if exact is not None else None,
            reverse.decision if reverse is not None else None,
            entry.decision,
        ):
            effective[entry.key] = entry
    return effective


def _honored(
    effective: Dict[Tuple[str, str], LogEntry], key: Tuple[str, str]
) -> Optional[LogEntry]:
    """The entry answering ``key``: its own, else its mirror's."""
    entry = effective.get(key)
    return entry if entry is not None else effective.get((key[1], key[0]))


def diff_logs(
    a_entries: List[LogEntry], b_entries: List[LogEntry]
) -> Dict[str, List]:
    """Compare two logs by their *effective* verdicts.

    Returns ``only_a`` / ``only_b`` (pairs decided in one log only,
    as their effective entries) and ``conflicts`` (orientations both
    logs answer with different outcomes — ``(a_entry, b_entry)``
    tuples of the entries each replay honors).  Answering through the
    mirrored orientation is no difference, nor are duplicate lines.
    """
    a_eff = _effective(a_entries)
    b_eff = _effective(b_entries)
    a_pairs = {entry.pair for entry in a_eff.values()}
    b_pairs = {entry.pair for entry in b_eff.values()}
    only_a = [a_eff[k] for k in sorted(a_eff) if a_eff[k].pair not in b_pairs]
    only_b = [b_eff[k] for k in sorted(b_eff) if b_eff[k].pair not in a_pairs]
    conflicts = []
    for key in sorted(a_eff.keys() | b_eff.keys()):
        a_entry, b_entry = _honored(a_eff, key), _honored(b_eff, key)
        if (
            a_entry is not None
            and b_entry is not None
            and a_entry.outcome != b_entry.outcome
            and (a_entry, b_entry) not in conflicts
        ):
            conflicts.append((a_entry, b_entry))
    return {"only_a": only_a, "only_b": only_b, "conflicts": conflicts}


def audit_log(
    entries: List[LogEntry], damage: Optional[str]
) -> Dict[str, object]:
    """Health report over one parsed log.

    * ``entries`` / ``effective`` — raw lines vs verdicts replay
      loads (one per orientation);
    * ``duplicates`` — lines replay drops whose outcome equals the
      verdict it honors for them (harmless; compaction drops them);
    * ``conflicts`` — dropped lines with a *different* outcome (first
      still wins on replay, but the disagreement is review history
      worth human eyes);
    * ``by_source`` / ``approved`` / ``rejected`` — over the effective
      verdicts;
    * ``damage`` — the tail note from :func:`read_log`, if any.
    """
    effective = _effective(entries)
    duplicates: List[LogEntry] = []
    conflicts: List[Tuple[LogEntry, LogEntry]] = []
    for entry in entries:
        first = _honored(effective, entry.key)
        if first is entry:
            continue
        if entry.outcome == first.outcome:
            duplicates.append(entry)
        else:
            conflicts.append((first, entry))
    by_source: Dict[str, int] = {}
    approved = 0
    for entry in effective.values():
        by_source[entry.source] = by_source.get(entry.source, 0) + 1
        if entry.approved:
            approved += 1
    return {
        "entries": len(entries),
        "effective": len(effective),
        "duplicates": duplicates,
        "conflicts": conflicts,
        "by_source": dict(sorted(by_source.items())),
        "approved": approved,
        "rejected": len(effective) - approved,
        "damage": damage,
    }

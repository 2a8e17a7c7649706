"""Transformation graphs (Definition 2, Appendix C).

For a replacement ``s -> t`` the graph has nodes ``n1 .. n_{|t|+1}`` —
one per boundary position of ``t`` — and an edge ``(i, j)`` for every
``1 <= i < j <= |t|+1``.  The labels of edge ``(i, j)`` are the string
functions that output ``t[i, j)`` when applied to ``s``:

* ``ConstantStr(t[i, j))`` — always present, so every replacement has
  at least one consistent program (the one-edge constant path);
* ``SubStr(f, g)`` for every occurrence ``s[x, y) == t[i, j)`` and
  position functions ``f`` locating ``x`` and ``g`` locating ``y``;
* ``Prefix``/``Suffix`` labels where ``t[i, j)`` is a proper affix of a
  term match in ``s`` (Appendix D), restricted to the *longest* affix
  per anchor position (static order, Appendix E).

Label lists are sorted by :func:`repro.core.functions.label_sort_key`
so downstream DFS is deterministic.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, Config
from .functions import Prefix, StringFunction, Suffix
from .labels import LabelTable
from .positions import position_ids
from .terms import DEFAULT_VOCABULARY, MatchContext, TermVocabulary

Edge = Tuple[int, int]


class TransformationGraph:
    """The DAG of all consistent programs for one replacement.

    ``edges``/``out_edges`` hold the label objects; ``ids``/``out_ids``
    hold the same labels, in the same order, as ids of the
    :class:`~repro.core.labels.LabelTable` ``table`` — the view the
    inverted index and the pivot search work on.
    """

    __slots__ = (
        "source", "target", "edges", "out_edges", "gid", "table", "ids", "out_ids",
    )

    def __init__(
        self,
        source: str,
        target: str,
        edges: Dict[Edge, Tuple[StringFunction, ...]],
        table: Optional[LabelTable] = None,
        ids: Optional[Dict[Edge, Tuple[int, ...]]] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.edges = edges
        self.gid: int = -1  # assigned when registered in an index
        self.out_edges = _out_edges(edges)
        self.table: Optional[LabelTable] = None
        self.ids: Dict[Edge, Tuple[int, ...]] = {}
        self.out_ids: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        if table is not None and ids is not None:
            self.bind(table, ids)

    def bind(self, table: LabelTable, ids: Dict[Edge, Tuple[int, ...]]) -> None:
        """Attach the label-id view of ``edges`` drawn from ``table``."""
        self.table = table
        self.ids = ids
        self.out_ids = _out_edges(ids)

    @property
    def num_nodes(self) -> int:
        return len(self.target) + 1

    @property
    def last_node(self) -> int:
        return len(self.target) + 1

    def labels(self, i: int, j: int) -> Tuple[StringFunction, ...]:
        return self.edges.get((i, j), ())

    def all_labels(self) -> Iterable[Tuple[Edge, StringFunction]]:
        for edge, labels in self.edges.items():
            for label in labels:
                yield edge, label

    def __repr__(self) -> str:
        return (
            f"TransformationGraph({self.source!r} -> {self.target!r}, "
            f"{len(self.edges)} edges)"
        )


def build_graph(
    source: str,
    target: str,
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    config: Config = DEFAULT_CONFIG,
    constant_whitelist: Optional[frozenset] = None,
    table: Optional[LabelTable] = None,
) -> Optional[TransformationGraph]:
    """Construct the transformation graph for ``source -> target``.

    Returns ``None`` when either string exceeds
    ``config.max_string_length`` (such replacements fall back to
    singleton groups) or the target is empty.

    ``constant_whitelist`` (built per structure group by the grouping
    layer when ``config.scored_constants`` is on) lists the recurring
    alphanumeric tokens; ``ConstantStr`` labels whose text contains
    other tokens are dropped except on the whole-target edge, which is
    always labeled so every replacement keeps a consistent program.

    Labels are the canonical instances of ``table`` (one per structure
    bucket when the grouping layer builds; a fresh one otherwise).
    """
    if not target or not source:
        return None
    if (
        len(source) > config.max_string_length
        or len(target) > config.max_string_length
    ):
        return None

    if table is None:
        table = LabelTable()
    ctx = MatchContext(source, vocabulary)
    positions = position_ids(
        ctx, table, config.max_position_functions, config.boundary_positions_only
    )
    boundaries = (
        _unit_boundaries(target) if config.aligned_constants else None
    )

    edges: Dict[Edge, List[int]] = {}
    n = len(target)
    limit = config.max_occurrences_per_edge
    budget = config.max_substr_labels_per_edge
    for i in range(1, n + 1):
        # A span that does not occur in the source has no occurring
        # extension either, so the search stops at the first miss.
        occurs = limit > 0
        for j in range(i + 1, n + 2):
            sub = target[i - 1 : j - 1]
            labels: List[int] = []
            if (
                (boundaries is None or (i in boundaries and j in boundaries))
                and _constant_admitted(sub, constant_whitelist)
            ) or (i == 1 and j == n + 1):
                labels.append(table.constant(sub))
            if occurs:
                start = source.find(sub)
                occurs = start >= 0
                taken = 0
                while start >= 0 and taken < limit:
                    taken += 1
                    x = start + 1  # 1-based
                    right = positions.get(x + len(sub), ())
                    emitted = 0
                    for f in positions.get(x, ()):
                        for g in right:
                            labels.append(table.substr(f, g))
                            emitted += 1
                            if emitted >= budget:
                                break
                        if emitted >= budget:
                            break
                    start = source.find(sub, start + 1)
            if labels:
                edges[(i, j)] = labels

    if config.use_affix:
        _add_affix_labels(ctx, table, target, edges)

    # Edges without labels (possible under aligned_constants) are never
    # stored: Definition 2 gives every span an edge, but an edge without
    # labels can never appear on a transformation path.
    keys = table.keys
    ids: Dict[Edge, Tuple[int, ...]] = {
        edge: tuple(sorted(set(edges[edge]), key=keys.__getitem__))
        for edge in sorted(edges)
    }
    functions = table.labels
    frozen: Dict[Edge, Tuple[StringFunction, ...]] = {
        edge: tuple(functions[lid] for lid in lids) for edge, lids in ids.items()
    }
    return TransformationGraph(source, target, frozen, table, ids)


def _out_edges(edges: Dict[Edge, Tuple]) -> Dict[int, List[Tuple[int, Tuple]]]:
    """``i -> [(j, labels of (i, j))]``, ``j`` ascending."""
    out: Dict[int, List[Tuple[int, Tuple]]] = {}
    for (i, j), labels in sorted(edges.items()):
        out.setdefault(i, []).append((j, labels))
    return out


_ALNUM_TOKEN = re.compile(r"[A-Za-z]+|[0-9]+")


def _constant_admitted(sub: str, whitelist: Optional[frozenset]) -> bool:
    """Scored-constant check: every alphanumeric token of ``sub`` must
    recur within the structure group (Appendix E's freqStruc order).
    Pure separators (whitespace/punctuation) always pass."""
    if whitelist is None:
        return True
    return all(token in whitelist for token in _ALNUM_TOKEN.findall(sub))


def _unit_boundaries(target: str) -> frozenset:
    """1-based boundary positions of the target's term units: maximal
    runs of the four character classes plus one unit per other char
    (the structure decomposition of Section 7.2)."""
    boundaries = {1, len(target) + 1}
    prev_class = None
    for idx, ch in enumerate(target):
        if ch.isdigit() and ch.isascii():
            cls = "d"
        elif "a" <= ch <= "z":
            cls = "l"
        elif "A" <= ch <= "Z":
            cls = "C"
        elif ch.isspace():
            cls = "b"
        else:
            cls = None  # single-character unit: both sides are boundaries
        if cls is None or cls != prev_class:
            boundaries.add(idx + 1)
            if cls is None:
                boundaries.add(idx + 2)
        prev_class = cls
    return frozenset(boundaries)


def _add_affix_labels(
    ctx: MatchContext,
    table: LabelTable,
    target: str,
    edges: Dict[Edge, List[int]],
) -> None:
    """Add ``Prefix``/``Suffix`` labels (Appendix D) with the
    longest-affix-only static order (Appendix E).

    For each term match and each anchor position in ``t`` we emit only
    the label for the longest proper affix: if both ``t[i, j)`` and
    ``t[i, j+1)`` are prefixes of a match, only the longer edge is
    labeled.  Both forward and backward match indices are emitted so the
    label can be shared across strings with different match counts.
    """
    n = len(target)
    for term in ctx.vocabulary.regex_terms:
        tid = table.term(term)
        matches = ctx.matches(term)
        m = len(matches)
        for idx, (x, y) in enumerate(matches, start=1):
            text = ctx.s[x - 1 : y - 1]
            if len(text) < 2:
                continue
            back = idx - m - 1
            # Longest proper prefix of `text` starting at each i in t.
            for i in range(1, n + 1):
                if target[i - 1] != text[0]:
                    continue
                length = _common_prefix_len(target, i - 1, text)
                length = min(length, len(text) - 1, n + 1 - i)
                if length >= 1:
                    labels = edges.setdefault((i, i + length), [])
                    labels.append(table.affix(Prefix, tid, idx))
                    labels.append(table.affix(Prefix, tid, back))
            # Longest proper suffix of `text` ending at each j in t.
            for j in range(2, n + 2):
                if target[j - 2] != text[-1]:
                    continue
                length = _common_suffix_len(target, j - 1, text)
                length = min(length, len(text) - 1, j - 1)
                if length >= 1:
                    labels = edges.setdefault((j - length, j), [])
                    labels.append(table.affix(Suffix, tid, idx))
                    labels.append(table.affix(Suffix, tid, back))


def _common_prefix_len(target: str, start: int, text: str) -> int:
    """Length of the longest common prefix of ``target[start:]`` and ``text``."""
    length = 0
    limit = min(len(target) - start, len(text))
    while length < limit and target[start + length] == text[length]:
        length += 1
    return length


def _common_suffix_len(target: str, end: int, text: str) -> int:
    """Length of the longest common suffix of ``target[:end]`` and ``text``."""
    length = 0
    limit = min(end, len(text))
    while length < limit and target[end - 1 - length] == text[len(text) - 1 - length]:
        length += 1
    return length

"""Inverted index over transformation-graph edge labels (Section 5.1).

The posting list of a string function ``f`` holds every triple
``<G, i, j>`` such that edge ``(i, j)`` of graph ``G`` carries label
``f``.  Intersections are *adjacency-aware*: an entry ``<G, i1, j1>``
joins ``<G, i2, j2>`` only when ``j1 == i2``, producing ``<G, i1, j2>``.

Because every path the pivot search maintains starts at node ``n1``,
path states are stored compactly as ``{gid: frozenset(end_nodes)}``
("which graphs contain the current path as a prefix from node 1, and at
which end positions").

Postings are keyed by the label ids of the index's
:class:`~repro.core.labels.LabelTable`; the ``*_id`` methods are the
pivot search's hot path, and the label-taking methods look the label up
first (an unknown label has an empty posting).  A graph built against
another table is re-keyed on :meth:`InvertedIndex.add_graph` by label
equality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .functions import StringFunction
from .graph import TransformationGraph
from .labels import LabelTable

#: ``gid -> start_node -> tuple(end_nodes)``
Posting = Dict[int, Dict[int, Tuple[int, ...]]]

#: ``gid -> set(end_nodes)`` for paths anchored at node 1.
PathState = Dict[int, FrozenSet[int]]


class InvertedIndex:
    """Index of edge labels across a collection of graphs."""

    def __init__(self, table: Optional[LabelTable] = None) -> None:
        self.table = table if table is not None else LabelTable()
        self._postings: Dict[int, Dict[int, Dict[int, List[int]]]] = {}
        self.graphs: Dict[int, TransformationGraph] = {}
        self.last_node: Dict[int, int] = {}
        self._next_gid = 0

    def add_graph(self, graph: TransformationGraph) -> int:
        """Register a graph; assigns and returns its gid."""
        if graph.table is not self.table:
            intern = self.table.intern
            graph.bind(
                self.table,
                {
                    edge: tuple(intern(label) for label in labels)
                    for edge, labels in graph.edges.items()
                },
            )
        gid = self._next_gid
        self._next_gid += 1
        graph.gid = gid
        self.graphs[gid] = graph
        self.last_node[gid] = graph.last_node
        postings = self._postings
        for (i, j), lids in graph.ids.items():
            for lid in lids:
                by_graph = postings.get(lid)
                if by_graph is None:
                    by_graph = postings[lid] = {}
                by_graph.setdefault(gid, {}).setdefault(i, []).append(j)
        return gid

    def add_graphs(self, graphs: Iterable[TransformationGraph]) -> List[int]:
        return [self.add_graph(g) for g in graphs]

    # -- by label ----------------------------------------------------------

    def posting(self, label: StringFunction) -> Posting:
        """The posting of ``label`` (end nodes sorted); empty if unknown."""
        lid = self.table.find(label)
        return {
            gid: {start: tuple(sorted(ends)) for start, ends in starts.items()}
            for gid, starts in self._postings.get(lid, {}).items()
        }

    def posting_size(self, label: StringFunction) -> int:
        """Number of distinct graphs whose edge sets contain ``label``."""
        lid = self.table.find(label)
        return 0 if lid is None else self.posting_size_id(lid)

    def posting_size_live(
        self, label: StringFunction, live: Optional[Set[int]]
    ) -> int:
        """Distinct *live* graphs containing ``label``."""
        lid = self.table.find(label)
        return 0 if lid is None else self.posting_size_live_id(lid, live)

    def initial_state(
        self, label: StringFunction, live: Optional[Set[int]] = None
    ) -> PathState:
        """Path state for the single-label path ``[label]`` from node 1."""
        lid = self.table.find(label)
        return {} if lid is None else self.initial_state_id(lid, live)

    def extend_state(
        self,
        state: PathState,
        label: StringFunction,
        live: Optional[Set[int]] = None,
    ) -> PathState:
        """Adjacency-aware intersection: append ``label`` to the path."""
        lid = self.table.find(label)
        return {} if lid is None else self.extend_state_id(state, lid, live)

    # -- by label id -------------------------------------------------------

    def posting_size_id(self, lid: int) -> int:
        raw = self._postings.get(lid)
        return len(raw) if raw is not None else 0

    def posting_size_live_id(self, lid: int, live: Optional[Set[int]]) -> int:
        raw = self._postings.get(lid)
        if raw is None:
            return 0
        if live is None:
            return len(raw)
        return sum(1 for gid in raw if gid in live)

    def initial_state_id(
        self, lid: int, live: Optional[Set[int]] = None
    ) -> PathState:
        state: PathState = {}
        for gid, starts in self._postings.get(lid, {}).items():
            if live is not None and gid not in live:
                continue
            ends = starts.get(1)
            if ends:
                state[gid] = frozenset(ends)
        return state

    def extend_state_id(
        self,
        state: PathState,
        lid: int,
        live: Optional[Set[int]] = None,
    ) -> PathState:
        posting = self._postings.get(lid, {})
        nxt: PathState = {}
        for gid, ends in state.items():
            if live is not None and gid not in live:
                continue
            starts = posting.get(gid)
            if starts is None:
                continue
            new_ends: Set[int] = set()
            for end in ends:
                follow = starts.get(end)
                if follow:
                    new_ends.update(follow)
            if new_ends:
                nxt[gid] = frozenset(new_ends)
        return nxt

    # -- path states -------------------------------------------------------

    def complete_members(
        self, state: PathState, live: Optional[Set[int]] = None
    ) -> Tuple[int, ...]:
        """Graphs for which the path is a full transformation path.

        An entry ``<G, 1, j>`` is complete iff ``j`` is ``G``'s last
        node — the path spans ``G``'s entire output string.
        """
        members = []
        for gid, ends in state.items():
            if live is not None and gid not in live:
                continue
            if self.last_node[gid] in ends:
                members.append(gid)
        return tuple(sorted(members))

    def state_size(self, state: PathState, live: Optional[Set[int]] = None) -> int:
        """Number of graphs containing the path as a prefix."""
        if live is None:
            return len(state)
        return sum(1 for gid in state if gid in live)

    def __len__(self) -> int:
        return len(self.graphs)

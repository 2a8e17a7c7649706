"""Per-layer timing from outside the program.

:func:`install` wraps the public functions of each pipeline layer —
at every module that imported them by name, and on the classes that
own the methods — with spans that record calls, inclusive seconds,
self seconds (inclusive minus the time covered by nested wrapped
calls) and layer-specific counts.  Nothing under ``src/`` changes:
the wrappers live here and are installed only in traced runs.

Spans nest per thread (the serving tier compiles swapped engines on an
executor thread while the event loop answers requests), and a span
with no enclosing span adds to ``top_level_s``; the part of a stream's
wall time that no top-level span covers is reported as unexplained.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Every per-layer metric a traced run reports, in report order.  A
#: layer the workload never enters reports zeros: that is the
#: prediction for a workload that bypasses it.
METRICS = (
    "core.grouping.build_s",
    "core.grouping.graphs_built",
    "core.grouping.graphs_rebuilt",
    "core.grouping.rebuilt_ratio",
    "core.grouping.last_batch_graphs_built",
    "core.grouping.last_batch_graphs_rebuilt",
    "core.grouping.feed_self_s",
    "core.pivot.search_s",
    "core.pivot.searches",
    "candidates.store.apply_s",
    "candidates.store.cells_applied",
    "stream.standardizer.ingest_s",
    "stream.standardizer.replay_s",
    "stream.standardizer.learn_s",
    "stream.standardizer.learn_self_s",
    "stream.standardizer.reused_cells",
    "stream.resolver.add_batch_s",
    "stream.resolver.pairs_compared",
    "fusion.fuse_s",
    "fusion.clusters_fused",
    "stream.scheduler.rank_s",
    "pipeline.oracle.review_s",
    "pipeline.oracle.questions",
    "pipeline.oracle.approve_ratio",
    "stream.publisher.publish_s",
    "stream.publisher.bytes",
    "stream.decisions.record_s",
    "stream.decisions.records",
    "serve.engine.apply_s",
    "serve.engine.values",
    "serve.engine.distinct_values",
    "serve.engine.memo_hit_ratio",
    "serve.engine.token_hits",
    "serve.server.swap_s",
    "serve.server.swaps",
    "serve.server.request_self_s",
    "trace.wall_s",
    "trace.unexplained_s",
    "trace.unexplained_ratio",
    "trace.overhead_ratio",
)


class Tracer:
    """Span and count accumulator shared by all installed wrappers."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        #: stream batch index the wrappers attribute counts to
        self.batch = 0
        self.per_batch: Dict[int, Counter] = defaultdict(Counter)
        self._first_built: Dict[tuple, int] = {}
        self._fused = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer``.  ``before(args)``
        returns a token handed to ``after(result, seconds, args,
        token)``, which records the layer's counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            token = before(args) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer._close(layer, elapsed, frame[1], stack)
            if after is not None:
                with tracer._lock:
                    after(result, elapsed, args, token)
            return result

        return wrapper

    def _close(self, layer, elapsed, child, stack) -> None:
        nested = any(f[0] == layer for f in stack)
        with self._lock:
            self.calls[layer] += 1
            self.self_seconds[layer] += elapsed - child
            if not nested:
                self.seconds[layer] += elapsed
            if stack:
                stack[-1][1] += elapsed
            else:
                self.top_level_s += elapsed

    # -- layer-specific counts ---------------------------------------------

    def graphs_built(self, result, _elapsed, _args, _token) -> None:
        _index, by_gid, _graphless = result
        batch = self.per_batch[self.batch]
        for replacement in by_gid.values():
            key = (replacement.lhs, replacement.rhs)
            first = self._first_built.setdefault(key, self.batch)
            batch["graphs_built"] += 1
            if first < self.batch:
                batch["graphs_rebuilt"] += 1

    def clusters_fused(self, result, _elapsed, _args, _token) -> None:
        for cluster in result:
            self._fused.add((self.batch, cluster))

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Every name in :data:`METRICS` except ``trace.overhead_ratio``
        (which needs an untraced run to compare against)."""
        s, c = self.seconds, self.counts
        built = sum(b["graphs_built"] for b in self.per_batch.values())
        rebuilt = sum(b["graphs_rebuilt"] for b in self.per_batch.values())
        last = self.per_batch.get(max(self.per_batch, default=0), Counter())
        questions = self.calls["pipeline.oracle"]
        unique = c["engine.unique_values"]
        replay = sum(
            s[name]
            for name in (
                "stream.standardizer.partition_live",
                "stream.standardizer.reuse_confirmed",
                "stream.standardizer.infer_transitive",
            )
        )
        return {
            "core.grouping.build_s": s["core.grouping.build_graphs"],
            "core.grouping.graphs_built": built,
            "core.grouping.graphs_rebuilt": rebuilt,
            "core.grouping.rebuilt_ratio": rebuilt / built if built else 0.0,
            "core.grouping.last_batch_graphs_built": last["graphs_built"],
            "core.grouping.last_batch_graphs_rebuilt": last["graphs_rebuilt"],
            "core.grouping.feed_self_s": self.self_seconds[
                "core.grouping.next_group"
            ],
            "core.pivot.search_s": s["core.pivot.search_pivot"],
            "core.pivot.searches": self.calls["core.pivot.search_pivot"],
            "candidates.store.apply_s": s["candidates.store.apply"],
            "candidates.store.cells_applied": c["store.cells_applied"],
            "stream.standardizer.ingest_s": s["stream.standardizer.ingest"],
            "stream.standardizer.replay_s": replay,
            "stream.standardizer.learn_s": s["stream.standardizer.learn"],
            "stream.standardizer.learn_self_s": self.self_seconds[
                "stream.standardizer.learn"
            ],
            "stream.standardizer.reused_cells": c["standardizer.reused_cells"],
            "stream.resolver.add_batch_s": s["stream.resolver.add_batch"],
            "stream.resolver.pairs_compared": c["resolver.pairs_compared"],
            "fusion.fuse_s": s["fusion"],
            "fusion.clusters_fused": len(self._fused),
            "stream.scheduler.rank_s": (
                self.self_seconds["stream.scheduler.next_group"]
                + s["stream.scheduler.allocate_budget"]
            ),
            "pipeline.oracle.review_s": s["pipeline.oracle"],
            "pipeline.oracle.questions": questions,
            "pipeline.oracle.approve_ratio": (
                c["oracle.approved"] / questions if questions else 0.0
            ),
            "stream.publisher.publish_s": s["stream.publisher.publish"],
            "stream.publisher.bytes": c["publisher.bytes"],
            "stream.decisions.record_s": s["stream.decisions.record"],
            "stream.decisions.records": c["decisions.records"],
            "serve.engine.apply_s": s["serve.engine.apply_values"],
            "serve.engine.values": c["engine.rows"],
            "serve.engine.distinct_values": c["engine.distinct_values"],
            "serve.engine.memo_hit_ratio": (
                c["engine.cache_hits"] / unique if unique else 0.0
            ),
            "serve.engine.token_hits": c["engine.token_hits"],
            "serve.server.swap_s": c["server.swap_s"],
            "serve.server.swaps": c["server.swaps"],
            "serve.server.request_self_s": self.self_seconds[
                "serve.server.request"
            ],
            "trace.wall_s": wall_s,
            "trace.unexplained_s": max(0.0, wall_s - self.top_level_s),
            "trace.unexplained_ratio": (
                max(0.0, wall_s - self.top_level_s) / wall_s
                if wall_s > 0
                else 0.0
            ),
        }

    def batch_rows(self) -> List[Dict[str, int]]:
        """Per-batch graph counts, in batch order."""
        return [
            {
                "batch": batch,
                "graphs_built": counts["graphs_built"],
                "graphs_rebuilt": counts["graphs_rebuilt"],
            }
            for batch, counts in sorted(self.per_batch.items())
        ]


_ENGINE_FIELDS = ("rows", "unique_values", "distinct_values", "cache_hits",
                  "token_hits")


def _patch_function(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded ``repro``
    module that imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_method(tracer: Tracer, cls, method: str, layer: str, **hooks):
    setattr(cls, method, tracer.wrap(layer, getattr(cls, method), **hooks))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    import repro.cli  # noqa: F401  (load every import site first)
    import repro.pipeline.standardize  # noqa: F401
    import repro.stream.golden  # noqa: F401
    from repro.candidates.store import ReplacementStore
    from repro.core import grouping, pivot
    from repro.core.incremental import IncrementalGrouper
    from repro.pipeline.oracle import GroundTruthOracle
    from repro.serve.engine import ApplyEngine
    from repro.serve.server import ModelSource, ServeServer
    from repro.stream import scheduler
    from repro.stream.decisions import DecisionCache
    from repro.stream.publisher import ModelPublisher
    from repro.stream.resolver import IncrementalResolver
    from repro.stream.standardizer import IncrementalStandardizer

    count = tracer.counts

    def add(key, amount):
        def after(result, _elapsed, _args, _token):
            count[key] += amount(result)

        return after

    _patch_function(
        grouping.build_graphs,
        tracer.wrap(
            "core.grouping.build_graphs",
            grouping.build_graphs,
            after=tracer.graphs_built,
        ),
    )
    _patch_function(
        pivot.search_pivot,
        tracer.wrap("core.pivot.search_pivot", pivot.search_pivot),
    )
    _patch_function(
        scheduler.allocate_budget,
        tracer.wrap(
            "stream.scheduler.allocate_budget", scheduler.allocate_budget
        ),
    )
    _patch_method(tracer, IncrementalGrouper, "next_group",
                  "core.grouping.next_group")
    _patch_method(tracer, scheduler.YieldRankedFeed, "next_group",
                  "stream.scheduler.next_group")
    _patch_method(
        tracer, ReplacementStore, "apply_replacement",
        "candidates.store.apply",
        after=add("store.cells_applied", len),
    )
    _patch_method(tracer, IncrementalStandardizer, "ingest",
                  "stream.standardizer.ingest")
    for method in ("partition_live", "infer_transitive"):
        _patch_method(tracer, IncrementalStandardizer, method,
                      f"stream.standardizer.{method}")
    _patch_method(
        tracer, IncrementalStandardizer, "reuse_confirmed",
        "stream.standardizer.reuse_confirmed",
        after=add("standardizer.reused_cells", lambda result: result[1]),
    )
    _patch_method(tracer, IncrementalStandardizer, "learn",
                  "stream.standardizer.learn")
    _patch_method(
        tracer, IncrementalResolver, "add_batch", "stream.resolver.add_batch",
        after=add("resolver.pairs_compared",
                  lambda result: result.pairs_compared),
    )
    _patch_method(
        tracer, GroundTruthOracle, "review", "pipeline.oracle",
        after=add("oracle.approved", lambda decision: int(decision.approved)),
    )
    _patch_method(
        tracer, ModelPublisher, "publish", "stream.publisher.publish",
        after=add(
            "publisher.bytes",
            lambda result: result[1].stat().st_size if result[1] else 0,
        ),
    )
    _patch_method(
        tracer, DecisionCache, "record", "stream.decisions.record",
        after=add("decisions.records", int),
    )

    def engine_before(args):
        stats = args[0]._stats
        return [getattr(stats, name) for name in _ENGINE_FIELDS]

    def engine_after(_result, _elapsed, args, before):
        stats = args[0]._stats
        for name, old in zip(_ENGINE_FIELDS, before):
            count[f"engine.{name}"] += getattr(stats, name) - old

    _patch_method(tracer, ApplyEngine, "apply_values",
                  "serve.engine.apply_values",
                  before=engine_before, after=engine_after)

    def swapped(result, elapsed, _args, _token):
        if result is not None:
            count["server.swaps"] += 1
            count["server.swap_s"] += elapsed

    _patch_method(tracer, ModelSource, "refresh", "serve.server.refresh",
                  after=swapped)
    _patch_method(tracer, ServeServer, "_answer", "serve.server.request")
    return tracer


def traced_fusion(tracer: Tracer, fusion: Callable) -> Callable:
    """The golden stream's table-level fusion function, as one span."""
    return tracer.wrap("fusion", fusion, after=tracer.clusters_fused)


def combine(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """One round's per-layer metrics from those of its streams: sums,
    with each ratio recomputed from its base (the memo hit ratio is
    weighted by values applied)."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def weighted(name: str, weight: str) -> float:
        return ratio(
            sum(part[name] * part[weight] for part in parts),
            sum(part[weight] for part in parts),
        )

    total = {name: sum(part[name] for part in parts) for name in parts[0]}
    total["core.grouping.rebuilt_ratio"] = ratio(
        total["core.grouping.graphs_rebuilt"],
        total["core.grouping.graphs_built"],
    )
    total["pipeline.oracle.approve_ratio"] = weighted(
        "pipeline.oracle.approve_ratio", "pipeline.oracle.questions"
    )
    total["serve.engine.memo_hit_ratio"] = weighted(
        "serve.engine.memo_hit_ratio", "serve.engine.values"
    )
    total["trace.unexplained_ratio"] = ratio(
        total["trace.unexplained_s"], total["trace.wall_s"]
    )
    return total

"""Learn core: transformation-graph build and pivot search on a golden stream.

Learning is most of a golden stream's wall clock: on the repository
benchmark's ``golden_accu`` workload, graph construction and pivot-path
search together take about 70 % of the run.  This bench runs one
seed-pinned, reduced three-column golden stream (address, authors,
title; the first 600 arrivals over 220 entities in 8 batches, budget 15
per batch pooled across columns, yield-ordered questions, LSH blocking,
Accu fusion) in one process and times the two learn layers from
outside, by wrapping ``build_graphs`` and ``search_pivot`` at every
module that imported them:

* ``graph_build_seconds`` — time inside ``build_graphs`` (graphs, label
  tables and inverted indexes of the structure buckets);
* ``pivot_search_seconds`` — time inside ``search_pivot``;
* ``graphs_built`` / ``pivot_searches`` — deterministic work counters,
  asserted exactly: a change in them is a change in what the learner
  does, not noise, and must come with a new pin.

Every constant is pinned and the bench ``SCALE`` is ignored, so the
series compare across runs and machines.  The wall-clock series are
gated by ``repro bench check`` like every other timing.
"""

import dataclasses
import functools
import time

from repro.core import grouping, incremental, pivot
from repro.datagen.stream import golden_stream
from repro.fusion import accu
from repro.resolution.blocking import derive_lsh_params, make_block_keys
from repro.stream import (
    GoldenStreamConsolidator,
    golden_ground_truth_oracle_factory,
)

from conftest import print_banner, record_result, report

SEED = 21
N_CLUSTERS = 220
RECORDS = 600
N_BATCHES = 8
BUDGET = 15
THRESHOLD = 0.8
COLUMNS = ("address", "authors", "title")

#: The learner's work on this stream (pinned; see the module doc).
EXPECTED_GRAPHS = 676
EXPECTED_SEARCHES = 452
EXPECTED_QUESTIONS = 152


class LayerClock:
    """Seconds and calls inside a wrapped function."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
                self.calls += 1

        return timed


def reduced_stream():
    full = golden_stream(
        batches=1, n_clusters=N_CLUSTERS, columns=COLUMNS, seed=SEED
    )
    arrivals = [record for batch in full.batches for record in batch]
    arrivals = arrivals[:RECORDS]
    cuts = [RECORDS * i // N_BATCHES for i in range(N_BATCHES + 1)]
    return dataclasses.replace(
        full, batches=[arrivals[a:b] for a, b in zip(cuts, cuts[1:])]
    )


def test_learn_core(monkeypatch):
    build, search = LayerClock(), LayerClock()
    graphs = [0]
    timed_build = build.wrap(grouping.build_graphs)

    def build_graphs(*args, **kwargs):
        index, by_gid, graphless = timed_build(*args, **kwargs)
        graphs[0] += len(by_gid)
        return index, by_gid, graphless

    for module in (grouping, incremental):
        monkeypatch.setattr(module, "build_graphs", build_graphs)
    timed_search = search.wrap(pivot.search_pivot)
    for module in (pivot, grouping, incremental):
        monkeypatch.setattr(module, "search_pivot", timed_search)

    stream = reduced_stream()
    bands, rows = derive_lsh_params(THRESHOLD)
    consolidator = GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=golden_ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=SEED
        ),
        attribute=stream.columns[0],
        similarity_threshold=THRESHOLD,
        block_keys=make_block_keys("lsh", bands=bands, rows=rows),
        budget_per_batch=BUDGET,
        fusion=accu.fuse,
        persist_decisions=False,
        question_order="yield",
    )
    started = time.perf_counter()
    with consolidator:
        for batch in stream.batches:
            consolidator.process_batch(batch)
    wall = time.perf_counter() - started

    print_banner("Learn core: graph build + pivot search (golden stream)")
    report(
        f"{RECORDS} records, {N_BATCHES} batches, "
        f"{consolidator.questions_asked} questions, {wall:.2f}s wall"
    )
    report(
        f"graph build  {build.seconds:7.3f}s  {graphs[0]:6d} graphs "
        f"in {build.calls} buckets"
    )
    report(f"pivot search {search.seconds:7.3f}s  {search.calls:6d} searches")
    record_result(
        "learn_core",
        graph_build_seconds=round(build.seconds, 4),
        pivot_search_seconds=round(search.seconds, 4),
        stream_seconds=round(wall, 4),
        graphs_built=graphs[0],
        pivot_searches=search.calls,
    )
    assert (graphs[0], search.calls, consolidator.questions_asked) == (
        EXPECTED_GRAPHS,
        EXPECTED_SEARCHES,
        EXPECTED_QUESTIONS,
    )

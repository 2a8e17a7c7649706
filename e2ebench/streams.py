"""One repetition of a stream workload, in its own process.

Run by ``run.py`` as ``python3 streams.py --workload W --seed N
--dir D [--trace]``.  The process builds its inputs from the seed and
the consolidator, prints ``{"event": "ready"}`` (the parent's set-up
timer stops there), consolidates every batch, checks its outputs and
prints one JSON result line.

Workloads:

* ``stream_address`` — single-column Address stream: the first 300
  arrivals of a scale-0.4 dataset in 10 batches, budget 10 per batch,
  exact-key blocking, discovery order, engine on, registry and
  decision log on disk;
* ``golden_accu`` — three-column golden stream (address, authors,
  title): the first 600 arrivals over 220 entities in 8 batches,
  budget 15 per batch (pooled across columns), Accu fusion, MinHash-LSH
  blocking, yield-ordered questions, bundle registry, per-column
  decision logs and the golden delta log.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from stats import canonical_fingerprint, check_restart, peak_rss_mb

STREAM_ADDRESS = dict(scale=0.4, records=300, batches=10, budget=10)
GOLDEN_ACCU = dict(
    clusters=220,
    records=600,
    batches=8,
    budget=15,
    columns=("address", "authors", "title"),
    threshold=0.8,
)


class RecordingOracle:
    """Passes reviews through and remembers every member asked."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.asked: List = []

    def review(self, group):
        decision = self.inner.review(group)
        self.asked.extend(
            (member, decision.approved) for member in group.replacements
        )
        return decision

    def __getattr__(self, name):
        return getattr(self.inner, name)


def recording(factory, oracles: Dict[str, RecordingOracle]):
    """Wrap an oracle factory (single- or multi-column signature)."""

    def wrapped(consolidator, *column):
        oracle = RecordingOracle(factory(consolidator, *column))
        oracles[column[0] if column else ""] = oracle
        return oracle

    return wrapped


def cells_correct_single(table, column: str, truth: Dict[str, str]) -> int:
    """Cells equal to the ground-truth canonical value of their entity."""
    return sum(
        1
        for cluster in table.clusters
        for record in cluster.records
        if record.rid in truth
        and record.values.get(column) == truth[record.rid]
    )


def cells_correct_golden(consolidator, stream) -> int:
    """Golden-record cells equal to the true golden record of the
    cluster's entity (the entity most of its records denote)."""
    clusters = consolidator.resolver.table.clusters
    correct = 0
    for golden in consolidator.golden_records():
        records = clusters[golden.cluster].records
        keys = Counter(r.values.get(stream.key_column) for r in records)
        entity = min(keys, key=lambda k: (-keys[k], str(k)))
        truth = stream.golden_by_key.get(entity, {})
        correct += sum(
            1
            for column, value in golden.values.items()
            if value is not None and value == truth.get(column)
        )
    return correct


def first_arrivals(stream, records: int, batches: int):
    """The stream cut down to its first ``records`` arrivals, in
    ``batches`` equal batches.  The generators' record counts vary
    about twofold between seeds; a fixed count keeps batch sizes, and
    so batch latencies, comparable across seeds."""
    arrivals = [record for batch in stream.batches for record in batch]
    if len(arrivals) < records:
        raise ValueError(
            f"stream has {len(arrivals)} records, fewer than {records}"
        )
    arrivals = arrivals[:records]
    cuts = [records * i // batches for i in range(batches + 1)]
    return dataclasses.replace(
        stream,
        batches=[arrivals[a:b] for a, b in zip(cuts, cuts[1:])],
    )


def build_stream_address(seed: int, workdir: Path, oracles, sizes=None):
    from repro.datagen import address_dataset
    from repro.datagen.stream import dataset_stream
    from repro.serve import ModelRegistry
    from repro.stream import StreamConsolidator, ground_truth_oracle_factory

    sizes = {**STREAM_ADDRESS, **(sizes or {})}
    dataset = address_dataset(scale=sizes["scale"], seed=seed)
    stream = first_arrivals(
        dataset_stream(dataset, batches=1, seed=seed),
        sizes["records"],
        sizes["batches"],
    )
    consolidator = StreamConsolidator(
        column=stream.column,
        oracle_factory=recording(
            ground_truth_oracle_factory(stream.canonical_by_rid, seed=seed),
            oracles,
        ),
        key_attribute=stream.key_column,
        budget_per_batch=sizes["budget"],
        registry=ModelRegistry(workdir / "models"),
        model_name="address",
        question_order="discovery",
    )
    return stream, consolidator


def build_golden_accu(seed: int, workdir: Path, oracles, sizes=None,
                      fusion_wrapper=None):
    from repro.datagen.stream import golden_stream
    from repro.fusion import accu
    from repro.resolution.blocking import derive_lsh_params, make_block_keys
    from repro.serve.bundle import BundleRegistry
    from repro.stream import (
        GoldenStreamConsolidator,
        golden_ground_truth_oracle_factory,
    )

    sizes = {**GOLDEN_ACCU, **(sizes or {})}
    stream = first_arrivals(
        golden_stream(
            batches=1,
            n_clusters=sizes["clusters"],
            columns=sizes["columns"],
            seed=seed,
        ),
        sizes["records"],
        sizes["batches"],
    )
    bands, rows = derive_lsh_params(sizes["threshold"])
    fusion = accu.fuse if fusion_wrapper is None else fusion_wrapper(accu.fuse)
    consolidator = GoldenStreamConsolidator(
        columns=stream.columns,
        oracle_factory=recording(
            golden_ground_truth_oracle_factory(
                stream.canonical_by_rid, seed=seed
            ),
            oracles,
        ),
        attribute=stream.columns[0],
        similarity_threshold=sizes["threshold"],
        block_keys=make_block_keys("lsh", bands=bands, rows=rows),
        budget_per_batch=sizes["budget"],
        fusion=fusion,
        registry=BundleRegistry(workdir / "bundles"),
        bundle_name="-".join(stream.columns),
        golden_log=workdir / "golden-deltas.jsonl",
        question_order="yield",
    )
    return stream, consolidator


def finish_single(stream, consolidator, oracles) -> Dict:
    from repro.stream import DecisionCache

    problems = check_restart(
        oracles[""].asked, DecisionCache(consolidator.decision_log)
    )
    registry = consolidator.registry
    path = registry.path(consolidator.model_name)
    problems.extend(_model_matches(path, consolidator.build_model()))
    return {
        "questions": consolidator.questions_asked,
        "cells_correct": cells_correct_single(
            consolidator.table, stream.column, stream.canonical_by_rid
        ),
        "fingerprint": canonical_fingerprint(path),
        "problems": problems,
    }


def finish_golden(stream, consolidator, oracles) -> Dict:
    from repro.stream import DecisionCache

    problems: List[str] = []
    for column in stream.columns:
        problems.extend(
            check_restart(
                oracles[column].asked,
                DecisionCache(consolidator.decision_log_path(column)),
                name=f"{column} decision log",
            )
        )
    path = consolidator.registry.path(consolidator.bundle_name)
    problems.extend(_model_matches(path, consolidator.build_bundle()))
    return {
        "questions": consolidator.questions_asked,
        "cells_correct": cells_correct_golden(consolidator, stream),
        "fingerprint": canonical_fingerprint(path),
        "problems": problems,
    }


def _model_matches(path: Path, live) -> List[str]:
    """The latest published artifact, reopened from the registry, must
    hold exactly what the live consolidator would publish now."""
    live_path = path.parent.parent / "live-check.json"
    live.save(live_path)
    drop = ("created_at", "provenance")
    try:
        if canonical_fingerprint(live_path, drop) != canonical_fingerprint(
            path, drop
        ):
            return [f"registry latest {path.name} differs from live state"]
        return []
    finally:
        live_path.unlink()


WORKLOADS = {
    "stream_address": (build_stream_address, finish_single),
    "golden_accu": (build_golden_accu, finish_golden),
}


def run_repetition(
    workload: str,
    seed: int,
    workdir: Path,
    trace: bool = False,
    sizes: Optional[Dict] = None,
    ready=lambda: None,
) -> Dict:
    """Build, signal ready, consolidate every batch, check; returns the
    repetition's result (also used in-process by the tests)."""
    tracer = None
    build, finish = WORKLOADS[workload]
    kwargs = {}
    if trace:
        from layers import Tracer, install, traced_fusion

        tracer = install(Tracer())
        if workload == "golden_accu":
            kwargs["fusion_wrapper"] = lambda f: traced_fusion(tracer, f)
    oracles: Dict = {}
    stream, consolidator = build(seed, workdir, oracles, sizes, **kwargs)
    ready()
    latencies: List[float] = []
    rows: List[Dict] = []
    with consolidator:
        start = time.perf_counter()
        for index, batch in enumerate(stream.batches):
            if tracer is not None:
                tracer.batch = index
            began = time.perf_counter()
            report = consolidator.process_batch(batch)
            latencies.append(time.perf_counter() - began)
            rows.append(
                {
                    "batch": index,
                    "records": len(batch),
                    "seconds": latencies[-1],
                    "questions": report.questions_asked,
                }
            )
        wall = time.perf_counter() - start
    result = finish(stream, consolidator, oracles)
    result.update(
        records=stream.num_records,
        batches=len(stream.batches),
        wall_s=wall,
        batch_s=latencies,
        peak_rss_mb=peak_rss_mb(),
        traced=trace,
        graphs_built=None,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["graphs_built"] = [
            (r["graphs_built"], r["graphs_rebuilt"])
            for r in tracer.batch_rows()
        ]
        graphs = {r["batch"]: r for r in tracer.batch_rows()}
        for row in rows:
            counts = graphs.get(row["batch"], {})
            row["graphs_built"] = counts.get("graphs_built", 0)
            row["graphs_rebuilt"] = counts.get("graphs_rebuilt", 0)
        result["rows"] = rows
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    def ready():
        print(json.dumps({"event": "ready"}), flush=True)

    result = run_repetition(
        args.workload, args.seed, args.dir, trace=args.trace, ready=ready
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

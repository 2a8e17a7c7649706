"""Tests of the benchmark itself: percentile math, failure counting,
every correctness check failing on a deliberately wrong output, and a
tiny-size smoke of each workload.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import serve_load
import streams
from stats import (
    canonical_fingerprint,
    check_repetitions,
    check_reply,
    check_restart,
    median,
    percentile,
    samples_beyond,
    stream_outcome,
    tail_percentile,
)

BENCH = Path(__file__).resolve().parent.parent

TINY_ADDRESS = dict(scale=0.1, records=80, batches=3, budget=6)
TINY_GOLDEN = dict(clusters=40, records=100, batches=3, budget=5)


# -- percentile math ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000])
def test_percentile_matches_statistics_inclusive_quartiles(n):
    values = [((i * 7919) % 1013) / 7.0 for i in range(n)]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(q1)
    assert percentile(values, 50) == pytest.approx(q2)
    assert percentile(values, 75) == pytest.approx(q3)
    assert median(values) == pytest.approx(statistics.median(values))


def test_percentile_edges_and_errors():
    assert percentile([4.0], 99) == 4.0
    assert percentile([1.0, 3.0], 0) == 1.0
    assert percentile([1.0, 3.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_the_reported_tail():
    # Ten samples beyond p99 take about a thousand requests.
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(900, 99) < 10
    assert samples_beyond(100, 90) == 10


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(5000) == 99
    assert tail_percentile(1000) == 99
    for n in (11, 60, 112, 140):
        q = tail_percentile(n)
        assert samples_beyond(n, q) >= 10 > samples_beyond(n, q + 1)
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_combined_layers_recompute_ratios_from_their_bases():
    a = {name: 0.0 for name in layers.METRICS}
    b = dict(a)
    a.update({"core.grouping.graphs_built": 10,
              "core.grouping.graphs_rebuilt": 1,
              "pipeline.oracle.questions": 10,
              "pipeline.oracle.approve_ratio": 1.0,
              "trace.wall_s": 2.0, "trace.unexplained_s": 0.5})
    b.update({"core.grouping.graphs_built": 30,
              "core.grouping.graphs_rebuilt": 15,
              "pipeline.oracle.questions": 30,
              "pipeline.oracle.approve_ratio": 0.5,
              "trace.wall_s": 3.0, "trace.unexplained_s": 0.0})
    total = layers.combine([a, b])
    assert total["core.grouping.graphs_built"] == 40
    assert total["core.grouping.rebuilt_ratio"] == pytest.approx(16 / 40)
    assert total["pipeline.oracle.approve_ratio"] == pytest.approx(25 / 40)
    assert total["trace.unexplained_ratio"] == pytest.approx(0.5 / 5.0)


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert [m["name"] for m in spec["end_to_end"]][0] == "setup_s"
    assert {w["name"] for w in spec["workloads"]} == {
        "golden_accu", "serve_mixed"
    }


# -- correctness checks and failure counting -------------------------------


def _rep(rep=0, **overrides):
    base = {
        "rep": rep,
        "questions": 40,
        "cells_correct": 100,
        "graphs_built": None,
        "fingerprint": "abc",
        "problems": [],
        "batches": 5,
    }
    base.update(overrides)
    return base


def test_identical_repetitions_pass():
    reps = [_rep(0), _rep(1), _rep(2, graphs_built=[(3, 0)])]
    assert check_repetitions(reps) == []
    result = stream_outcome(reps)
    assert result["correct"] and result["attempted"] == 15
    assert result["failed"] == 0


@pytest.mark.parametrize(
    "field,wrong",
    [
        ("questions", 41),
        ("cells_correct", 99),
        ("fingerprint", "abd"),
        ("graphs_built", [(3, 1)]),
    ],
)
def test_repetitions_that_disagree_fail(field, wrong):
    reps = [_rep(0, graphs_built=[(3, 0)]), _rep(1, graphs_built=[(3, 0)])]
    reps[1][field] = wrong
    assert any(field in p for p in check_repetitions(reps))
    result = stream_outcome(reps)
    assert not result["correct"]
    assert result["failed"] == 5  # the disagreeing repetition's batches


def test_a_failed_repetition_counts_all_its_batches():
    crashed = {"rep": 1, "problems": ["child failed (1)"], "batches": 0,
               "setup_s": 0.1, "total_s": 0.2}
    result = stream_outcome([_rep(0), crashed, _rep(2, problems=["x"])])
    assert not result["correct"]
    assert result["attempted"] == 15 and result["failed"] == 10


def test_restart_probe_fails_on_a_lost_verdict():
    asked = [("a->b", True), ("c->d", False)]
    assert check_restart(asked, {"a->b": True, "c->d": False}) == []
    assert check_restart(asked, {"a->b": True})


def test_reply_check():
    sent = ["1 Main St", "2 Oak Ave"]
    good = {"ok": True, "values": ["1 Main Street", "2 Oak Avenue"],
            "version": 2}
    expected = ["1 Main Street", "2 Oak Avenue"]
    assert check_reply(good, sent, expected) is None
    assert check_reply(None, sent, expected) == "no reply"
    assert "refused" in check_reply({"ok": False, "error": "x"}, sent,
                                    expected)
    wrong = dict(good, values=["1 Main Street", "2 Oak Ave"])
    assert "differs" in check_reply(wrong, sent, expected)
    short = dict(good, values=["1 Main Street"])
    assert check_reply(short, sent, expected) is not None


def test_verify_counts_one_failure_per_wrong_reply():
    class Offline:
        def apply(self, version, values):
            return [v.upper() for v in values]

    records = [
        (["a"], {"ok": True, "values": ["A"], "version": 1}),
        (["b"], {"ok": True, "values": ["b"], "version": 1}),
        (["c"], None),
        (["d"], {"ok": False, "error": "busy"}),
    ]
    assert len(serve_load.verify(records, Offline())) == 3


def test_fingerprint_ignores_wall_clock_but_not_content(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"created_at": 1.0, "groups": [1],
                             "models": {"x": {"created_at": 5}}}))
    b.write_text(json.dumps({"created_at": 2.0, "groups": [1],
                             "models": {"x": {"created_at": 6}}}))
    assert canonical_fingerprint(a) == canonical_fingerprint(b)
    b.write_text(json.dumps({"created_at": 2.0, "groups": [2],
                             "models": {"x": {"created_at": 6}}}))
    assert canonical_fingerprint(a) != canonical_fingerprint(b)


# -- tiny workloads ----------------------------------------------------------


def _layer_names():
    return set(layers.METRICS) - {"trace.overhead_ratio"}


@pytest.fixture(scope="module")
def tiny_address(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("address")
    result = streams.run_repetition(
        "stream_address", 3, workdir, trace=True, sizes=TINY_ADDRESS
    )
    return workdir, result


def test_tiny_stream_address(tiny_address, tmp_path):
    _, traced = tiny_address
    assert traced["problems"] == []
    assert traced["questions"] > 0 and traced["cells_correct"] > 0
    assert set(traced["layers"]) == _layer_names()
    assert traced["layers"]["core.grouping.graphs_built"] > 0
    assert traced["layers"]["fusion.clusters_fused"] == 0
    assert len(traced["rows"]) == TINY_ADDRESS["batches"]
    plain = streams.run_repetition(
        "stream_address", 3, tmp_path, sizes=TINY_ADDRESS
    )
    # Tracing must not change what the stream asks, fixes or publishes.
    assert check_repetitions([traced, plain]) == []


def test_restart_probe_catches_a_truncated_decision_log(tiny_address):
    from repro.stream import DecisionCache

    workdir, _ = tiny_address
    log = workdir / "models" / "address" / "decisions.jsonl"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    oracle = streams.RecordingOracle(None)
    for line in lines:
        row = json.loads(line)
        from repro.core.replacement import Replacement

        oracle.asked.append(
            (Replacement(row["lhs"], row["rhs"]), row["approved"])
        )
    assert check_restart(oracle.asked, DecisionCache(log))


def test_registry_check_catches_a_wrong_published_model(tiny_address):
    from repro.serve import ModelRegistry

    workdir, _ = tiny_address
    registry = ModelRegistry(workdir / "models")
    path = registry.path("address")
    model = registry.load("address")
    assert streams._model_matches(path, model) == []
    payload = json.loads(path.read_text())
    payload["groups"] = payload["groups"][:-1]
    path.write_text(json.dumps(payload))
    assert streams._model_matches(path, model)


def test_tiny_golden_accu(tmp_path):
    result = streams.run_repetition(
        "golden_accu", 5, tmp_path, trace=True, sizes=TINY_GOLDEN
    )
    assert result["problems"] == []
    assert result["questions"] > 0 and result["cells_correct"] > 0
    assert result["layers"]["fusion.clusters_fused"] > 0
    assert result["layers"]["stream.resolver.pairs_compared"] > 0


def test_tiny_serve_mixed(tmp_path, monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)])
    )
    result = serve_load.run(
        2, 0, tmp_path, trace=True,
        sizes=dict(requests=60),
        learn_sizes=dict(scale=0.15, records=150, batches=3, budget=10),
    )
    passes = result["passes"]
    assert [p["traced"] for p in passes] == [False, True]
    for run in passes:
        assert run["failed"] == 0, run["problems"]
        assert run["requests"] >= 60
    assert set(passes[1]["layers"]) == _layer_names()
    assert passes[1]["layers"]["serve.server.swaps"] == len(
        result["versions"]
    ) - 1
    assert passes[1]["layers"]["serve.engine.values"] > 0


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "stream_address",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

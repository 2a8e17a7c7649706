"""The repository benchmark: one named workload from a seed.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``golden_accu`` — three-column golden streams with Accu fusion
  (``streams.py``);
* ``serve_mixed`` — closed-loop load on ``repro serve`` with hot swaps
  (``serve_load.py``);
* ``stream_address`` — single-column Address streams.  Not in
  BENCHMARK.json: its figures spread too much between seeds to hold a
  bound; it stays runnable for the graph-rebuild table of a traced run.

Every repetition runs in a fresh child process with a pinned
``PYTHONHASHSEED``, no inherited ``REPRO_*`` variables and its own
directory under ``.bench_build/`` of the checkout; children are
repeated until ``--seconds`` is used up.  The last line of standard
output is the result: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of traced repetitions (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS, combine  # noqa: E402
from stats import (  # noqa: E402
    median,
    outcome,
    percentile,
    samples_beyond,
    stream_outcome,
    tail_percentile,
)

WORKLOADS = ("golden_accu", "serve_mixed", "stream_address")

#: Seconds one stream repetition of either stream workload takes on a
#: 2-CPU machine, which sets how many distinct streams fit in a run.
STREAM_SECONDS = 2.4
REP_TIMEOUT_S = 150.0


def child_env() -> Dict[str, str]:
    """The hermetic environment every child process runs in."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and not key.startswith("PYTHON")
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
    )
    return env


def run_stream_rep(workload: str, seed: int, workdir: Path, trace: bool,
                   env: Dict[str, str]) -> Dict:
    """One stream repetition in a fresh process; set-up is timed from
    process start until the child reports ready."""
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "streams.py"), "--workload",
            workload, "--seed", str(seed), "--dir", str(workdir)]
    if trace:
        argv.append("--trace")
    started = time.perf_counter()
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - started
            out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = b""
    total = time.perf_counter() - started
    lines = out.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or b"ready" not in ready or not lines:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"problems": [f"child failed ({proc.returncode}): {tail}"],
                "total_s": total, "setup_s": setup, "batches": 0}
    rep = json.loads(lines[-1])
    rep.update(setup_s=setup, total_s=total)
    return rep


def substream_seeds(seed: int, seconds: float) -> List[int]:
    """The seeds of the distinct streams one run consolidates: as many
    as fit in ``seconds`` (at least two).  Streams of different seeds
    differ several-fold in work per record, so a run averages over many
    of them instead of timing one seed's stream repeatedly."""
    count = max(2, int(seconds // STREAM_SECONDS) - 1)
    return [seed * 1000 + k for k in range(count)]


def run_streams(args, env, workdir: Path) -> Dict:
    """One repetition of each distinct stream, then the first stream
    again, untraced, as the repeat the exactness checks compare.  A
    traced run traces the distinct streams and repeats the first one
    traced too, so its graph counts are compared as well."""
    seeds = substream_seeds(args.seed, args.seconds)
    plan = [(k, seed, bool(args.trace)) for k, seed in enumerate(seeds)]
    plan.append((0, seeds[0], False))
    if args.trace:
        plan.append((0, seeds[0], True))
    reps: List[Dict] = []
    for k, seed, traced in plan:
        rep = run_stream_rep(args.workload, seed, workdir / f"rep{len(reps)}",
                             traced, env)
        rep.update(rep=len(reps), stream=k)
        reps.append(rep)
    result = stream_outcome(reps)
    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    done = [rep for rep in reps if "questions" in rep]
    if len(done) < len(reps):
        return {**result, "metrics": {}}
    distinct = reps[: len(seeds)]
    if args.trace:
        metrics = combine([rep["layers"] for rep in distinct])
        # The first stream ran traced twice and untraced once.
        first_traced = (reps[0]["wall_s"] + reps[-1]["wall_s"]) / 2
        metrics["trace.overhead_ratio"] = first_traced / reps[-2]["wall_s"]
        print_batch_table(args.workload, reps[0]["rows"])
        return {**result, "metrics": metrics}
    batch_s = [s for rep in reps for s in rep["batch_s"]]
    q = tail_percentile(len(batch_s))
    print(f"# {len(seeds)} streams + 1 repeat, {len(batch_s)} batch "
          f"latencies (tail = p{q}, {samples_beyond(len(batch_s), q)} "
          "beyond it)")
    metrics = {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "throughput_per_s": sum(rep["records"] for rep in reps)
        / sum(rep["wall_s"] for rep in reps),
        "latency_p50_ms": percentile(batch_s, 50) * 1e3,
        "latency_tail_ms": percentile(batch_s, q) * 1e3,
        "questions": sum(rep["questions"] for rep in distinct),
        "cells_correct": sum(rep["cells_correct"] for rep in distinct),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }
    return {**result, "metrics": metrics}


def run_serve(args, env, workdir: Path) -> Dict:
    argv = [sys.executable, str(HERE / "serve_load.py"), "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--dir",
            str(workdir)]
    if args.trace:
        argv.append("--trace")
    with open(workdir / "stderr.txt", "wb") as err:
        # A session of its own, so a timeout also stops the server the
        # generator started.
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=args.seconds + REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
    lines = out.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or not lines:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"problem: load generator failed: {tail}", file=sys.stderr)
        return {**outcome(1, 1, ["load generator failed"]), "metrics": {}}
    result = json.loads(lines[-1])
    passes = result["passes"]
    problems = [p for run in passes for p in run["problems"]]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = layer_medians([p["layers"] for p in traced])
        metrics["trace.overhead_ratio"] = (
            median([p["wall_s"] for p in traced])
            / median([p["wall_s"] for p in untraced])
        )
    else:
        latencies = [s for p in passes for s in p["latencies_s"]]
        q = tail_percentile(len(latencies))
        print(f"# {len(passes)} passes, {len(latencies)} requests "
              f"(tail = p{q}, {samples_beyond(len(latencies), q)} beyond it)")
        metrics = {
            "setup_s": median([p["setup_s"] for p in passes]),
            "throughput_per_s": sum(p["values"] for p in passes)
            / sum(p["wall_s"] for p in passes),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_tail_ms": percentile(latencies, q) * 1e3,
            "questions": result["questions"],
            "cells_correct": result["cells_correct"],
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        }
    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {**outcome(attempted, failed, problems), "metrics": metrics}


def layer_medians(layers: Sequence[Dict]) -> Dict[str, float]:
    """Per-layer metrics over traced passes: each metric's median."""
    if not layers:
        return {}
    return {
        name: median([layer[name] for layer in layers])
        for name in LAYER_METRICS
        if name != "trace.overhead_ratio"
    }


def print_batch_table(workload: str, rows: Sequence[Dict]) -> None:
    """The graph-rebuild baseline: per batch, how much of the grouping
    work rebuilt graphs an earlier batch had already built."""
    print(f"# {workload} per-batch (traced repetition)")
    print("# batch  records  seconds  questions  graphs_built  graphs_rebuilt")
    for row in rows:
        print(f"# {row['batch']:5d}  {row['records']:7d}  "
              f"{row['seconds']:7.3f}  {row['questions']:9d}  "
              f"{row['graphs_built']:12d}  {row['graphs_rebuilt']:14d}")


def with_units(metrics: Dict[str, float], trace: bool) -> Tuple[Dict, int]:
    """The metrics BENCHMARK.json declares for this kind of run, with
    their units; a declared metric the run did not produce is left out
    (and the run is then reported incorrect)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
        if entry["name"] in metrics
    }, len(declared)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(f"error: no repro sources or BENCHMARK.json under {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    print(json.dumps({"environment": {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
    }}))
    scratch = ROOT / ".bench_build" / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = run_serve if args.workload == "serve_mixed" else run_streams
        result = run(args, child_env(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, declared = with_units(result["metrics"], bool(args.trace))
    if len(metrics) != declared:
        result["correct"] = False
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

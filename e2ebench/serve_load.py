"""The ``serve_mixed`` workload: a closed-loop load generator against
``repro serve --listen --registry --follow``.

Set-up (once per run, untimed): an Address stream pinned to one seed
learns a sequence of model versions into a source registry; the run's
``--seed`` chooses the traffic.  Then, until the time is up, each
*pass*:

1. publishes version 1 into a fresh serving registry and starts the
   server through ``launch_server.py`` (the set-up time is process
   start until the server announces its port, i.e. listening with its
   first engine compiled);
2. drives a fixed script of requests over two connections, each
   waiting for its reply before sending again.  Every request applies
   32 values: 16 from a hot set (memo hits) and 16 held-out Address
   variants never sent before in the run (token tier);
3. publishes the next version at fixed request counts and waits until
   a reply claims it, so every pass makes the same swaps;
4. shuts the server down, then checks every reply against an offline
   :class:`~repro.serve.engine.ApplyEngine` of the version it claims.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from stats import check_reply
from streams import first_arrivals

HERE = Path(__file__).resolve().parent

#: The learn run behind the served versions is pinned to one seed, so
#: every run serves the same models and only the traffic follows the
#: run's seed.
LEARN = dict(seed=7, scale=0.6, records=500, batches=4, budget=40)
SERVE = dict(
    requests=1000,
    connections=2,
    hot=16,
    fresh=16,
    hot_pool=64,
)
REPLY_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0


def learn_versions(root: Path, sizes: Dict) -> Dict:
    """Learn the model versions the passes publish; returns the learn
    run's human bill and quality, plus the values it saw."""
    seed = sizes["seed"]
    from repro.datagen import address_dataset
    from repro.datagen.stream import dataset_stream
    from repro.serve import ModelRegistry
    from repro.stream import StreamConsolidator, ground_truth_oracle_factory

    dataset = address_dataset(scale=sizes["scale"], seed=seed)
    stream = first_arrivals(
        dataset_stream(dataset, batches=1, seed=seed),
        sizes["records"],
        sizes["batches"],
    )
    registry = ModelRegistry(root)
    consolidator = StreamConsolidator(
        column=stream.column,
        oracle_factory=ground_truth_oracle_factory(
            stream.canonical_by_rid, seed=seed
        ),
        key_attribute=stream.key_column,
        budget_per_batch=sizes["budget"],
        registry=registry,
        model_name="address",
        persist_decisions=False,
    )
    with consolidator:
        consolidator.run(stream.batches)
    truth = stream.canonical_by_rid
    cells_correct = sum(
        1
        for cluster in consolidator.table.clusters
        for record in cluster.records
        if truth.get(record.rid) == record.values.get(stream.column)
    )
    seen = sorted({r.values[stream.column] for r in stream.records})
    return {
        "questions": consolidator.questions_asked,
        "cells_correct": cells_correct,
        "versions": registry.versions("address"),
        "seen": seen,
    }


def fresh_values(seed: int, exclude: Sequence[str]) -> Iterator[str]:
    """Held-out Address renderings, each yielded once."""
    from repro.datagen.address import make_address, render_variant

    rng = random.Random(f"serve-fresh-{seed}")
    used = set(exclude)
    while True:
        value = render_variant(make_address(rng), rng)
        if value not in used:
            used.add(value)
            yield value


def publish(source: Path, target: Path, version: int) -> None:
    """Copy one version (sidecar first, model file last, each by atomic
    rename) into the serving registry."""
    target.mkdir(parents=True, exist_ok=True)
    for name in (f"v{version}.index.json", f"v{version}.json"):
        src = source / name
        if src.exists():
            tmp = target / f".{name}.tmp"
            shutil.copyfile(src, tmp)
            os.replace(tmp, target / name)


def start_server(registry: Path, report: Path, trace: bool, env: Dict):
    """Launch the server; returns ``(process, port, setup seconds)``."""
    argv = [
        sys.executable, str(HERE / "launch_server.py"),
        "--report", str(report),
    ] + (["--trace"] if trace else []) + [
        "--", "serve", "--listen", "127.0.0.1:0",
        "--registry", str(registry), "--name", "address",
        "--follow", "--poll-interval", "0.05",
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        port = _read_port(proc, started + START_TIMEOUT_S)
    except RuntimeError:
        stop_server(proc, timeout=0)
        raise
    return proc, port, time.perf_counter() - started


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    """The port from the server's ``listening on HOST:PORT`` banner."""
    buffered = b""
    while True:
        while b"\n" in buffered:
            line, buffered = buffered.split(b"\n", 1)
            if line.startswith(b"listening on "):
                return int(line.rsplit(b":", 1)[1])
        remaining = max(0.0, deadline - time.perf_counter())
        ready, _, _ = select.select([proc.stderr], [], [], remaining)
        chunk = os.read(proc.stderr.fileno(), 4096) if ready else b""
        if not chunk:
            raise RuntimeError("server did not announce its port")
        buffered += chunk


def stop_server(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """Wait for the server to exit (killing it after ``timeout``)."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


class Script:
    """The pass's fixed request sequence and swap schedule, shared by
    the connections (one event loop, so no locking is needed)."""

    def __init__(self, total: int, values: List[List[str]],
                 versions: Sequence[int], publish_fn) -> None:
        self.total = total
        self.values = values
        self.versions = list(versions)
        # Publish version k+1 once k/(K+1) of the script has been
        # sent; the last swap lands well before the end of the pass.
        k = len(self.versions)
        self.points = [total * i // (k + 1) for i in range(1, k)]
        self.publish_fn = publish_fn
        self.sent = 0
        self.live = self.versions[0]
        self.landed = True
        self.records: List = []

    def next_request(self) -> Optional[int]:
        index = self.sent
        if self.landed and self.points and index >= self.points[0]:
            self.points.pop(0)
            self.live = self.versions[self.versions.index(self.live) + 1]
            self.publish_fn(self.live)
            self.landed = False
        if index >= self.total and not self.landed:
            # The script is over but a swap is in flight: keep the
            # load on until it lands, reusing the last values.
            index = self.total - 1
        elif index >= self.total:
            return None
        self.sent += 1
        return index

    def observe(self, reply: Optional[Dict]) -> None:
        if reply is not None and reply.get("version") == self.live:
            self.landed = True


async def _connection(port: int, script: Script, latencies: List[float]):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while True:
            index = script.next_request()
            if index is None:
                return
            values = script.values[index]
            line = json.dumps({"op": "apply", "values": values}) + "\n"
            began = time.perf_counter()
            writer.write(line.encode("utf-8"))
            try:
                await writer.drain()
                raw = await asyncio.wait_for(
                    reader.readline(), REPLY_TIMEOUT_S
                )
                reply = json.loads(raw) if raw else None
            except (asyncio.TimeoutError, ConnectionError, ValueError):
                reply = None
            latencies.append(time.perf_counter() - began)
            script.records.append((values, reply))
            script.observe(reply)
            if reply is None:
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _drive(port: int, script: Script, connections: int):
    latencies: List[float] = []
    began = time.perf_counter()
    await asyncio.gather(
        *(_connection(port, script, latencies) for _ in range(connections))
    )
    wall = time.perf_counter() - began
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "shutdown"}\n')
    await writer.drain()
    await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
    writer.close()
    return latencies, wall


class OfflineEngines:
    """One offline engine per published version (the reference)."""

    def __init__(self, root: Path) -> None:
        from repro.serve import ApplyEngine, ModelRegistry

        self._registry = ModelRegistry(root)
        self._engine_cls = ApplyEngine
        self._engines: Dict[int, object] = {}

    def apply(self, version, values):
        if version not in self._engines:
            model = self._registry.load("address", version)
            self._engines[version] = self._engine_cls(model)
        return self._engines[version].apply_values(values)


def verify(records, offline: OfflineEngines) -> List[str]:
    """One problem per wrong or missing reply."""
    problems = []
    for values, reply in records:
        version = reply.get("version") if reply else None
        expected = offline.apply(version, values) if version else values
        problem = check_reply(reply, values, expected)
        if problem is not None:
            problems.append(problem)
    return problems


def run_pass(index: int, workdir: Path, learned: Dict, hot: List[str],
             fresh: Iterator[str], offline: OfflineEngines, trace: bool,
             env: Dict, sizes: Dict) -> Dict:
    source = workdir / "learned" / "address"
    serving = workdir / f"pass{index}" / "models"
    versions = learned["versions"]
    publish(source, serving / "address", versions[0])
    n_hot, n_fresh = sizes["hot"], sizes["fresh"]
    values = [
        [hot[(i * n_hot + j) % len(hot)] for j in range(n_hot)]
        + [next(fresh) for _ in range(n_fresh)]
        for i in range(sizes["requests"])
    ]
    script = Script(
        sizes["requests"], values, versions,
        lambda v: publish(source, serving / "address", v),
    )
    report_path = workdir / f"pass{index}" / "server.json"
    proc, port, setup = start_server(serving, report_path, trace, env)
    try:
        latencies, wall = asyncio.run(
            _drive(port, script, sizes["connections"])
        )
    finally:
        stop_server(proc)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    problems = verify(script.records, offline)
    served = sorted(
        {r.get("version") for _, r in script.records if r is not None}
    )
    if served != list(versions):
        problems.append(f"versions served {served}, published {versions}")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "latencies_s": latencies,
        "requests": len(script.records),
        "values": sum(len(v) for v, _ in script.records),
        "failed": len(problems),
        "problems": problems[:5],
        "peak_rss_mb": report["peak_rss_mb"],
        "layers": report["layers"],
        "traced": trace,
    }


def run(seed: int, seconds: float, workdir: Path, trace: bool,
        sizes: Optional[Dict] = None, learn_sizes: Optional[Dict] = None,
        min_passes: int = 2) -> Dict:
    sizes = {**SERVE, **(sizes or {})}
    learned = learn_versions(
        workdir / "learned", {**LEARN, **(learn_sizes or {})}
    )
    rng = random.Random(f"serve-hot-{seed}")
    pool = learned["seen"]
    hot = rng.sample(pool, min(sizes["hot_pool"], len(pool)))
    fresh = fresh_values(seed, pool)
    offline = OfflineEngines(workdir / "learned")
    env = dict(os.environ)
    passes: List[Dict] = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        started = time.perf_counter()
        passes.append(
            run_pass(len(passes), workdir, learned, hot, fresh, offline,
                     traced, env, sizes)
        )
        longest = max(longest, time.perf_counter() - started)
        elapsed = time.perf_counter() - began
        # Stop where the expected end is closest to the budget.
        if len(passes) >= min_passes and elapsed + longest / 2 >= seconds:
            break
    return {
        "questions": learned["questions"],
        "cells_correct": learned["cells_correct"],
        "versions": learned["versions"],
        "passes": passes,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.seed, args.seconds, args.dir, args.trace)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

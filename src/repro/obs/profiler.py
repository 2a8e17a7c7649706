"""Sampling profiler (``repro stream --profile out.jsonl``).

A background daemon thread samples the main thread's Python stack via
``sys._current_frames()`` on a fixed interval (default 5 ms — ~200
samples/s, far below the cost of tracing every call) and aggregates
the samples as **collapsed stacks**: ``frame;frame;frame`` from
outermost to innermost, one count per identical stack.  That is the
input format of every flamegraph renderer (``flamegraph.pl``,
speedscope, inferno) — :meth:`SamplingProfiler.collapsed_lines` is
directly pastable into any of them.

Each sample is also attributed to the **active span** of the tracer it
was built with (:meth:`~repro.obs.trace.Tracer.current_name` — read
cross-thread, which is safe because the stack is only ever appended
and popped, and a racy read merely mis-attributes one 5 ms sample), so
the profile answers not just *"which function burns time"* but
*"inside which pipeline stage"* — the hot loop of ``stream.learn`` and
the hot loop of ``stream.resolve`` stay separate rows even when they
share helper functions.

Output rows (JSON-lines via :meth:`write`)::

    {"type": "meta", "command": "profile", "interval": 0.005,
     "samples": 1234, "seconds": 6.17}
    {"type": "profile", "stack": "mod:f;mod:g", "span": "stream.learn",
     "count": 42}

Stdlib-only, like the rest of ``repro.obs``; sampling overhead is a
single frame walk per tick, independent of how fast the profiled code
runs.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]


def _frame_label(frame) -> str:
    """One collapsed-stack frame: ``file-basename:function``."""
    code = frame.f_code
    filename = code.co_filename
    slash = filename.rfind("/")
    backslash = filename.rfind("\\")
    cut = max(slash, backslash)
    return f"{filename[cut + 1:]}:{code.co_name}"


class SamplingProfiler:
    """Samples the target thread's stack into collapsed-stack counts.

    Use as a context manager around the region to profile::

        profiler = SamplingProfiler(interval=0.005, tracer=obs.tracer)
        with profiler:
            run_the_stream()
        profiler.write("profile.jsonl")

    ``tracer`` is optional; when given, each sample carries the name of
    the span active at sample time (``None`` between spans).  Only the
    thread that *starts* the profiler is sampled — the stream hot path
    is single-threaded in the parent, and shard workers are separate
    processes whose time is already attributed by their ``shard.*``
    spans.
    """

    def __init__(
        self,
        interval: float = 0.005,
        tracer=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = interval
        self.tracer = tracer
        #: aggregated samples: (collapsed stack, span name) -> count
        self.counts: Dict[Tuple[str, Optional[str]], int] = {}
        self.samples = 0
        self.seconds = 0.0
        self._target_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_id = threading.get_ident()
        self._stop.clear()
        self._started = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None
        self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- the sampler thread ------------------------------------------------

    def _run(self) -> None:
        target = self._target_id
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            frame = frames.get(target)
            if frame is None:  # target thread exited
                return
            labels: List[str] = []
            while frame is not None:
                labels.append(_frame_label(frame))
                frame = frame.f_back
            labels.reverse()  # outermost first, flamegraph convention
            span: Optional[str] = None
            if self.tracer is not None:
                try:
                    span = self.tracer.current_name()
                except Exception:  # cross-thread race: drop attribution
                    span = None
            key = (";".join(labels), span)
            self.counts[key] = self.counts.get(key, 0) + 1
            self.samples += 1

    # -- output ------------------------------------------------------------

    def rows(self) -> List[Dict[str, object]]:
        """Aggregated ``profile`` rows, heaviest stacks first."""
        # ``span`` is None outside any span: it must not meet a str in
        # the comparison when one stack is seen both with and without.
        ordered = sorted(
            self.counts.items(),
            key=lambda item: (-item[1], item[0][0], item[0][1] or ""),
        )
        out: List[Dict[str, object]] = []
        for (stack, span), count in ordered:
            row: Dict[str, object] = {
                "type": "profile",
                "stack": stack,
                "span": span,
                "count": count,
            }
            out.append(row)
        return out

    def collapsed_lines(self, by_span: bool = False) -> List[str]:
        """``"stack count"`` lines for flamegraph tools.  With
        ``by_span`` the active span becomes the root frame, so the
        flamegraph groups by pipeline stage."""
        merged: Dict[str, int] = {}
        for (stack, span), count in self.counts.items():
            if by_span:
                stack = f"{span or '(no span)'};{stack}"
            merged[stack] = merged.get(stack, 0) + count
        return [
            f"{stack} {count}"
            for stack, count in sorted(
                merged.items(), key=lambda item: (-item[1], item[0])
            )
        ]

    def write(self, path: PathLike) -> None:
        """Write a meta row plus all profile rows as JSON-lines."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            meta = {
                "type": "meta",
                "command": "profile",
                "interval": self.interval,
                "samples": self.samples,
                "seconds": round(self.seconds, 6),
            }
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for row in self.rows():
                handle.write(
                    json.dumps(row, sort_keys=True, ensure_ascii=False)
                    + "\n"
                )

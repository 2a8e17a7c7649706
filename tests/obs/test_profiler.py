"""Tests for the sampling profiler (collapsed stacks, span attribution)."""

import json
import time

import pytest

from repro.obs import MemorySink, Obs
from repro.obs.profiler import SamplingProfiler, _frame_label


def spin(seconds):
    """Burn CPU under a recognizable frame name."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSampling:
    def test_busy_loop_is_sampled(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.2)
        assert profiler.samples > 0
        assert profiler.seconds > 0.1
        stacks = "\n".join(stack for stack, _span in profiler.counts)
        assert "test_profiler.py:spin" in stacks

    def test_span_attribution(self):
        obs = Obs(sink=MemorySink(), trace=True)
        profiler = SamplingProfiler(interval=0.001, tracer=obs.tracer)
        with profiler:
            with obs.span("stream.learn"):
                spin(0.15)
        spans = {span for _stack, span in profiler.counts}
        assert "stream.learn" in spans

    def test_start_twice_raises(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_is_noop(self):
        SamplingProfiler().stop()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0.0)


class TestOutput:
    def fake(self):
        profiler = SamplingProfiler(interval=0.005)
        profiler.counts = {
            ("a.py:f;a.py:g", "stream.learn"): 5,
            ("a.py:f;a.py:h", None): 2,
            ("a.py:f;a.py:g", None): 1,
        }
        profiler.samples = 8
        profiler.seconds = 0.04
        return profiler

    def test_rows_heaviest_first(self):
        rows = self.fake().rows()
        assert [row["count"] for row in rows] == [5, 2, 1]
        assert rows[0] == {
            "type": "profile",
            "stack": "a.py:f;a.py:g",
            "span": "stream.learn",
            "count": 5,
        }

    def test_rows_sort_one_stack_with_and_without_span(self, tmp_path):
        # The same stack and count under a span and under none: the
        # row order must not compare None with a str.
        profiler = SamplingProfiler(interval=0.005)
        profiler.counts = {
            ("a.py:f;a.py:g", "stream.learn"): 3,
            ("a.py:f;a.py:g", None): 3,
        }
        rows = profiler.rows()
        assert [row["span"] for row in rows] == [None, "stream.learn"]
        profiler.write(tmp_path / "profile.jsonl")
        lines = (tmp_path / "profile.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_collapsed_lines_merge_spans(self):
        lines = self.fake().collapsed_lines()
        # Same stack under different spans merges: 5 + 1 = 6.
        assert lines[0] == "a.py:f;a.py:g 6"
        assert "a.py:f;a.py:h 2" in lines

    def test_collapsed_lines_by_span_roots(self):
        lines = self.fake().collapsed_lines(by_span=True)
        assert "stream.learn;a.py:f;a.py:g 5" in lines
        assert "(no span);a.py:f;a.py:h 2" in lines

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "profile.jsonl"
        self.fake().write(path)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[0]["type"] == "meta"
        assert rows[0]["command"] == "profile"
        assert rows[0]["samples"] == 8
        assert [r["type"] for r in rows[1:]] == ["profile"] * 3


class TestFrameLabel:
    def test_basename_and_function(self):
        frame = next(iter(__import__("sys")._current_frames().values()))
        label = _frame_label(frame)
        assert ":" in label
        assert "/" not in label.split(":", 1)[0]

"""Tracer: head sampling, span nesting, JSONL export, null-object cost."""

import json

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.data import SessionBatch, assemble_session
from repro.infer import compile_model
from repro.obs import (
    NULL_SPAN,
    NULL_TRACE,
    NULL_TRACER,
    JsonlTraceExporter,
    Tracer,
    kernel_span_hook,
)
from repro.obs import trace as trace_module
from repro.serving import ManualClock


class TestSampling:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        traces = [tracer.trace("q") for _ in range(20)]
        assert all(t.sampled for t in traces)
        assert tracer.stats()["sampled"] == 20

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        traces = [tracer.trace("q") for _ in range(20)]
        assert all(t is NULL_TRACE for t in traces)
        assert tracer.stats() == {
            "enabled": True,
            "sample_rate": 0.0,
            "started": 20,
            "sampled": 0,
            "exported": 0,
        }

    def test_partial_rate_is_deterministic_given_seed(self):
        def decisions(seed):
            tracer = Tracer(sample_rate=0.5, seed=seed)
            return [tracer.trace("q").sampled for _ in range(50)]

        assert decisions(3) == decisions(3)
        assert 0 < sum(decisions(3)) < 50

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)


class TestSpanTree:
    def test_with_blocks_nest(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.trace("q", user=7)
        with trace.span("outer"):
            clock.advance(0.001)
            with trace.span("inner", hit=True):
                clock.advance(0.002)
        trace.finish()
        outer, inner = trace.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attrs == {"hit": True}
        assert inner.duration_ms == pytest.approx(2.0)
        assert outer.duration_ms == pytest.approx(3.0)

    def test_begin_keeps_span_open_across_calls(self):
        """The batcher's queue-wait pattern: begin at submit, end at flush."""
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.trace("q")
        waiting = trace.begin("queue-wait")
        clock.advance(0.005)
        waiting.end()
        waiting.end()  # idempotent
        assert waiting.duration_ms == pytest.approx(5.0)

    def test_record_span_attaches_external_interval(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.trace("q")
        parent = trace.begin("flush")
        shared = trace.record_span("gate-flush", 1.0, 1.25, parent=parent, sessions=3)
        parent.end()
        assert shared.parent_id == parent.span_id
        assert shared.duration_ms == pytest.approx(250.0)
        assert shared.attrs == {"sessions": 3}

    def test_finish_closes_open_spans_and_exports_once(self):
        tracer = Tracer()
        trace = tracer.trace("q")
        trace.span("left-open")
        trace.finish(latency_ms=1.0)
        trace.finish()  # idempotent: one export
        assert len(tracer.finished) == 1
        assert tracer.finished[0]["attrs"]["latency_ms"] == 1.0
        assert trace.spans[0].end_time is not None

    def test_finished_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace_module, "KEEP_LAST", 4)
        tracer = Tracer()
        for i in range(10):
            tracer.trace(f"q{i}").finish()
        assert len(tracer.finished) == 4
        assert tracer.finished[-1]["name"] == "q9"


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        clock = ManualClock()
        with JsonlTraceExporter(str(path)) as exporter:
            tracer = Tracer(exporter=exporter, clock=clock)
            for i in range(3):
                trace = tracer.trace("q", i=i)
                with trace.span("stage"):
                    clock.advance(0.001)
                trace.finish()
            assert exporter.traces_written == 3
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["attrs"]["i"] for r in records] == [0, 1, 2]
        span = records[0]["spans"][0]
        assert span["name"] == "stage"
        assert span["parent"] is None
        assert span["duration_ms"] == pytest.approx(1.0)
        assert span["start_ms"] >= 0.0


class TestJsonlRotation:
    def _write_traces(self, exporter, n, payload="x" * 50):
        tracer = Tracer(exporter=exporter)
        for i in range(n):
            tracer.trace("q", i=i, pad=payload).finish()

    def test_rotates_when_size_cap_exceeded(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=300, keep=3) as exporter:
            self._write_traces(exporter, 10)
            assert exporter.rotations > 0
        rotated = sorted(p.name for p in tmp_path.glob("traces.jsonl*"))
        assert "traces.jsonl" in rotated
        assert "traces.jsonl.1" in rotated
        # Every surviving file is valid JSONL and no record was lost overall
        # beyond what rotation dropped off the tail.
        total = 0
        for name in rotated:
            for line in (tmp_path / name).read_text().strip().splitlines():
                record = json.loads(line)
                assert record["name"] == "q"
                total += 1
        assert total > 0

    def test_keep_bounds_rotated_files(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=150, keep=2) as exporter:
            self._write_traces(exporter, 30)
        files = sorted(p.name for p in tmp_path.glob("traces.jsonl*"))
        # Active file + at most `keep` rotated generations, never more.
        assert files == ["traces.jsonl", "traces.jsonl.1", "traces.jsonl.2"]

    def test_newest_records_stay_in_active_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=200, keep=5) as exporter:
            self._write_traces(exporter, 12)
        newest = [
            json.loads(line)["attrs"]["i"]
            for line in path.read_text().strip().splitlines()
        ]
        oldest_rotated = [
            json.loads(line)["attrs"]["i"]
            for line in (tmp_path / "traces.jsonl.1").read_text().strip().splitlines()
        ]
        assert max(newest) == 11
        assert max(oldest_rotated) < min(newest)

    def test_single_oversized_record_still_written_whole(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path), max_bytes=64, keep=2) as exporter:
            tracer = Tracer(exporter=exporter)
            tracer.trace("q", blob="y" * 500).finish()
        (record,) = [json.loads(line) for line in path.read_text().strip().splitlines()]
        assert record["attrs"]["blob"] == "y" * 500

    def test_no_cap_never_rotates(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlTraceExporter(str(path)) as exporter:
            self._write_traces(exporter, 50)
            assert exporter.rotations == 0
        assert list(tmp_path.glob("traces.jsonl.*")) == []

    def test_invalid_rotation_config_rejected(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            JsonlTraceExporter(path, max_bytes=0)
        with pytest.raises(ValueError):
            JsonlTraceExporter(path, max_bytes=100, keep=0)


class TestNullObjects:
    def test_null_trace_is_inert(self):
        assert NULL_TRACER.trace("anything", user=1) is NULL_TRACE
        assert NULL_TRACE.span("x") is NULL_SPAN
        assert NULL_TRACE.begin("x") is NULL_SPAN
        assert NULL_TRACE.record_span("x", 0.0, 1.0) is NULL_SPAN
        with NULL_TRACE.span("x") as span:
            span.set(a=1)
        NULL_TRACE.finish()
        assert not NULL_TRACE.sampled
        assert not NULL_TRACER.enabled

    def test_kernel_span_hook_skips_unsampled(self):
        assert kernel_span_hook((NULL_TRACE, NULL_SPAN)) is None
        assert kernel_span_hook() is None

    def test_kernel_span_hook_records_child(self):
        clock = ManualClock(start=10.0)
        tracer = Tracer(clock=clock)
        pairs = []
        for name in ("q", "r"):
            trace = tracer.trace(name)
            pairs.append((trace, trace.begin("rank")))
        # One batched kernel fans out to every sampled request's rank span.
        hook = kernel_span_hook(*pairs, (NULL_TRACE, NULL_SPAN))

        class Step:
            name, kind, flops = "experts", "experts", 128

        hook(Step, 0.004, {})
        for trace, parent in pairs:
            parent.end()
            kernel = trace.spans[-1]
            assert kernel.name == "experts"
            assert kernel.parent_id == parent.span_id
            assert kernel.duration_ms == pytest.approx(4.0)
            assert kernel.attrs == {"kind": "experts", "flops": 128}


class TestKernelSpans:
    def test_one_span_per_plan_step(self, unit_world, test_set):
        """Both plans hooked, one ``predict_proba`` on a session batch: each
        plan's parent span gets exactly one child per step, named after the
        step and carrying its op kind and per-row FLOPs — the spans the
        benchmarks' kernel-share gate adds up."""
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        compiled = compile_model(model)
        members = np.flatnonzero(unit_world.item_category == 1)
        batch = SessionBatch.concat(
            [assemble_session(unit_world, 3, 1, members[:5]),
             assemble_session(unit_world, 11, 1, members[:2])]
        )
        tracer = Tracer()
        hooked = []
        for plan in (compiled.gate_plan, compiled.score_plan):
            trace = tracer.trace("flush")
            parent = trace.begin(plan.name)
            plan.step_hook = kernel_span_hook((trace, parent))
            hooked.append((plan, trace, parent))
        compiled.predict_proba(batch)
        for plan, trace, parent in hooked:
            trace.finish()
            kernels = [span for span in trace.spans if span is not parent]
            assert all(span.parent_id == parent.span_id for span in kernels)
            assert [span.name for span in kernels] == [step.name for step in plan.steps]
            assert [span.attrs for span in kernels] == [
                {"kind": step.kind, "flops": step.flops} for step in plan.steps
            ]
            assert any(step.flops for step in plan.steps)

"""Request tracing: nested spans through the serving pipeline.

A trace follows one query end to end — ``submit → queue-wait → gate →
retrieve [ivf-probe / prefilter / prune] → rank [per-plan-step] → flush`` —
so latency can be attributed to a *stage*, not just observed at the edge.
The design constraints come from the serving hot path:

* **head-based sampling**: the keep/drop decision is made once, at
  :meth:`Tracer.trace` time, so an unsampled request pays one RNG draw and
  nothing else;
* **near-zero-cost when disabled**: unsampled requests receive the shared
  :data:`NULL_TRACE` singleton whose every method is a no-op — components
  instrument unconditionally and never branch on "is tracing on?"
  (``benchmarks/test_serving_throughput.py`` guards the overhead at < 5%);
* **externally timed spans**: micro-batched work (the flush's gate
  resolution and ranking forward) is shared by many queries; the batcher
  times it once and attaches the interval to every sampled trace via
  :meth:`Trace.record_span` instead of re-measuring per query.

Finished traces are exported as JSONL — one JSON object per trace per line,
spans carrying integer ids/parents and start offsets in milliseconds
relative to the trace start — a format log pipelines and the CI artifacts
ingest directly.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACE",
    "NULL_TRACER",
    "JsonlTraceExporter",
    "InMemoryExporter",
    "kernel_span_hook",
]


class Span:
    """One timed stage inside a trace (usable as a context manager)."""

    __slots__ = ("_trace", "span_id", "parent_id", "name", "start_time", "end_time", "attrs")

    sampled = True

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_time: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}

    def set(self, **attrs: Any) -> "Span":
        """Attach key/value attributes (e.g. ``cache_hit=True``)."""
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        """Close the span (idempotent)."""
        if self.end_time is None:
            self.end_time = self._trace._clock()
            self._trace._close(self)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return (self.end_time - self.start_time) * 1000.0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end()
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """Shared do-nothing span handed out by unsampled traces."""

    __slots__ = ()
    sampled = False
    span_id = None
    parent_id = None
    name = ""
    attrs: Dict[str, Any] = {}
    duration_ms = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Trace:
    """One sampled request's span tree.

    Spans opened with :meth:`span` nest under the innermost open span;
    :meth:`begin` is the same operation under a name that reads better when
    the caller keeps the handle and ends it later (the batcher's queue-wait
    span stays open from submit until the flush).  :meth:`finish` closes any
    stragglers and hands the trace to the tracer's exporter.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "name",
        "attrs",
        "start_time",
        "end_time",
        "spans",
        "_stack",
        "_clock",
    )

    sampled = True

    def __init__(self, tracer: "Tracer", trace_id: int, name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        self.attrs = attrs
        self._clock = tracer._clock
        self.start_time = self._clock()
        self.end_time: Optional[float] = None
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        handle = Span(self, len(self.spans), parent, name, self._clock(), attrs or None)
        self.spans.append(handle)
        self._stack.append(handle)
        return handle

    #: Alias for spans the caller ends manually instead of via ``with``.
    begin = span

    def _close(self, span: Span) -> None:
        try:
            self._stack.remove(span)
        except ValueError:  # already closed out of order — harmless
            pass

    def record_span(
        self,
        name: str,
        start_time: float,
        end_time: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Attach an externally timed interval (shared micro-batched work)."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        handle = Span(self, len(self.spans), parent_id, name, start_time, attrs or None)
        handle.end_time = end_time
        self.spans.append(handle)
        return handle

    def set(self, **attrs: Any) -> "Trace":
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs: Any) -> None:
        """Close every open span, stamp the end time, export (idempotent)."""
        if self.end_time is not None:
            return
        for span in reversed(self.spans):
            if span.end_time is None:
                span.end()
        self.attrs.update(attrs)
        self.end_time = self._clock()
        self.tracer._export(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record; span times are ms offsets from the trace start."""
        origin = self.start_time
        end = self.end_time if self.end_time is not None else self._clock()
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_ms": (end - origin) * 1000.0,
            "attrs": self.attrs,
            "spans": [
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start_ms": (span.start_time - origin) * 1000.0,
                    "duration_ms": span.duration_ms,
                    "attrs": span.attrs,
                }
                for span in self.spans
            ],
        }


class _NullTrace:
    """Shared do-nothing trace handed to unsampled requests."""

    __slots__ = ()
    sampled = False
    trace_id = None
    name = ""
    attrs: Dict[str, Any] = {}
    spans: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    begin = span

    def record_span(self, name, start_time, end_time, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def set(self, **attrs: Any) -> "_NullTrace":
        return self

    def finish(self, **attrs: Any) -> None:
        pass


NULL_TRACE = _NullTrace()


def kernel_span_hook(*parents: Tuple[Any, Any]) -> Optional[Callable]:
    """A step hook attaching per-kernel child spans under each ``(trace,
    parent span)`` pair.

    Built for :meth:`repro.infer.plan.InferencePlan.run`'s ``step_hook``:
    after each fused kernel executes, every sampled trace records a child
    span under its parent with the kernel's name, op kind, per-row FLOPs and
    measured interval — one pair for :meth:`SearchEngine.search`, one per
    sampled request for a micro-batched flush.  Returns ``None`` when no
    trace is sampled, which keeps the plan on its untimed loop.
    """
    parents = tuple((trace, parent) for trace, parent in parents if trace.sampled)
    if not parents:
        return None
    clock = parents[0][0]._clock

    def hook(step: Any, seconds: float, ctx: dict) -> None:
        now = clock()
        for trace, parent in parents:
            trace.record_span(
                step.name, now - seconds, now, parent=parent, kind=step.kind, flops=step.flops
            )

    return hook


class JsonlTraceExporter:
    """Append finished traces to a JSONL file, one trace per line.

    Growth is bounded: with ``max_bytes`` set, the active file rotates once
    the next record would push it past the cap — ``path`` is renamed to
    ``path.1`` (existing rotations shift to ``path.2`` … ``path.keep``, the
    oldest dropped) and a fresh file is opened.  A long traced run then
    holds at most ``(keep + 1) * max_bytes`` on disk instead of appending
    forever.  A single record larger than ``max_bytes`` still writes whole
    (into its own file) — records are never split or silently dropped.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None, keep: int = 3) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.path = str(path)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.keep = int(keep)
        self.traces_written = 0
        self.rotations = 0
        self.bytes_written = 0  # in the currently active file
        self._fh = None

    def export(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        nbytes = len(line.encode("utf-8"))
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self.bytes_written = 0
        if (
            self.max_bytes is not None
            and self.bytes_written > 0
            and self.bytes_written + nbytes > self.max_bytes
        ):
            self._rotate()
        self._fh.write(line)
        self.bytes_written += nbytes
        self.traces_written += 1

    def _rotate(self) -> None:
        self._fh.close()
        for index in range(self.keep - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "w", encoding="utf-8")
        self.bytes_written = 0
        self.rotations += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceExporter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class InMemoryExporter:
    """Collects finished trace records in a list (tests and examples)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def export(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


#: Finished traces a :class:`Tracer` retains in its ``finished`` ring.
KEEP_LAST = 64


class Tracer:
    """Head-sampling trace factory shared by a serving fleet.

    Parameters
    ----------
    sample_rate:
        Probability that a request is traced (``1.0`` = every request,
        ``0.0`` = none).  The decision is made once per request at
        :meth:`trace` time — an unsampled request gets :data:`NULL_TRACE`
        and pays nothing further.
    exporter:
        Optional object with ``export(record: dict)`` (e.g.
        :class:`JsonlTraceExporter`); the last :data:`KEEP_LAST` finished
        traces are also kept in the :attr:`finished` ring regardless, so
        examples and tests can inspect recent traces without an exporter.
    clock:
        Time source in seconds (defaults to ``time.perf_counter``); tests
        pass a :class:`~repro.serving.metrics.ManualClock`.
    seed:
        Seeds the sampling RNG, making traced replays deterministic.
    """

    enabled = True

    def __init__(
        self,
        sample_rate: float = 1.0,
        exporter: Optional[Any] = None,
        clock: Callable[[], float] = time.perf_counter,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.exporter = exporter
        self._clock = clock
        self._rng = random.Random(seed)
        self.finished: Deque[Dict[str, Any]] = deque(maxlen=KEEP_LAST)
        self.started = 0
        self.sampled = 0
        self.exported = 0

    def trace(self, name: str, **attrs: Any) -> Any:
        """A new :class:`Trace` when sampled, :data:`NULL_TRACE` otherwise."""
        self.started += 1
        if self.sample_rate <= 0.0:
            return NULL_TRACE
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return NULL_TRACE
        self.sampled += 1
        return Trace(self, self.sampled, name, dict(attrs))

    def _export(self, trace: Trace) -> None:
        record = trace.to_dict()
        self.finished.append(record)
        if self.exporter is not None:
            self.exporter.export(record)
            self.exported += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "sample_rate": self.sample_rate,
            "started": self.started,
            "sampled": self.sampled,
            "exported": self.exported,
        }

    def close(self) -> None:
        if self.exporter is not None and hasattr(self.exporter, "close"):
            self.exporter.close()


class NullTracer:
    """The disabled tracer: every request gets :data:`NULL_TRACE`.

    Components default to this singleton when no tracer is supplied, so the
    instrumented code path is identical with tracing on or off — only the
    objects it calls into change.
    """

    enabled = False
    sample_rate = 0.0
    started = 0
    sampled = 0
    exported = 0

    def trace(self, name: str, **attrs: Any) -> _NullTrace:
        return NULL_TRACE

    def stats(self) -> Dict[str, Any]:
        return {"enabled": False, "sample_rate": 0.0, "started": 0, "sampled": 0, "exported": 0}

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

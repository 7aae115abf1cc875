"""``repro.obs`` — fleet observability: tracing, streaming telemetry, SLOs.

The serving stack (§III-F) spans five subsystems — micro-batcher, session
cache, retrieval cascade, compiled inference plan, online loop — and this
package is the instrument layer threaded through all of them:

* :mod:`~repro.obs.trace` — request tracing with nested spans
  (``submit → queue-wait → gate → retrieve → rank → flush``), head-based
  sampling, and a JSONL exporter; disabled tracing is a shared no-op
  singleton, so the hot path never branches on "is tracing on?".
  :func:`kernel_span_hook` is the one kernel timer: installed as a compiled
  :class:`~repro.infer.plan.InferencePlan`'s ``step_hook`` it records each
  fused kernel as a child span carrying its op kind and per-row FLOPs;
* :mod:`~repro.obs.streaming` — counters, gauges, and fixed-size
  exponential-bucket histograms (quantile error ≤ 2%, O(1) memory) that
  replace the unbounded per-query lists, mergeable across shards and
  exported as JSON (:meth:`MetricsRegistry.to_json`);
* :mod:`~repro.obs.events` — typed control-plane events (hot swaps, canary
  verdicts, recall probes, click-log lag) in a bounded ring buffer;
* :mod:`~repro.obs.slo` — sliding-window p99 and error-budget burn rate;
* :mod:`~repro.obs.drift` — streaming PSI between a training-time
  reference sketch and live-traffic sketches;
* :mod:`~repro.obs.recall` — head-sampled live retrieval recall@k, the
  online counterpart of the build-time :class:`~repro.retrieval.RetrievalProbe`;
* :mod:`~repro.obs.alerts` — declarative :class:`AlertRule` predicates over
  the telemetry snapshot, evaluated with hysteresis into typed events;
* :mod:`~repro.obs.dashboard` — one section list built from a fleet's
  telemetry snapshot, rendered as text tables or as one self-contained
  HTML file.

Everything here is numpy-and-stdlib only and imports nothing from the
serving stack — serving imports obs, never the reverse.
"""

from repro.obs.alerts import AlertManager, AlertRule, AlertTransition, telemetry_snapshot
from repro.obs.dashboard import (
    Bar,
    Section,
    render_dashboard,
    render_text,
    report_sections,
    write_dashboard,
)
from repro.obs.drift import DriftMonitor, psi_from_counts
from repro.obs.events import EVENT_KINDS, Event, EventLog
from repro.obs.recall import ShadowRecallMonitor
from repro.obs.slo import SloTracker
from repro.obs.streaming import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACE,
    NULL_TRACER,
    JsonlTraceExporter,
    NullTracer,
    Span,
    Trace,
    Tracer,
    kernel_span_hook,
)

__all__ = [
    "AlertManager",
    "AlertRule",
    "AlertTransition",
    "telemetry_snapshot",
    "Bar",
    "Section",
    "report_sections",
    "render_text",
    "render_dashboard",
    "write_dashboard",
    "DriftMonitor",
    "ShadowRecallMonitor",
    "psi_from_counts",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "SloTracker",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "NULL_SPAN",
    "NULL_TRACE",
    "NULL_TRACER",
    "JsonlTraceExporter",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "kernel_span_hook",
]

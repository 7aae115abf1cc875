"""Serving metrics: QPS, latency percentiles, batch sizes, cache hit rate,
and online-loop events (model swaps, canary verdicts, click-log lag).

Every serving component (engine, micro-batcher, shard workers) reports into
a :class:`MetricsSink`; the fleet merges per-shard sinks into one fleet
view.  The online learning loop (:mod:`repro.online`) reports its control
events — hot swaps, canary pass/fail, click-log consumption lag — into the
same sink, so one fleet report covers traffic *and* the feedback loop.  The
sink is pure accounting — it never influences scheduling — so tests can
assert on it without perturbing behaviour.

There is **one metrics model**: the sink owns a
:class:`~repro.obs.streaming.MetricsRegistry` and records straight into its
instruments — the latency histogram (fixed-size exponential buckets,
quantile error ≤ 2%), the swap / canary / shed / per-tier counters and the
click-log-lag gauge — so a sink that has absorbed ten million queries is
the same size as one that absorbed ten, shard sinks pool with
``MetricsRegistry.merge``, and the one export,
``MetricsSink.to_registry().to_json()``, is a snapshot of those same
instruments plus the values derived from them at read time.
Beside the registry the sink keeps only what a registry cannot express: the
batch-size count map, first/last completion stamps, the cache's cumulative
:class:`~repro.serving.cache.CacheStats`, the bounded control-plane
:class:`~repro.obs.events.EventLog`, the attached §III-F1 cost model, and
an optional shared :class:`~repro.obs.slo.SloTracker` that receives every
latency for sliding-window SLO evaluation.

Attaching the §III-F1 cost model (:meth:`MetricsSink.record_cost_model`)
turns the cache hit counters into estimated FLOPs saved: every gate-cache
hit skips one full gate-network evaluation.

:class:`ManualClock` provides a deterministic time source: the batcher and
load generator accept any ``() -> float`` callable, so tests advance time
explicitly instead of sleeping.  :func:`latency_percentile` is the exact
nearest-rank oracle the streaming quantiles are tested against.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.obs.events import EventLog
from repro.obs.slo import SloTracker
from repro.obs.streaming import Counter, MetricsRegistry
from repro.serving.cache import CacheStats
from repro.serving.cost import GateCostReport

__all__ = ["ManualClock", "MetricsSink", "latency_percentile"]


class ManualClock:
    """Deterministic clock: time moves only when the test advances it."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        self._now = max(self._now, float(timestamp))


def latency_percentile(latencies_ms: Sequence[float], percentile: float) -> float:
    """Exact nearest-rank percentile of a latency list (0.0 when empty) —
    the oracle the sink's streaming quantiles are tested against."""
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = np.sort(np.asarray(latencies_ms, dtype=float))
    if ordered.size == 0:
        return 0.0
    return float(ordered[max(int(np.ceil(percentile / 100.0 * ordered.size)) - 1, 0)])


#: Latency histogram layout shared by every sink so shard merges line up:
#: 0.1 µs granularity floor, ≤ 2% quantile error, covers any float latency.
_LATENCY_HIST_KWARGS = dict(min_value=1e-4, growth=1.04, num_buckets=2048)


class MetricsSink:
    """Accumulates per-query latencies, batch sizes, and cache counters.

    Parameters
    ----------
    clock:
        Time source in seconds (completion timestamps and event stamps).
    slo:
        Optional shared :class:`~repro.obs.slo.SloTracker` fed every
        recorded latency (a fleet typically shares one across shard sinks).
    """

    def __init__(self, clock=time.perf_counter, slo: Optional[SloTracker] = None) -> None:
        self._clock = clock
        self.slo = slo
        self._bind(MetricsRegistry())
        self._batch_counts: Dict[int, int] = {}
        self.cache_stats = CacheStats()
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        self.events = EventLog()
        self.cost_model: Optional[GateCostReport] = None

    def _bind(self, registry: MetricsRegistry, tiers: Iterable[str] = ()) -> None:
        """Adopt ``registry`` and hold its instruments by reference: the
        name lookup (a regex match in the registry) happens here, once per
        sink, never on the request path."""
        self.registry = registry
        self._latency = registry.histogram(
            "repro_latency_ms", "end-to-end query latency (ms)", **_LATENCY_HIST_KWARGS
        )
        self._swaps = registry.counter("repro_model_swaps_total", "hot swaps deployed")
        self._canary_passes = registry.counter(
            "repro_canary_passes_total", "canary verdicts: pass"
        )
        self._canary_failures = registry.counter(
            "repro_canary_failures_total", "canary verdicts: fail"
        )
        self._log_lag = registry.gauge("repro_click_log_lag", "unconsumed click-log sessions")
        self._shed = registry.counter(
            "repro_requests_shed_total", "requests answered via load shedding"
        )
        # Degradation-ladder accounting (repro.serving.degrade): one counter
        # per tier that has served a response.
        self._tiers: Dict[str, Counter] = {tier: self._tier_counter(tier) for tier in tiers}

    def _tier_counter(self, tier: str) -> Counter:
        return self.registry.counter(
            f"repro_served_{tier}_total", f"responses served at the {tier} tier"
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_query(self, latency_ms: float, now: Optional[float] = None) -> None:
        """One served query: its end-to-end latency and completion time."""
        now = self._clock() if now is None else now
        latency_ms = float(latency_ms)
        self._latency.record(latency_ms)
        if self.slo is not None:
            self.slo.record(latency_ms, now)
        if self._first_ts is None:
            self._first_ts = now
        self._last_ts = now

    def record_batch(self, size: int) -> None:
        """One model forward covering ``size`` coalesced queries."""
        size = int(size)
        self._batch_counts[size] = self._batch_counts.get(size, 0) + 1

    def record_cache(self, stats: CacheStats) -> None:
        """Snapshot cache counters (overwrites the previous snapshot)."""
        self.cache_stats = CacheStats(stats.hits, stats.misses, stats.evictions)

    def record_swap(self, version: Optional[str] = None) -> None:
        """One model hot-swap deployed into the serving stack."""
        self._swaps.inc()
        self.events.record("hot_swap", self._clock(), version=version)

    def record_canary(
        self,
        passed: bool,
        version: Optional[str] = None,
        recall: Optional[float] = None,
    ) -> None:
        """One canary-gate verdict on a candidate model version; ``recall``
        forwards the retrieval probe's measurement when one ran."""
        (self._canary_passes if passed else self._canary_failures).inc()
        now = self._clock()
        self.events.record("canary_verdict", now, passed=bool(passed), version=version)
        if recall is not None:
            self.events.record(
                "recall_probe", now, recall=float(recall), version=version
            )

    def record_tier(self, tier: str) -> None:
        """One response served at ``tier`` (see :mod:`repro.serving.degrade`)."""
        counter = self._tiers.get(tier)
        if counter is None:
            counter = self._tiers[tier] = self._tier_counter(tier)
        counter.inc()

    def record_shed(self) -> None:
        """One request answered via admission-control load shedding."""
        self._shed.inc()

    def record_log_lag(self, lag: int) -> None:
        """Gauge: click-log sessions appended but not yet consumed by the
        incremental trainer (freshness of the feedback loop)."""
        self._log_lag.set(int(lag))
        self.events.record("click_log_lag", self._clock(), lag=int(lag))

    def record_cost_model(self, report: GateCostReport) -> None:
        """Attach the §III-F1 FLOP cost model so cache counters translate
        into estimated computation saved (see :attr:`gate_flops_saved`)."""
        self.cost_model = report

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def queries(self) -> int:
        return self._latency.count

    @property
    def swaps(self) -> int:
        return self._swaps.value

    @property
    def canary_passes(self) -> int:
        return self._canary_passes.value

    @property
    def canary_failures(self) -> int:
        return self._canary_failures.value

    @property
    def log_lag(self) -> int:
        """Logged-but-unconsumed click sessions (worst shard after a merge)."""
        return int(self._log_lag.value)

    @property
    def shed(self) -> int:
        return self._shed.value

    @property
    def tier_counts(self) -> Dict[str, int]:
        """``{tier: responses served at it}``."""
        return {tier: counter.value for tier, counter in self._tiers.items()}

    @property
    def wall_seconds(self) -> float:
        """Span between first and last recorded query completion."""
        if self._first_ts is None or self._last_ts is None:
            return 0.0
        return self._last_ts - self._first_ts

    @property
    def qps(self) -> float:
        """Observed throughput over the recorded span."""
        span = self.wall_seconds
        if span <= 0.0:
            return 0.0
        return self.queries / span

    def percentile(self, p: float) -> float:
        """Streaming latency percentile (≤ 2% relative error)."""
        return self._latency.quantile(p)

    @property
    def batches(self) -> int:
        """Number of model forwards (flushes) recorded."""
        return sum(self._batch_counts.values())

    def batch_size_histogram(self) -> Dict[int, int]:
        """``{batch size: number of forwards}`` over all flushes."""
        return dict(sorted(self._batch_counts.items()))

    # The ratios (mean_batch_size, degraded_share, shed_rate) are computed
    # from pooled counters at read time, never stored as gauges:
    # ``Gauge.merge`` is max, and the max of per-shard ratios is not the
    # fleet's ratio.
    @property
    def mean_batch_size(self) -> float:
        total = self.batches
        if total == 0:
            return 0.0
        return sum(size * count for size, count in self._batch_counts.items()) / total

    @property
    def max_batch_size(self) -> int:
        """Largest flush recorded (0 before any batch)."""
        if not self._batch_counts:
            return 0
        return max(self._batch_counts)

    @property
    def tier_responses(self) -> int:
        """Responses with a recorded degradation tier (any rung)."""
        return sum(counter.value for counter in self._tiers.values())

    @property
    def degraded_share(self) -> float:
        """Fraction of tiered responses served below the full tier."""
        total = self.tier_responses
        if total == 0:
            return 0.0
        return 1.0 - self.tier_counts.get("full", 0) / total

    @property
    def shed_rate(self) -> float:
        """Fraction of tiered responses answered via load shedding."""
        total = self.tier_responses
        if total == 0:
            return 0.0
        return self.shed / total

    @property
    def gate_flops_saved(self) -> int:
        """Estimated gate-network FLOPs skipped thanks to cache hits.

        Each gate-cache hit avoids exactly one gate evaluation, whose cost
        the attached :class:`~repro.serving.cost.GateCostReport` supplies;
        0 until :meth:`record_cost_model` is called.
        """
        if self.cost_model is None:
            return 0
        return self.cache_stats.hits * self.cost_model.gate_flops

    def merge(self, other: "MetricsSink") -> "MetricsSink":
        """Fleet-level union of two sinks (latencies pooled, spans unioned).

        The instruments merge as registries do — histograms bucket-wise and
        counters by addition (associative, so shard merges compose in any
        order), the log-lag gauge to the worst (largest) shard.  What the
        registry cannot express merges here: batch-size counts and cache
        counters add, the span is the union, event logs interleave, and the
        cost model carries over from whichever sink has one.  The result
        shares no instrument with either operand.
        """
        merged = MetricsSink(clock=self._clock, slo=self.slo if self.slo is not None else other.slo)
        # (a dict union, not a set: tier order — and so export order — stays
        # deterministic)
        merged._bind(self.registry.merge(other.registry), {**self._tiers, **other._tiers})
        for counts in (self._batch_counts, other._batch_counts):
            for size, count in counts.items():
                merged._batch_counts[size] = merged._batch_counts.get(size, 0) + count
        merged.cache_stats = self.cache_stats.merge(other.cache_stats)
        stamps = [ts for ts in (self._first_ts, other._first_ts) if ts is not None]
        merged._first_ts = min(stamps) if stamps else None
        stamps = [ts for ts in (self._last_ts, other._last_ts) if ts is not None]
        merged._last_ts = max(stamps) if stamps else None
        merged.events = self.events.merge(other.events)
        merged.cost_model = self.cost_model if self.cost_model is not None else other.cost_model
        return merged

    def summary(self) -> Dict[str, object]:
        """One JSON-serializable report of every headline metric.

        Percentiles come from the bounded histogram; the mean is exact (the
        histogram tracks the true sum).
        """
        hist = self._latency
        return {
            "queries": self.queries,
            "qps": self.qps,
            "latency_ms": {
                "mean": hist.mean,
                "p50": hist.quantile(50),
                "p95": hist.quantile(95),
                "p99": hist.quantile(99),
            },
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {
                str(size): count for size, count in self.batch_size_histogram().items()
            },
            "cache": {
                "hits": self.cache_stats.hits,
                "misses": self.cache_stats.misses,
                "evictions": self.cache_stats.evictions,
                "hit_rate": self.cache_stats.hit_rate,
            },
            "online": {
                "swaps": self.swaps,
                "canary_passes": self.canary_passes,
                "canary_failures": self.canary_failures,
                "click_log_lag": self.log_lag,
            },
            "degradation": {
                "tiers": dict(sorted(self.tier_counts.items())),
                "shed": self.shed,
                "shed_rate": self.shed_rate,
                "degraded_share": self.degraded_share,
            },
            "events": self.events.counts(),
            "slo": self.slo.status() if self.slo is not None else None,
            "cost": {
                "gate_flops": self.cost_model.gate_flops if self.cost_model else None,
                "gate_flops_saved_by_cache": self.gate_flops_saved,
                "session_saving_factor": (
                    self.cost_model.total_saving_factor if self.cost_model else None
                ),
                "behavior_flops": self.cost_model.behavior_flops if self.cost_model else None,
                "behavior_saving_factor": (
                    self.cost_model.behavior_saving_factor if self.cost_model else None
                ),
            },
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_registry(self) -> MetricsRegistry:
        """The sink as a :class:`~repro.obs.streaming.MetricsRegistry`
        (Prometheus-name metrics): a snapshot of the instruments it records
        into — merged, not re-stated — plus what is derived from them and
        from the non-registry state at read time."""
        derived = MetricsRegistry()
        derived.counter("repro_queries_total", "queries served").inc(self.queries)
        derived.counter("repro_batches_total", "model forwards (flushes)").inc(self.batches)
        derived.gauge("repro_mean_batch_size", "mean coalesced batch size").set(
            self.mean_batch_size
        )
        for name, value in (
            ("hits", self.cache_stats.hits),
            ("misses", self.cache_stats.misses),
            ("evictions", self.cache_stats.evictions),
        ):
            derived.counter(f"repro_cache_{name}_total", f"gate-cache {name}").inc(value)
        derived.gauge("repro_shed_rate", "load-shed fraction of tiered responses").set(
            self.shed_rate
        )
        derived.gauge("repro_degraded_share", "below-full-tier fraction of responses").set(
            self.degraded_share
        )
        return self.registry.merge(derived)

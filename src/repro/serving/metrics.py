"""Serving metrics: QPS, latency percentiles, batch sizes, cache hit rate,
and online-loop events (model swaps, canary verdicts, click-log lag).

Every serving component (engine, micro-batcher, shard workers) reports into
a :class:`MetricsSink`; the cluster merges per-shard sinks into one fleet
view.  The online learning loop (:mod:`repro.online`) reports its control
events — hot swaps, canary pass/fail, click-log consumption lag — into the
same sink, so one fleet report covers traffic *and* the feedback loop.  The
sink is pure accounting — it never influences scheduling — so tests can
assert on it without perturbing behaviour.

The sink runs at **bounded memory** by default: latencies stream into a
fixed-size exponential-bucket histogram
(:class:`~repro.obs.streaming.StreamingHistogram`, quantile error ≤ 2%)
instead of an unbounded Python list, and batch sizes into a small counts
map — a sink that has absorbed ten million queries is the same size as one
that absorbed ten.  ``exact=True`` opts back into the full per-query lists
for tests that assert bitwise summaries.  Control events additionally land
in a bounded :class:`~repro.obs.events.EventLog`, and an optional shared
:class:`~repro.obs.slo.SloTracker` receives every latency for sliding-window
SLO evaluation.  :meth:`MetricsSink.prometheus_text` /
:meth:`MetricsSink.to_registry` export the whole sink as a Prometheus-style
snapshot.

Attaching the §III-F1 cost model (:meth:`MetricsSink.record_cost_model`)
turns the cache hit counters into estimated FLOPs saved: every gate-cache
hit skips one full gate-network evaluation.

:class:`ManualClock` provides a deterministic time source: the batcher and
load generator accept any ``() -> float`` callable, so tests advance time
explicitly instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.events import EventLog
from repro.obs.slo import SloTracker
from repro.obs.streaming import MetricsRegistry, StreamingHistogram
from repro.serving.cache import CacheStats
from repro.serving.cost import CascadeCostReport, GateCostReport

__all__ = ["ManualClock", "MetricsSink", "latency_percentile", "sorted_percentile"]


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


def sorted_percentile(sorted_values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of an already-sorted array (0.0 when empty).

    Factored out of :func:`latency_percentile` so a caller reading several
    percentiles (a summary's p50/p95/p99) sorts **once** and reuses the
    sorted array, instead of re-sorting the full latency list per quantile.
    """
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    if sorted_values.size == 0:
        return 0.0
    rank = max(int(np.ceil(percentile / 100.0 * sorted_values.size)) - 1, 0)
    return float(sorted_values[rank])


def latency_percentile(latencies_ms: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of recorded latencies (0.0 when empty)."""
    return sorted_percentile(np.sort(np.asarray(latencies_ms, dtype=float)), percentile)


#: Latency histogram layout shared by every sink so shard merges line up:
#: 0.1 µs granularity floor, ≤ 2% quantile error, covers any float latency.
_LATENCY_HIST_KWARGS = dict(min_value=1e-4, growth=1.04, num_buckets=2048)


class MetricsSink:
    """Accumulates per-query latencies, batch sizes, and cache counters.

    Parameters
    ----------
    clock:
        Time source in seconds (completion timestamps and event stamps).
    exact:
        Keep the full per-query ``latencies_ms`` / ``batch_sizes`` lists and
        compute bitwise-exact percentiles from them.  **Opt-in**: the
        default streams into bounded structures (approximate quantiles,
        O(1) memory) — lists are ``None`` then.
    slo:
        Optional shared :class:`~repro.obs.slo.SloTracker` fed every
        recorded latency (a fleet typically shares one across shard sinks).
    event_capacity:
        Ring-buffer size of the control-plane :class:`EventLog`.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        exact: bool = False,
        slo: Optional[SloTracker] = None,
        event_capacity: int = 256,
    ) -> None:
        self._clock = clock
        self.exact = bool(exact)
        self.latencies_ms: Optional[List[float]] = [] if self.exact else None
        self.batch_sizes: Optional[List[int]] = [] if self.exact else None
        # The streaming structures are maintained in both modes, so merges
        # and Prometheus exports never depend on which mode a sink ran in.
        self._latency_hist = StreamingHistogram(**_LATENCY_HIST_KWARGS)
        self._batch_counts: Dict[int, int] = {}
        self.cache_stats = CacheStats()
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        # Online-loop events (see repro.online): counters plus gauges,
        # mirrored as typed entries in the bounded event log.
        self.swaps = 0
        self.canary_passes = 0
        self.canary_failures = 0
        self.log_lag = 0  # gauge: logged-but-unconsumed click sessions
        # Degradation-ladder accounting (repro.serving.degrade): responses
        # per tier, plus how many of those were load-shed at admission.
        self.tier_counts: Dict[str, int] = {}
        self.shed = 0
        self.events = EventLog(capacity=event_capacity)
        self.slo = slo
        self.cost_model: Optional[GateCostReport] = None
        self.cascade_cost: Optional[CascadeCostReport] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_query(self, latency_ms: float, now: Optional[float] = None) -> None:
        """One served query: its end-to-end latency and completion time."""
        now = self._clock() if now is None else now
        latency_ms = float(latency_ms)
        self._latency_hist.record(latency_ms)
        if self.latencies_ms is not None:
            self.latencies_ms.append(latency_ms)
        if self.slo is not None:
            self.slo.record(latency_ms, now)
        if self._first_ts is None:
            self._first_ts = now
        self._last_ts = now

    def record_batch(self, size: int) -> None:
        """One model forward covering ``size`` coalesced queries."""
        size = int(size)
        self._batch_counts[size] = self._batch_counts.get(size, 0) + 1
        if self.batch_sizes is not None:
            self.batch_sizes.append(size)

    def record_cache(self, stats: CacheStats) -> None:
        """Snapshot cache counters (overwrites the previous snapshot)."""
        self.cache_stats = CacheStats(stats.hits, stats.misses, stats.evictions)

    def record_swap(self, version: Optional[str] = None) -> None:
        """One model hot-swap deployed into the serving stack."""
        self.swaps += 1
        self.events.record("hot_swap", self._clock(), version=version)

    def record_canary(
        self,
        passed: bool,
        version: Optional[str] = None,
        recall: Optional[float] = None,
    ) -> None:
        """One canary-gate verdict on a candidate model version; ``recall``
        forwards the retrieval probe's measurement when one ran."""
        if passed:
            self.canary_passes += 1
        else:
            self.canary_failures += 1
        now = self._clock()
        self.events.record("canary_verdict", now, passed=bool(passed), version=version)
        if recall is not None:
            self.events.record(
                "recall_probe", now, recall=float(recall), version=version
            )

    def record_tier(self, tier: str) -> None:
        """One response served at ``tier`` (see :mod:`repro.serving.degrade`)."""
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1

    def record_shed(self) -> None:
        """One request answered via admission-control load shedding."""
        self.shed += 1

    def record_log_lag(self, lag: int) -> None:
        """Gauge: click-log sessions appended but not yet consumed by the
        incremental trainer (freshness of the feedback loop)."""
        self.log_lag = int(lag)
        self.events.record("click_log_lag", self._clock(), lag=int(lag))

    def record_cost_model(self, report: GateCostReport) -> None:
        """Attach the §III-F1 FLOP cost model so cache counters translate
        into estimated computation saved (see :attr:`gate_flops_saved`)."""
        self.cost_model = report

    def record_cascade_cost(self, report: CascadeCostReport) -> None:
        """Attach the retrieval-cascade FLOP comparison (exhaustive category
        scan vs ANN index + prefilter + survivor ranking) so the fleet
        summary reports the sublinear-retrieval saving next to the §III-F1
        gate saving."""
        self.cascade_cost = report

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def queries(self) -> int:
        return self._latency_hist.count

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
        """Latency percentile: nearest-rank over the exact list in exact
        mode, the streaming estimate (≤ 2% relative error) otherwise."""
        if self.latencies_ms is not None:
            return latency_percentile(self.latencies_ms, p)
        return self._latency_hist.quantile(p)

    @property
    def batches(self) -> int:
        """Number of model forwards (flushes) recorded."""
        return sum(self._batch_counts.values())

    def batch_size_histogram(self) -> Dict[int, int]:
        """``{batch size: number of forwards}`` over all flushes."""
        if self.batch_sizes is not None:
            # Exact mode keeps the raw list; one vectorized pass replaces
            # the old per-element Python loop.
            sizes, counts = np.unique(np.asarray(self.batch_sizes, dtype=np.int64), return_counts=True)
            return {int(size): int(count) for size, count in zip(sizes, counts)}
        return dict(sorted(self._batch_counts.items()))

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
        return sum(self.tier_counts.values())

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

        Online counters sum; the log-lag gauge takes the worst (largest)
        shard; the cost model carries over from whichever sink has one.
        Streaming histograms add bucket-wise (associative, so shard merges
        compose in any order); exact lists survive only when **both**
        operands are exact — merging a streaming sink in demotes the result
        to streaming, since the pooled list no longer exists.
        """
        merged = MetricsSink(
            clock=self._clock,
            exact=self.exact and other.exact,
            slo=self.slo if self.slo is not None else other.slo,
            event_capacity=max(self.events.capacity, other.events.capacity),
        )
        merged._latency_hist = self._latency_hist.merge(other._latency_hist)
        if merged.exact:
            merged.latencies_ms = list(self.latencies_ms) + list(other.latencies_ms)
            merged.batch_sizes = list(self.batch_sizes) + list(other.batch_sizes)
        for counts in (self._batch_counts, other._batch_counts):
            for size, count in counts.items():
                merged._batch_counts[size] = merged._batch_counts.get(size, 0) + count
        merged.cache_stats = self.cache_stats.merge(other.cache_stats)
        stamps = [ts for ts in (self._first_ts, other._first_ts) if ts is not None]
        merged._first_ts = min(stamps) if stamps else None
        stamps = [ts for ts in (self._last_ts, other._last_ts) if ts is not None]
        merged._last_ts = max(stamps) if stamps else None
        merged.swaps = self.swaps + other.swaps
        merged.canary_passes = self.canary_passes + other.canary_passes
        merged.canary_failures = self.canary_failures + other.canary_failures
        merged.log_lag = max(self.log_lag, other.log_lag)
        for counts in (self.tier_counts, other.tier_counts):
            for tier, count in counts.items():
                merged.tier_counts[tier] = merged.tier_counts.get(tier, 0) + count
        merged.shed = self.shed + other.shed
        merged.events = self.events.merge(other.events)
        merged.cost_model = self.cost_model if self.cost_model is not None else other.cost_model
        merged.cascade_cost = (
            self.cascade_cost if self.cascade_cost is not None else other.cascade_cost
        )
        return merged

    def summary(self) -> Dict[str, object]:
        """One JSON-serializable report of every headline metric.

        In exact mode latencies are sorted **once** per snapshot and every
        percentile is read off the same sorted array; in streaming mode the
        percentiles come from the bounded histogram (mean stays exact — the
        histogram tracks the true sum).  The schema is identical either way.
        """
        if self.latencies_ms is not None:
            sorted_latencies = np.sort(np.asarray(self.latencies_ms, dtype=float))
            latency = {
                "mean": float(sorted_latencies.mean()) if sorted_latencies.size else 0.0,
                "p50": sorted_percentile(sorted_latencies, 50),
                "p95": sorted_percentile(sorted_latencies, 95),
                "p99": sorted_percentile(sorted_latencies, 99),
            }
        else:
            hist = self._latency_hist
            latency = {
                "mean": hist.mean,
                "p50": hist.quantile(50),
                "p95": hist.quantile(95),
                "p99": hist.quantile(99),
            }
        return {
            "queries": self.queries,
            "qps": self.qps,
            "latency_ms": latency,
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
                "cascade": self.cascade_cost.as_dict() if self.cascade_cost else None,
            },
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_registry(self, prefix: str = "repro") -> MetricsRegistry:
        """Snapshot as a :class:`~repro.obs.streaming.MetricsRegistry`
        (Prometheus-name metrics); registries from several sinks merge."""
        registry = MetricsRegistry()
        registry.counter(f"{prefix}_queries_total", "queries served").inc(self.queries)
        registry.counter(f"{prefix}_batches_total", "model forwards (flushes)").inc(self.batches)
        registry.gauge(f"{prefix}_mean_batch_size", "mean coalesced batch size").set(
            self.mean_batch_size
        )
        hist = registry.histogram(
            f"{prefix}_latency_ms", "end-to-end query latency (ms)", **_LATENCY_HIST_KWARGS
        )
        np.copyto(hist.counts, self._latency_hist.counts)
        hist.count = self._latency_hist.count
        hist.total = self._latency_hist.total
        hist.min = self._latency_hist.min
        hist.max = self._latency_hist.max
        registry.counter(f"{prefix}_cache_hits_total", "gate-cache hits").inc(
            self.cache_stats.hits
        )
        registry.counter(f"{prefix}_cache_misses_total", "gate-cache misses").inc(
            self.cache_stats.misses
        )
        registry.counter(f"{prefix}_cache_evictions_total", "gate-cache evictions").inc(
            self.cache_stats.evictions
        )
        registry.counter(f"{prefix}_model_swaps_total", "hot swaps deployed").inc(self.swaps)
        registry.counter(f"{prefix}_canary_passes_total", "canary verdicts: pass").inc(
            self.canary_passes
        )
        registry.counter(f"{prefix}_canary_failures_total", "canary verdicts: fail").inc(
            self.canary_failures
        )
        registry.gauge(
            f"{prefix}_click_log_lag", "unconsumed click-log sessions"
        ).set(self.log_lag)
        for tier, count in sorted(self.tier_counts.items()):
            registry.counter(
                f"{prefix}_served_{tier}_total", f"responses served at the {tier} tier"
            ).inc(count)
        registry.counter(
            f"{prefix}_requests_shed_total", "requests answered via load shedding"
        ).inc(self.shed)
        registry.gauge(
            f"{prefix}_shed_rate", "load-shed fraction of tiered responses"
        ).set(self.shed_rate)
        registry.gauge(
            f"{prefix}_degraded_share", "below-full-tier fraction of responses"
        ).set(self.degraded_share)
        return registry

    def prometheus_text(self, prefix: str = "repro") -> str:
        """Prometheus exposition-format snapshot of this sink."""
        return self.to_registry(prefix=prefix).prometheus_text()

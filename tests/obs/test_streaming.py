"""Streaming metrics: property-tested quantile error bound and merge laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.serving import latency_percentile

# Values comfortably inside the covered range of the default layout
# (min_value=1e-4, 2048 buckets): the error bound only holds there.
values_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
percentile_strategy = st.floats(min_value=0.5, max_value=100.0)


def recorded(values, hist=None):
    hist = StreamingHistogram() if hist is None else hist
    for value in values:
        hist.record(value)
    return hist


class TestQuantileErrorBound:
    @settings(max_examples=200, deadline=None)
    @given(values=values_strategy, p=percentile_strategy)
    def test_relative_error_within_sqrt_growth(self, values, p):
        """For any sample set and percentile, the streaming estimate is
        within sqrt(growth) - 1 of the exact nearest-rank value."""
        hist = recorded(values)
        exact = latency_percentile(values, p)
        estimate = hist.quantile(p)
        assert abs(estimate - exact) <= (math.sqrt(hist.growth) - 1.0) * exact + 1e-12

    def test_default_bound_is_under_two_percent(self):
        assert math.sqrt(StreamingHistogram().growth) - 1.0 < 0.02

    def test_acceptance_100k_latencies(self):
        """ISSUE acceptance: p50/p95/p99 within 2% of exact on 100k synthetic
        latencies at fixed memory."""
        rng = np.random.default_rng(7)
        latencies = rng.lognormal(mean=1.0, sigma=0.8, size=100_000) + 0.2
        hist = recorded(latencies)
        samples = latencies.tolist()
        for p in (50.0, 95.0, 99.0):
            exact = latency_percentile(samples, p)
            assert abs(hist.quantile(p) - exact) / exact <= 0.02
        assert hist.counts.nbytes == 2048 * 8  # memory independent of n

    def test_exact_stats_are_exact(self):
        hist = recorded([1.0, 2.0, 4.0])
        assert hist.count == 3
        assert hist.mean == pytest.approx(7.0 / 3.0)
        assert hist.min == 1.0
        assert hist.max == 4.0

    def test_empty_and_validation(self):
        hist = StreamingHistogram()
        assert hist.quantile(99) == 0.0
        assert hist.to_dict()["count"] == 0
        with pytest.raises(ValueError):
            hist.quantile(0)
        with pytest.raises(ValueError):
            hist.record(-1.0)
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)


class TestMerge:
    @settings(max_examples=100, deadline=None)
    @given(a=values_strategy, b=values_strategy, c=values_strategy)
    def test_merge_is_associative(self, a, b, c):
        left = recorded(a).merge(recorded(b)).merge(recorded(c))
        right = recorded(a).merge(recorded(b).merge(recorded(c)))
        assert np.array_equal(left.counts, right.counts)
        assert (left.count, left.min, left.max) == (right.count, right.min, right.max)
        assert left.total == pytest.approx(right.total)
        for p in (50, 95, 99):
            assert left.quantile(p) == right.quantile(p)

    @settings(max_examples=100, deadline=None)
    @given(a=values_strategy, b=values_strategy)
    def test_merge_equals_pooled_recording(self, a, b):
        pooled = recorded(a + b)
        merged = recorded(a).merge(recorded(b))
        assert np.array_equal(merged.counts, pooled.counts)
        assert merged.count == pooled.count
        assert merged.min == pooled.min and merged.max == pooled.max

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bucket layouts"):
            StreamingHistogram().merge(StreamingHistogram(growth=1.1))

    def test_counter_and_gauge_merge(self):
        a, b = Counter("n"), Counter("n")
        a.inc(3)
        b.inc(4)
        assert a.merge(b).value == 7
        with pytest.raises(ValueError):
            a.inc(-1)
        lag_a, lag_b = Gauge("lag"), Gauge("lag")
        lag_a.set(2.0)
        lag_b.set(9.0)
        assert lag_a.merge(lag_b).value == 9.0  # worst shard wins


class TestRegistry:
    def test_get_or_create_and_type_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_queries_total", "queries")
        assert registry.counter("repro_queries_total") is counter
        with pytest.raises(TypeError):
            registry.gauge("repro_queries_total")
        with pytest.raises(ValueError):
            registry.counter("bad name!")

    def test_histogram_conflicting_layout_kwargs_rejected(self):
        """Re-requesting an existing histogram with a different bucket layout
        must raise, never silently hand back the old layout."""
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms", "latency", min_value=1e-3, growth=1.05)
        # Identical kwargs: same object back.
        assert registry.histogram("latency_ms", min_value=1e-3, growth=1.05) is hist
        # No layout kwargs at all: same object back.
        assert registry.histogram("latency_ms") is hist
        with pytest.raises(ValueError, match="conflicting"):
            registry.histogram("latency_ms", growth=1.5)
        with pytest.raises(ValueError, match="conflicting"):
            registry.histogram("latency_ms", min_value=1e-2)
        with pytest.raises(ValueError, match="conflicting"):
            registry.histogram("latency_ms", num_buckets=16)
        with pytest.raises(TypeError):
            registry.histogram("latency_ms", not_a_layout_kwarg=3)

    def test_registry_merge_is_union(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared").inc(1)
        b.counter("shared").inc(2)
        a.gauge("only_a").set(5.0)
        b.histogram("only_b").record(1.0)
        merged = a.merge(b)
        assert merged.counter("shared").value == 3
        assert merged.gauge("only_a").value == 5.0
        assert merged.histogram("only_b").count == 1
        assert len(merged) == 3

    def test_to_json_round_trips_types(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(3.0)
        payload = registry.to_json()
        assert payload["c"] == {"type": "counter", "value": 2}
        assert payload["g"] == {"type": "gauge", "value": 1.5}
        assert payload["h"]["type"] == "histogram"
        assert payload["h"]["count"] == 1
        assert payload["h"]["mean"] == pytest.approx(3.0)


class TestBucketGeometry:
    def test_bucket_edges_grow_geometrically(self):
        # Bucket 0 holds [0, 1]; bucket i >= 1 spans 2**(i-1) to 2**i.
        hist = StreamingHistogram(min_value=1.0, growth=2.0, num_buckets=8)
        for value in (0.5, 1.5, 7.0, 9.0, 100.0):
            hist.record(value)
        assert np.flatnonzero(hist.counts).tolist() == [0, 1, 3, 4, 7]

    def test_upper_edges_are_inclusive(self):
        hist = StreamingHistogram(min_value=1.0, growth=2.0, num_buckets=8)
        for value, bucket in [(1.0, 0), (2.0, 1), (4.0, 2), (8.0, 3), (64.0, 6)]:
            assert hist._bucket_index(value) == bucket, value
            assert hist._bucket_index(math.nextafter(value, math.inf)) == bucket + 1, value
        hist.record(2.0)
        hist.record(8.0)
        assert np.flatnonzero(hist.counts).tolist() == [1, 3]

    @pytest.mark.parametrize("growth", [1.04, 1.1, 1.35])
    def test_float_edges_land_in_the_bucket_they_close(self, growth):
        """``log`` of a computed edge can round either way; every edge
        still closes its own bucket and the next float opens the next."""
        hist = StreamingHistogram(min_value=1e-4, growth=growth, num_buckets=2048)
        for i in range(1, 2047):
            edge = hist.min_value * growth**i
            assert hist._bucket_index(edge) == i
            assert hist._bucket_index(math.nextafter(edge, math.inf)) == i + 1

    def test_overflow_saturates_last_bucket(self):
        hist = StreamingHistogram(min_value=1.0, growth=2.0, num_buckets=4)
        hist.record(1e12)
        assert hist.counts[-1] == 1
        # Clamped to the exactly tracked max, not the bucket midpoint.
        assert hist.quantile(99) == 1e12

    def test_midpoint_is_geometric(self):
        hist = StreamingHistogram(min_value=1.0, growth=4.0, num_buckets=8)
        hist.record(3.0)  # bucket 1 covers (1, 4]
        hist.min, hist.max = 0.0, math.inf  # defeat clamping for this check
        assert hist.quantile(50) == pytest.approx(2.0)  # sqrt(1 * 4)

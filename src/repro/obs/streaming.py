"""Streaming metrics: counters, gauges, exponential-bucket histograms.

The serving fleet's original :class:`~repro.serving.metrics.MetricsSink`
kept every latency in a Python list — O(queries) memory, unusable past a few
million requests.  The primitives here are **fixed-size**:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a point-in-time value (queue depth, click-log lag);
* :class:`StreamingHistogram` — a bounded array of exponentially sized
  buckets.  With growth factor ``g`` per bucket and geometric-midpoint
  quantile estimates, the relative quantile error is bounded by
  ``sqrt(g) - 1`` (≈ 2% at the default ``g = 1.04``) for any value inside
  the covered range — property-tested in ``tests/obs``;
* :class:`MetricsRegistry` — a named collection of the above, exportable as
  a Prometheus text snapshot or JSON.

All three merge associatively (bucket counts and counters add), so per-shard
instances fold into one fleet view in any order — the same property the
list-based sink had, at O(1) memory per shard.
"""

from __future__ import annotations

import copy
import math
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = ["Counter", "Gauge", "StreamingHistogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class Counter:
    """Monotonically increasing count; merges by addition."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str = "", help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        merged = Counter(self.name or other.name, self.help or other.help)
        merged.value = self.value + other.value
        return merged


class Gauge:
    """Point-in-time value; merges by **max** (worst shard wins), matching
    its fleet uses — click-log lag, queue depth — where the alarming value
    is the one that matters."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str = "", help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> "Gauge":
        merged = Gauge(self.name or other.name, self.help or other.help)
        merged.value = max(self.value, other.value)
        return merged


class StreamingHistogram:
    """Fixed-size exponential-bucket histogram with bounded quantile error.

    Bucket ``0`` covers ``[0, min_value]``; bucket ``i >= 1`` covers
    ``(min_value * growth**(i-1), min_value * growth**i]``.  Quantiles
    return the geometric midpoint of the bucket holding the nearest-rank
    sample, clamped into the exactly tracked ``[min, max]`` — relative error
    at most ``sqrt(growth) - 1`` for values in the covered range (values
    below ``min_value`` or beyond the last bucket saturate at the edges;
    pick ``min_value`` below the smallest value you care to resolve).

    ``count``/``sum``/``min``/``max`` are tracked exactly, so the mean is
    exact; only quantiles are approximate.  Memory is ``num_buckets`` int64
    slots regardless of how many samples are recorded.
    """

    __slots__ = (
        "name",
        "help",
        "min_value",
        "growth",
        "num_buckets",
        "counts",
        "count",
        "total",
        "min",
        "max",
        "_log_growth",
    )

    def __init__(
        self,
        name: str = "",
        help: str = "",
        min_value: float = 1e-4,
        growth: float = 1.04,
        num_buckets: int = 2048,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        self.name = name
        self.help = help
        self.min_value = float(min_value)
        self.growth = float(growth)
        self.num_buckets = int(num_buckets)
        self.counts = np.zeros(self.num_buckets, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._log_growth = math.log(self.growth)

    @property
    def quantile_error_bound(self) -> float:
        """Worst-case relative quantile error inside the covered range."""
        return math.sqrt(self.growth) - 1.0

    def _bucket_index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth) + 1
        return min(index, self.num_buckets - 1)

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        for value in values:
            self.record(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_upper_edge(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        if index <= 0:
            return self.min_value
        return self.min_value * self.growth**index

    def quantile(self, p: float) -> float:
        """Nearest-rank quantile estimate (0.0 when empty).

        Same contract as :func:`repro.serving.metrics.latency_percentile`:
        ``p`` in ``(0, 100]``, nearest-rank semantics — the bucket holding
        the rank-th smallest sample supplies its geometric midpoint.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(int(math.ceil(p / 100.0 * self.count)), 1)
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        if index == 0:
            estimate = self.min_value
        else:
            estimate = self.min_value * self.growth ** (index - 0.5)
        # Clamp into the exactly tracked range: the true sample can never
        # lie outside [min, max], so neither should the estimate.
        return min(max(estimate, self.min), self.max)

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Associative union; both operands must share the bucket layout."""
        if (self.min_value, self.growth, self.num_buckets) != (
            other.min_value,
            other.growth,
            other.num_buckets,
        ):
            raise ValueError("cannot merge histograms with different bucket layouts")
        merged = StreamingHistogram(
            self.name or other.name,
            self.help or other.help,
            min_value=self.min_value,
            growth=self.growth,
            num_buckets=self.num_buckets,
        )
        np.add(self.counts, other.counts, out=merged.counts)
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def nonzero_buckets(self) -> Iterator[Tuple[int, int]]:
        """``(bucket index, count)`` for every populated bucket."""
        for index in np.flatnonzero(self.counts):
            yield int(index), int(self.counts[index])

    def to_dict(self) -> Dict[str, Any]:
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
        }


Metric = Union[Counter, Gauge, StreamingHistogram]


class MetricsRegistry:
    """Named metrics with get-or-create access and text/JSON export.

    ``counter``/``gauge``/``histogram`` return the existing instance when
    the name is already registered (so call sites need no "does it exist
    yet?" dance) and raise if the name is bound to a different metric type.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory, kind: type) -> Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(existing).__name__}, not a {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "", **kwargs: Any) -> StreamingHistogram:
        existing = self._metrics.get(name)
        if isinstance(existing, StreamingHistogram):
            # A second registration must agree on the bucket layout: silently
            # returning the existing histogram under different kwargs would
            # hand the caller the wrong resolution (and make later shard
            # merges fail far from the offending call site).
            for key, value in kwargs.items():
                if key not in ("min_value", "growth", "num_buckets"):
                    raise TypeError(f"unknown histogram option {key!r} for {name!r}")
                if float(getattr(existing, key)) != float(value):
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        f"{key}={getattr(existing, key)!r}, conflicting with {key}={value!r}"
                    )
        return self._get_or_create(
            name, lambda: StreamingHistogram(name, help, **kwargs), StreamingHistogram
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Tuple[str, Metric]]:
        return iter(self._metrics.items())

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Union of both registries; shared names merge metric-wise.  A
        metric only one side holds is copied, so the result never aliases
        an instrument either operand keeps recording into."""
        merged = MetricsRegistry()
        for name, metric in self._metrics.items():
            twin = other._metrics.get(name)
            merged._metrics[name] = (
                metric.merge(twin) if twin is not None else copy.deepcopy(metric)
            )
        for name, metric in other._metrics.items():
            if name not in merged._metrics:
                merged._metrics[name] = copy.deepcopy(metric)
        return merged

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, StreamingHistogram):
                payload[name] = {"type": "histogram", **metric.to_dict()}
            elif isinstance(metric, Counter):
                payload[name] = {"type": "counter", "value": metric.value}
            else:
                payload[name] = {"type": "gauge", "value": metric.value}
        return payload

    def prometheus_text(self) -> str:
        """Prometheus exposition-format snapshot.

        Histograms emit cumulative ``_bucket{le=...}`` lines at the upper
        edges of populated buckets only (a dense dump of 2048 mostly-empty
        buckets per histogram would swamp the scrape), plus the standard
        ``_sum``/``_count`` pair and ``le="+Inf"``.
        """
        lines: List[str] = []
        for name, metric in self._metrics.items():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(metric.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                for index, count in metric.nonzero_buckets():
                    cumulative += count
                    edge = _format_value(metric.bucket_upper_edge(index))
                    lines.append(f'{name}_bucket{{le="{edge}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {_format_value(metric.total)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    return f"{value:.6g}"

"""Shadow-sampled live retrieval recall: the online RetrievalProbe.

The cascade's recall — the known quality bottleneck (ROADMAP item 5) — is
measured at build time and at canary time, both against *sampled or logged*
queries.  Neither sees what live traffic actually asks for.  The shadow
monitor closes that gap: the serving engine re-runs a small head-sampled
fraction of real ``retrieve()`` calls through the exhaustive oracle
(``nprobe="all"``, ``prune=None`` — the full-model top-k over every category
member) *after* answering the query, and records what fraction of the oracle
top-k the cascade's survivor set kept.

This module owns only the sampling decision and the bookkeeping; the engine
owns the oracle computation (it has the model and the catalog).  Head
sampling mirrors :class:`~repro.obs.trace.Tracer`: one seeded RNG draw per
retrieval, so the unsampled hot path pays a single ``random()`` call and the
decision is reproducible across runs.

The running recall is what the fleet exports as its
``retrieval_recall_at_k`` telemetry scalar, and the full per-sample
distribution lands in a streaming histogram so the dashboard can show the
spread, not just the mean.  The shards of a fleet share one monitor.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.obs.streaming import StreamingHistogram

__all__ = ["ShadowRecallMonitor"]

#: Bucket layout for the per-sample recall distribution: recall lives in
#: ``[0, 1]`` and 2% relative resolution is plenty for a quality signal.
_RECALL_HIST_KWARGS = dict(min_value=1e-2, growth=1.04, num_buckets=128)


class ShadowRecallMonitor:
    """Head-sampled live recall@k bookkeeping for the serving engine.

    Parameters
    ----------
    rate:
        Fraction of live ``retrieve()`` calls shadowed through the
        exhaustive oracle (default 0.5% — the oracle is a full category
        scan, so this must stay far off the hot path).  ``0.0`` disables
        sampling entirely; ``1.0`` shadows every call (tests/benchmarks).
    k:
        The oracle depth: recall@k of the survivor set vs the full-model
        top-``k``.
    seed:
        Seeds the sampling RNG — shadowed replays are deterministic.
    """

    def __init__(
        self,
        rate: float = 0.005,
        k: int = 10,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.rate = float(rate)
        self.k = int(k)
        self._rng = random.Random(seed)
        self.requests = 0
        self.samples = 0
        self._recall_sum = 0.0
        self.last_recall: Optional[float] = None
        self.histogram = StreamingHistogram(
            "retrieval_shadow_recall", "per-sample shadow recall@k", **_RECALL_HIST_KWARGS
        )

    def should_sample(self) -> bool:
        """One head-sampling decision per live retrieval (seeded RNG)."""
        self.requests += 1
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return self._rng.random() < self.rate

    def observe(self, recall: float) -> None:
        """Record one shadow measurement (engine computed the oracle)."""
        recall = float(recall)
        if not 0.0 <= recall <= 1.0:
            raise ValueError(f"recall must be in [0, 1], got {recall}")
        self.samples += 1
        self._recall_sum += recall
        self.last_recall = recall
        self.histogram.record(recall)

    @property
    def recall_at_k(self) -> float:
        """Running mean recall@k over every shadowed call (0.0 before any)."""
        return self._recall_sum / self.samples if self.samples else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "k": self.k,
            "requests": self.requests,
            "samples": self.samples,
            "recall_at_k": self.recall_at_k,
            "last_recall": self.last_recall,
            "p50": self.histogram.quantile(50) if self.samples else 0.0,
        }

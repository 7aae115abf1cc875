"""Graceful degradation: the serving ladder and its admission policy.

Under fault pressure the fleet answers *something* for every request —
degraded beats dropped.  Three tiers, cheapest last:

* ``full`` — cascade retrieval + the compiled AW-MoE forward.  The normal
  path; every response outside an incident lands here.
* ``prefilter`` — the cascade's calibrated linear prefilter scores the
  already-retrieved shortlist and the full model is skipped.  Used when a
  request has burned too much of its deadline budget before ranking, or
  when the batched forward itself fails.
* ``popularity`` — the category's precomputed popularity prior orders the
  candidates; no model, no cascade, no per-user state.  Used for load
  shedding, dead-shard last resorts, and retrieval failures.

Every response is tagged with its tier (a :class:`~repro.serving.engine.
RankedList` field, a trace-span attribute, and a metrics counter), so
availability burn is measurable: ``degraded_share`` and ``shed_rate`` feed
the default fault alert rules in :mod:`repro.faults.chaos`.

:class:`DegradationPolicy` is opt-in: a batcher built without one (the
default) performs no budget checks, no queue-depth checks, and no extra
clock reads — the pre-policy hot path, bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "TIER_FULL",
    "TIER_PREFILTER",
    "TIER_POPULARITY",
    "TIERS",
    "DegradationPolicy",
    "popularity_floor",
]

TIER_FULL = "full"
TIER_PREFILTER = "prefilter"
TIER_POPULARITY = "popularity"

#: Ladder order, best tier first.
TIERS = (TIER_FULL, TIER_PREFILTER, TIER_POPULARITY)


def popularity_floor(
    members: np.ndarray,
    probs: np.ndarray,
    limit: int,
    candidates: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ladder's last rung: ``(items, scores)`` ranked by popularity prior.

    ``members`` are one category's item ids in ascending order and ``probs``
    their prior (:attr:`repro.data.synthetic.World.category_popularity`).  No
    model, no RNG, no per-user state — nothing left to fail.  The one
    implementation behind both :meth:`SearchEngine.degraded_ranking
    <repro.serving.engine.SearchEngine.degraded_ranking>` and the fleet's
    last resort, so a shard and the fleet above it give the same answer:
    float32 scores, stable sort, at most ``limit`` items.  ``candidates``
    restricts the ranking to an already-retrieved shortlist.
    """
    if candidates is not None and len(candidates):
        shortlist = np.asarray(candidates)
        # Members are sorted ascending, so popularity priors for an
        # arbitrary shortlist are a searchsorted away.
        index = np.clip(np.searchsorted(members, shortlist), 0, probs.size - 1)
        scores = probs[index].astype(np.float32)
    else:
        shortlist = members
        scores = probs.astype(np.float32)
    order = np.argsort(-scores, kind="stable")[:limit]
    return shortlist[order], scores[order]


#: Share of ``DegradationPolicy.deadline_ms`` that submit-side preparation
#: may burn before a request is answered from the prefilter tier.
_FULL_BUDGET_FRACTION = 0.5


@dataclass(frozen=True)
class DegradationPolicy:
    """Per-request deadline budget and admission control for the batcher.

    Parameters
    ----------
    deadline_ms:
        End-to-end per-request budget.  Arrivals are shed (answered
        immediately at the popularity tier) while the oldest queued request
        has already waited past this deadline — the queue is drowning, so
        new work must not pile on.  Submit-side preparation (gate +
        retrieval) may consume ``_FULL_BUDGET_FRACTION`` of it before the
        request drops to the prefilter tier instead of queueing for the
        full forward.
    max_queue:
        Bounded-queue admission control: arrivals beyond this many pending
        requests are shed.  ``None`` leaves the queue bounded only by the
        batcher's ``max_batch_size`` flush trigger.
    """

    deadline_ms: float = 50.0
    max_queue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1 or None, got {self.max_queue}")

    @property
    def degrade_after_ms(self) -> float:
        """Submit-side budget before dropping to the prefilter tier."""
        return self.deadline_ms * _FULL_BUDGET_FRACTION

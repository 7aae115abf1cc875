"""Correctness audit: every answer is matched to its submission by identity.

The serving stack promises that each submitted request is answered exactly
once, at the full tier, by the version that was serving, with a valid
ranking.  A count cannot tell a duplicate from a masked drop, so the
:class:`Ledger` matches answers to submissions first-in-first-out per
``(user, category)`` — a key always routes to one shard, and a shard answers
in submission order — and checks each answer's content.  All of it runs
outside the timed regions: passes only append what they received.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import TIER_FULL, RankedList

__all__ = ["AuditError", "Ledger", "check_answer"]


class AuditError(RuntimeError):
    """The program's outputs were wrong; the run reports no metrics."""


def check_answer(
    item_category: np.ndarray, ranking: RankedList, version: Optional[str]
) -> Optional[str]:
    """Why ``ranking`` is not a valid full-tier answer, or ``None`` if it is."""
    if ranking.tier != TIER_FULL:
        return f"tier {ranking.tier!r}"
    if ranking.model_version != version:
        return f"version {ranking.model_version!r}, expected {version!r}"
    items = np.asarray(ranking.items)
    scores = np.asarray(ranking.scores)
    if items.size == 0 or items.shape != scores.shape:
        return f"shape items {items.shape} scores {scores.shape}"
    if np.unique(items).size != items.size:
        return "repeated item"
    if (item_category[items] != ranking.query_category).any():
        return "item outside the query category"
    if not np.isfinite(scores).all():
        return "non-finite score"
    if (np.diff(scores) > 0).any():
        return "scores not in descending order"
    return None


@dataclass
class Ledger:
    """Submissions and answers of one fleet, matched by identity."""

    item_category: np.ndarray
    keys: List[Tuple[int, int]] = field(default_factory=list)
    versions: List[Optional[str]] = field(default_factory=list)
    #: Driver clock when the answer reached the driver; ``None`` = unanswered.
    answered_at: List[Optional[float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    duplicates: int = 0
    _open: Dict[Tuple[int, int], Deque[int]] = field(default_factory=dict)

    def submit(self, requests: Sequence[Tuple[int, int]], version: Optional[str]) -> range:
        """Register ``requests`` (about to be submitted, in this order)
        under the version now serving; returns their request ids."""
        first = len(self.keys)
        for offset, (user, category) in enumerate(requests):
            key = (int(user), int(category))
            self.keys.append(key)
            self.versions.append(version)
            self.answered_at.append(None)
            self._open.setdefault(key, deque()).append(first + offset)
        return range(first, first + len(requests))

    def settle(self, received: Sequence[Tuple[float, Sequence[RankedList]]]) -> List[int]:
        """Match ``received`` — ``(driver clock, answers)`` groups in arrival
        order — to open submissions; returns the request ids answered."""
        matched: List[int] = []
        for at, answers in received:
            for ranking in answers:
                key = (int(ranking.user), int(ranking.query_category))
                queue = self._open.get(key)
                if not queue:
                    self.duplicates += 1
                    self.failures.append(f"answer for {key} matches no open request")
                    continue
                request = queue.popleft()
                self.answered_at[request] = at
                matched.append(request)
                problem = check_answer(self.item_category, ranking, self.versions[request])
                if problem is not None:
                    self.failures.append(f"request {request} {key}: {problem}")
        return matched

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def close(self) -> None:
        """Every submission must be answered by now; drops become failures."""
        for key, queue in self._open.items():
            for request in queue:
                self.failures.append(f"request {request} {key}: never answered")
            queue.clear()

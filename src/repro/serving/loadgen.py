"""Zipf-distributed traffic generation and deterministic replay.

Production e-commerce traffic is heavily skewed: a small head of very active
users issues most queries (the same skew the paper's long-tail analysis,
§III-D, is built around), and each user's queries concentrate on the
categories they care about.  The generator reproduces both:

* **users** are drawn from a Zipf law over a seeded random permutation of
  the user ids (so user 0 is not always the hottest);
* **query categories** follow the sampled user's interest distribution when
  a :class:`~repro.data.synthetic.World` is supplied (uniform otherwise);
* **arrival times** follow a Poisson process at ``target_qps``.

The repeated (user, category) pairs this skew produces are exactly what
makes the session gate cache (:mod:`repro.serving.cache`) pay off —
uniform traffic would never revisit a session key.

:func:`replay` drives any system with ``submit/poll/flush`` (a
:class:`~repro.serving.batcher.MicroBatcher` or a
:class:`~repro.serving.fleet.Fleet`) through an event list,
advancing a :class:`~repro.serving.metrics.ManualClock` to each arrival so
simulated-time runs are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.data.synthetic import World
from repro.serving.engine import RankedList
from repro.serving.metrics import ManualClock

__all__ = ["TrafficEvent", "ZipfLoadGenerator", "replay"]


@dataclass(frozen=True)
class TrafficEvent:
    """One query arrival."""

    time: float  # seconds since traffic start
    user: int
    query_category: int


class ZipfLoadGenerator:
    """Generate skewed (user, query-category) traffic with Poisson arrivals.

    Parameters
    ----------
    rng:
        Source of all randomness (events are deterministic given it).
    world:
        Synthetic world; supplies the user count and per-user category
        interests.  Pass ``num_users``/``num_categories`` instead to
        generate world-free traffic.
    zipf_exponent:
        Skew of the user popularity law (``P(rank r) ∝ r^-s``); 0 yields
        uniform traffic, ~1 is web-typical.
    target_qps:
        Mean arrival rate of the Poisson process.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        world: Optional[World] = None,
        num_users: Optional[int] = None,
        num_categories: Optional[int] = None,
        zipf_exponent: float = 1.1,
        target_qps: float = 200.0,
    ) -> None:
        if world is not None:
            num_users = world.num_users
            num_categories = world.config.num_categories
        if not num_users or not num_categories:
            raise ValueError("pass either a world or num_users + num_categories")
        if zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {zipf_exponent}")
        if target_qps <= 0:
            raise ValueError(f"target_qps must be > 0, got {target_qps}")
        self.world = world
        self.num_users = int(num_users)
        self.num_categories = int(num_categories)
        self.target_qps = float(target_qps)
        self._rng = rng
        # Zipf pmf over a random permutation of users: rank 1 is hottest.
        # Sampling inverts the CDF with a binary search — O(log U) per event
        # instead of ``rng.choice(p=...)``'s O(U) scan, which matters once
        # the worlds under test carry 10^5+ users/items (large-catalog
        # benchmarks generate tens of thousands of events).
        weights = 1.0 / np.arange(1, self.num_users + 1, dtype=float) ** zipf_exponent
        self._user_probs = weights / weights.sum()
        self._user_cdf = np.cumsum(self._user_probs)
        self._user_by_rank = rng.permutation(self.num_users)
        # Per-user interest CDFs, built lazily: Zipf traffic touches a small
        # head of users, so only their rows are ever materialized.
        self._interest_cdfs: dict = {}

    def _inverse_cdf(self, cdf: np.ndarray) -> int:
        index = int(np.searchsorted(cdf, self._rng.random(), side="right"))
        return min(index, cdf.size - 1)  # guard the u == 1.0 float edge

    def _sample_category(self, user: int) -> int:
        if self.world is not None:
            cdf = self._interest_cdfs.get(user)
            if cdf is None:
                cdf = np.cumsum(self.world.user_interests[user])
                self._interest_cdfs[user] = cdf
            return self._inverse_cdf(cdf)
        return int(self._rng.integers(0, self.num_categories))

    def events(self, count: int) -> Iterator[TrafficEvent]:
        """Yield ``count`` arrivals in non-decreasing time order."""
        now = 0.0
        for _ in range(count):
            now += float(self._rng.exponential(1.0 / self.target_qps))
            user = int(self._user_by_rank[self._inverse_cdf(self._user_cdf)])
            yield TrafficEvent(time=now, user=user, query_category=self._sample_category(user))

    def generate(self, count: int) -> List[TrafficEvent]:
        """Materialized :meth:`events`."""
        return list(self.events(count))


def replay(
    system,
    events: List[TrafficEvent],
    clock: Optional[ManualClock] = None,
) -> List[RankedList]:
    """Drive ``system`` (batcher or cluster) through ``events``.

    With a :class:`ManualClock` the replay runs in simulated time: before
    each arrival the clock steps through every deadline flush that comes due
    in the gap (``system.next_flush_due()``), so recorded queueing latency
    reflects ``flush_deadline_ms`` rather than the distance to the next
    arrival; trailing queries are drained with a final flush.  Without a
    clock the events are submitted as fast as the wall clock allows
    (throughput mode).
    """
    results: List[RankedList] = []
    for event in events:
        if clock is not None:
            while True:
                due = system.next_flush_due()
                if due is None or due > event.time:
                    break
                clock.advance_to(due)
                results.extend(system.poll())
            clock.advance_to(event.time)
        results.extend(system.poll())
        results.extend(system.submit(event.user, event.query_category))
    if clock is not None:
        due = system.next_flush_due()
        if due is not None:
            clock.advance_to(due)
    results.extend(system.flush())
    return results

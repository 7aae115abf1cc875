"""Drift monitors: streaming PSI between training-time and live traffic.

The online loop's silent failure mode is *distribution drift*: the world
moves (user interests rotate, category trends flip) while the production
model keeps serving what it learned from a stale window.  Ranking metrics at
canary time cannot see this — the canary replays *logged* traffic, which is
by construction the distribution the candidate trained on.  What catches it
is comparing a **reference sketch** of the click-log window the production
model was trained on against a **live sketch** of the traffic it is serving
right now.

Both sides are :class:`~repro.obs.streaming.StreamingHistogram`\\ s, so the
whole monitor inherits the streaming-metrics contract: O(1) memory per
feature.  The online loop owns the one monitor.

One score per feature, computed from the shared exponential bucket layout:
the **PSI** (population stability index), ``sum((p_i - q_i) * ln(p_i / q_i))``
over buckets, the standard industry drift score.  Symmetric, zero iff the
bucketed distributions are identical.  The conventional reading: < 0.1
stationary, 0.1–0.25 moderate shift, > 0.25 act.  Every alert rule and the
``drift_score`` event read it.

Like everything in :mod:`repro.obs` this imports nothing from the serving
stack; the online loop feeds it per-session features (CTR, predicted
scores, score-calibration gap, item price/popularity) and freezes the
reference at promotion time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.obs.streaming import StreamingHistogram

__all__ = ["psi_from_counts", "DriftMonitor"]

#: Probability floor for empty buckets: PSI's ``ln(p/q)`` diverges when one
#: side of a populated bucket is empty, so both sides are clamped here.
_PSI_EPSILON = 1e-6


def psi_from_counts(
    reference_counts: np.ndarray,
    live_counts: np.ndarray,
    epsilon: float = _PSI_EPSILON,
) -> float:
    """Population stability index between two aligned count vectors.

    Only buckets populated on at least one side participate (summing over
    thousands of mutually empty buckets would inject ``epsilon`` noise);
    within those, each side's probability is clamped at ``epsilon`` so a
    bucket that gained or lost all its mass contributes a large-but-finite
    term.  Returns exactly ``0.0`` when the normalized counts coincide.
    """
    reference_counts = np.asarray(reference_counts, dtype=np.float64)
    live_counts = np.asarray(live_counts, dtype=np.float64)
    if reference_counts.shape != live_counts.shape:
        raise ValueError(
            f"count vectors must align, got {reference_counts.shape} vs {live_counts.shape}"
        )
    ref_total = float(reference_counts.sum())
    live_total = float(live_counts.sum())
    if ref_total <= 0 or live_total <= 0:
        return 0.0
    mask = (reference_counts > 0) | (live_counts > 0)
    p = np.maximum(reference_counts[mask] / ref_total, epsilon)
    q = np.maximum(live_counts[mask] / live_total, epsilon)
    return float(np.sum((p - q) * np.log(p / q)))


#: The one bucket layout of every drift sketch (see :class:`DriftMonitor`).
_DRIFT_HIST_KWARGS = dict(min_value=5e-2, growth=1.35, num_buckets=32)


class DriftMonitor:
    """Named reference/live sketch pairs with streaming drift scores.

    Lifecycle::

        monitor.observe("ctr", session_ctr)      # every served session
        monitor.freeze_reference()               # at promotion: live → reference
        monitor.observe("ctr", session_ctr)      # next window accumulates fresh
        monitor.scores()["ctr"]["psi"]           # live window vs training window

    ``freeze_reference`` is called when a candidate is promoted: the live
    sketches at that moment cover exactly the click-log window the candidate
    trained on, so they *are* the training-time reference for the new
    production model.  Until the first freeze every score is ``0.0`` — there
    is nothing to drift from.

    Sketches are created lazily per feature name with one shared bucket
    layout, ``_DRIFT_HIST_KWARGS``.  It is deliberately **coarse** — ~11
    buckets across ``[0, 1]``, matching the decile binning PSI's
    conventional thresholds (0.1 / 0.25) were calibrated on; finer buckets
    inflate the score with per-bucket sampling noise on realistic window
    sizes.  Negative observations clamp to ``0.0`` — drift features are
    rates and means, where a tiny negative is numerical noise, not a
    histogram-contract violation.
    """

    def __init__(self, min_samples: int = 20) -> None:
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.min_samples = int(min_samples)
        self._live: Dict[str, StreamingHistogram] = {}
        self._reference: Dict[str, StreamingHistogram] = {}
        self.reference_samples = 0
        self.freezes = 0

    def _new_sketch(self, name: str) -> StreamingHistogram:
        return StreamingHistogram(name, **_DRIFT_HIST_KWARGS)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one live-traffic observation of feature ``name``."""
        sketch = self._live.get(name)
        if sketch is None:
            sketch = self._live[name] = self._new_sketch(name)
        sketch.record(max(float(value), 0.0))

    # ------------------------------------------------------------------
    # reference lifecycle
    # ------------------------------------------------------------------
    @property
    def has_reference(self) -> bool:
        return bool(self._reference)

    def features(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._live) | set(self._reference)))

    def freeze_reference(self) -> None:
        """Promote the live sketches to the reference; start a fresh window.

        Call at model-promotion time: the live window at that moment is the
        click-log window the newly promoted model trained on.
        """
        if not self._live:
            raise RuntimeError("no live observations to freeze as a reference")
        self._reference = self._live
        self.reference_samples = sum(sketch.count for sketch in self._reference.values())
        self.freezes += 1
        self._live = {name: self._new_sketch(name) for name in self._reference}

    def reset_live(self) -> None:
        """Drop the live window (e.g. after scoring a completed cycle)."""
        self._live = {name: self._new_sketch(name) for name in self._live}

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _scoreable(self, name: str) -> Optional[Tuple[StreamingHistogram, StreamingHistogram]]:
        reference = self._reference.get(name)
        live = self._live.get(name)
        if reference is None or live is None:
            return None
        if reference.count < self.min_samples or live.count < self.min_samples:
            return None
        return reference, live

    def psi(self, name: str) -> float:
        """PSI of ``name``'s live window vs its reference (0.0 if unscored)."""
        pair = self._scoreable(name)
        if pair is None:
            return 0.0
        reference, live = pair
        return psi_from_counts(reference.counts, live.counts)

    def scores(self) -> Dict[str, Dict[str, float]]:
        """Per-feature ``{psi, live_samples, reference_samples}``."""
        result: Dict[str, Dict[str, float]] = {}
        for name in self.features():
            reference = self._reference.get(name)
            live = self._live.get(name)
            result[name] = {
                "psi": self.psi(name),
                "live_samples": 0 if live is None else live.count,
                "reference_samples": 0 if reference is None else reference.count,
            }
        return result

    def worst(self) -> Tuple[Optional[str], float]:
        """The feature with the highest PSI and its score."""
        return _worst(self.scores())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (dashboard / benchmark artifacts, and the
        online loop's ``drift_score`` event): one scoring pass feeds both
        the per-feature table and the worst feature."""
        scores = self.scores()
        worst_name, worst_psi = _worst(scores)
        return {
            "has_reference": self.has_reference,
            "freezes": self.freezes,
            "reference_samples": self.reference_samples,
            "worst_feature": worst_name,
            "worst_psi": worst_psi,
            "features": scores,
        }


def _worst(scores: Dict[str, Dict[str, float]]) -> Tuple[Optional[str], float]:
    """The first feature (in name order) with the highest PSI, and its PSI."""
    worst_name: Optional[str] = None
    worst_psi = 0.0
    for name, score in scores.items():
        if worst_name is None or score["psi"] > worst_psi:
            worst_name, worst_psi = name, score["psi"]
    return worst_name, worst_psi

"""Stage-2 prefilter: a cheap linear scorer over the cascade's item vectors.

Between the ANN index (:mod:`repro.retrieval.index`) and the full compiled
AW-MoE sits a prefilter that prunes the index's N retrieved candidates down
to the top-K survivors the expensive ranker actually scores.  Its score is
deliberately linear — a few hundred FLOPs per candidate against the full
model's hundreds of thousands:

    score(i) = <u, x_i> + extra_i

where ``x_i`` is the item's row in the cascade's calibrated vector space
(see :mod:`repro.retrieval.cascade`: probe logit, popularity prior, sales,
embedding, dense profile and its square), ``u`` the session vector with the
calibration weights folded in, and ``extra_i`` an optional per-query
additive term (the cascade passes its user x item cross-feature boost here).

On the serving path stage 1 hands its inner products over (``prune(...,
base=...)``), so only ``extra`` is added; :meth:`Prefilter.scores` gathers
and scores explicit candidates for the degraded tier and the retrieval
probe.  ``prune=None`` (or K >= N) disables pruning: every retrieved
candidate survives, which together with ``nprobe="all"`` is the cascade's
exhaustive-parity mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Prefilter"]


class Prefilter:
    """Linear candidate scorer.

    Parameters
    ----------
    item_vectors:
        ``(num_items, D)`` item vectors, the same snapshot the
        :class:`~repro.retrieval.index.ItemIndex` slabs hold.
    """

    def __init__(self, item_vectors: np.ndarray) -> None:
        self.item_vectors = np.ascontiguousarray(item_vectors, dtype=np.float32)

    def scores(
        self,
        candidates: np.ndarray,
        session_vec: np.ndarray,
        extra: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Prefilter scores for ``candidates`` (a fresh array)."""
        scores = self.item_vectors[candidates] @ session_vec
        if extra is not None:
            scores += extra
        return scores

    def prune(
        self,
        candidates: np.ndarray,
        session_vec: np.ndarray,
        keep: Optional[int],
        extra: Optional[np.ndarray] = None,
        base: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The top-``keep`` survivors of ``candidates``, ascending id order.

        ``keep=None`` (or >= len) passes every candidate through — the
        parity mode.  Selection is ``np.argpartition`` (O(N)), and the
        ascending-id output makes the survivor *set* the only thing pruning
        decides — downstream ranking is order-canonical either way.

        ``base`` is the candidates' ``<session_vec, x>`` when the caller
        already holds it (stage 1 ranked them by that inner product): the
        gather and GEMV are skipped and only ``extra`` is added.
        """
        if keep is None or keep >= candidates.size:
            return candidates
        if base is None:
            scores = self.scores(candidates, session_vec, extra=extra)
        else:
            scores = base if extra is None else base + extra
        survivors = np.argpartition(-scores, keep - 1)[:keep]
        return np.sort(candidates[survivors])

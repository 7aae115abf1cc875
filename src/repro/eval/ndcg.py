"""Session-grouped NDCG metrics (paper Eq. 13).

Binary gains with the position discount ``1/log2(i+1)``; the DCG of the
predicted ordering is normalized by the DCG of the label-ideal ordering.
``NDCG@10`` truncates both orderings at rank 10.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.eval.auc import _rank_sessions

__all__ = ["session_ndcg", "per_session_ndcg", "dcg"]


def dcg(ordered_labels: np.ndarray, k: Optional[int] = None) -> float:
    """Discounted cumulative gain of labels in ranked order."""
    labels = np.asarray(ordered_labels, dtype=float)
    if k is not None:
        labels = labels[:k]
    if labels.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, labels.size + 2))
    return float((labels * discounts).sum())


def session_ndcg(
    scores: np.ndarray, labels: np.ndarray, sessions: np.ndarray, k: Optional[int] = None
) -> float:
    """Mean per-session NDCG (Eq. 13); ``k`` truncates at a cutoff.

    Sessions with no positive item have an undefined ideal DCG and are
    skipped, mirroring the AUC treatment.
    """
    values, _ = per_session_ndcg(scores, labels, sessions, k)
    if not values.size:
        raise ValueError("no session contains a positive item")
    return float(values.mean())


def per_session_ndcg(
    scores: np.ndarray, labels: np.ndarray, sessions: np.ndarray, k: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """NDCG of every session with a non-zero ideal :func:`dcg`, and those
    sessions' ids, in ascending id order."""
    labels, sessions = np.asarray(labels, dtype=float), np.asarray(sessions)
    order, group, position = _rank_sessions(scores, sessions)
    # The ideal ordering sorts the same sessions by label, so it shares
    # ``group`` and ``position`` with the predicted one.
    ideal_order = np.lexsort((-labels, sessions))
    discounts = 1.0 / np.log2(position + 2.0)
    if k is not None:
        discounts[position >= k] = 0.0
    ideal = np.bincount(group, weights=labels[ideal_order] * discounts)
    realized = np.bincount(group, weights=labels[order] * discounts)
    defined = ideal != 0.0
    return realized[defined] / ideal[defined], sessions[order[position == 0]][defined]

"""Session-grouped AUC metrics (paper Eq. 12).

The paper averages a per-session pairwise AUC over all test sessions, and
additionally reports ``AUC@10`` computed on each session's top-10 items by
predicted score.  Sessions lacking both a positive and a negative (within the
cutoff, for @10) are skipped, as they contribute no pairs.  All sessions are
ranked in one ``lexsort`` and reduced with ``np.bincount``; :func:`binary_auc`
is the per-group oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from scipy.stats import rankdata

__all__ = ["binary_auc", "session_auc", "session_auc_at_k", "per_session_auc", "global_auc"]


def binary_auc(scores: np.ndarray, labels: np.ndarray) -> Optional[float]:
    """Pairwise AUC for one group; ``None`` when only one class is present.

    Uses the rank-sum formulation with average ranks, so score ties count
    half — equivalent to the indicator double-sum of Eq. 12 with the usual
    1/2 tie convention.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        return None
    ranks = rankdata(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - positives * (positives + 1) / 2) / (positives * negatives))


def session_auc(scores: np.ndarray, labels: np.ndarray, sessions: np.ndarray) -> float:
    """Mean per-session AUC (Eq. 12) over sessions with both classes."""
    values, _ = per_session_auc(scores, labels, sessions)
    if not values.size:
        raise ValueError("no session contains both a positive and a negative")
    return float(values.mean())


def session_auc_at_k(
    scores: np.ndarray, labels: np.ndarray, sessions: np.ndarray, k: int = 10
) -> float:
    """Mean per-session AUC over each session's top-``k`` predicted items."""
    if k < 2:
        raise ValueError(f"k must be >= 2 for a pairwise metric, got {k}")
    values, _ = per_session_auc(scores, labels, sessions, k)
    if not values.size:
        raise ValueError(f"no session has both classes within its top-{k}")
    return float(values.mean())


def per_session_auc(
    scores: np.ndarray, labels: np.ndarray, sessions: np.ndarray, k: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`binary_auc` of every session (of its top-``k`` rows, with ``k``)
    that holds both classes, and those sessions' ids, in ascending id order."""
    scores, labels, sessions = np.asarray(scores), np.asarray(labels), np.asarray(sessions)
    order, group, position = _rank_sessions(scores, sessions)
    if k is not None:
        keep = position < k
        order, group, position = order[keep], group[keep], position[keep]
    scores, positive, negative = scores[order], labels[order] == 1, labels[order] == 0
    # Tie-averaged ascending ranks from run lengths: a run of ``length`` equal
    # scores starting ``position`` places from the top of a ``size``-row
    # session shares rank ``size - position - (length - 1) / 2``.
    head = np.ones(order.size, dtype=bool)
    head[1:] = (group[1:] != group[:-1]) | (scores[1:] != scores[:-1])
    run = np.cumsum(head) - 1
    ranks = (np.bincount(group)[group] - position[head][run]) - (np.bincount(run)[run] - 1) / 2
    positives = np.bincount(group, weights=positive)
    negatives = np.bincount(group, weights=negative)
    rank_sum = np.bincount(group, weights=ranks * positive)
    both = (positives > 0) & (negatives > 0)
    positives, negatives = positives[both], negatives[both]
    values = (rank_sum[both] - positives * (positives + 1) / 2) / (positives * negatives)
    return values, sessions[order[position == 0]][both]


def _rank_sessions(scores: np.ndarray, sessions: np.ndarray):
    """Every session ranked at once: ``order`` sorts rows by (session, score
    descending, row) — a stable ``argsort(-scores)`` inside each session —
    ``group`` is the sorted rows' dense session index (ascending session id)
    and ``position`` their 0-based rank inside the session."""
    order = np.lexsort((-np.asarray(scores, dtype=float), sessions))
    first = np.ones(order.size, dtype=bool)
    first[1:] = sessions[order[1:]] != sessions[order[:-1]]
    group = np.cumsum(first) - 1
    return order, group, np.arange(order.size) - np.flatnonzero(first)[group]


def global_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Ungrouped AUC over all examples (used for the Amazon protocol,
    where each user contributes one positive and one sampled negative)."""
    auc = binary_auc(scores, labels)
    if auc is None:
        raise ValueError("global AUC needs both classes present")
    return auc

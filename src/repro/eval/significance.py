"""Statistical significance tests.

The paper reports p-values for every metric delta relative to DNN and to
Category-MoE (Tables II–V) and a two-proportion test for the online A/B
experiment (§IV-I).  Offline metrics use a paired session-level bootstrap:
sessions are resampled with replacement and the p-value is the fraction of
resamples in which the challenger does not beat the reference.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from scipy.stats import norm

from repro.eval.auc import per_session_auc
from repro.eval.ndcg import per_session_ndcg

__all__ = [
    "paired_bootstrap_pvalue",
    "session_metric_samples",
    "two_proportion_z_test",
]


def session_metric_samples(
    scores: np.ndarray,
    labels: np.ndarray,
    sessions: np.ndarray,
    metric: str,
    k: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-session metric values and the session ids that produced them.

    ``metric`` is ``"auc"`` or ``"ndcg"``; ``k`` applies the top-k cutoff.
    Sessions where the metric is undefined are dropped (consistently for
    paired comparisons because the *labels* determine definedness for ndcg,
    while for auc@k the model's own top-k does).
    """
    if metric == "auc":
        return per_session_auc(scores, labels, sessions, k)
    if metric == "ndcg":
        return per_session_ndcg(scores, labels, sessions, k)
    raise ValueError(f"unknown metric {metric!r}")


def paired_bootstrap_pvalue(
    scores_a: np.ndarray,
    scores_b: np.ndarray,
    labels: np.ndarray,
    sessions: np.ndarray,
    metric: str = "auc",
    k: Optional[int] = None,
    num_resamples: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One-sided p-value that model B improves on model A.

    Per-session metric values are computed for both models; sessions defined
    for both are paired, resampled with replacement ``num_resamples`` times,
    and the p-value is the fraction of resamples where mean(B) <= mean(A)
    (add-one smoothed so the p-value is never exactly zero).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    values_a, ids_a = session_metric_samples(scores_a, labels, sessions, metric, k)
    values_b, ids_b = session_metric_samples(scores_b, labels, sessions, metric, k)
    common, idx_a, idx_b = np.intersect1d(ids_a, ids_b, return_indices=True)
    if common.size < 2:
        raise ValueError("fewer than two sessions defined for both models")
    deltas = values_b[idx_b] - values_a[idx_a]
    n = deltas.size
    draws = rng.integers(0, n, size=(num_resamples, n))
    resampled_means = deltas[draws].mean(axis=1)
    worse = int((resampled_means <= 0).sum())
    return float((worse + 1) / (num_resamples + 1))


def two_proportion_z_test(
    successes_a: int, total_a: int, successes_b: int, total_b: int
) -> Tuple[float, float]:
    """Two-proportion z-test; returns ``(z, one_sided_p_that_b_better)``.

    Used for the online A/B simulation: UCTR/UCVR are user-level success
    proportions (§IV-I).
    """
    if min(total_a, total_b) <= 0:
        raise ValueError("totals must be positive")
    p_a = successes_a / total_a
    p_b = successes_b / total_b
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = pooled * (1 - pooled) * (1 / total_a + 1 / total_b)
    if variance == 0:
        return 0.0, 0.5
    z = (p_b - p_a) / np.sqrt(variance)
    p_value = float(norm.sf(z))
    return float(z), p_value

"""Model evaluation driver: scores a dataset and computes the paper's metrics.

Produces exactly the four columns of Tables II–IV (AUC, AUC@10, NDCG,
NDCG@10) or the single AUC column of Table V, plus bootstrap p-values against
reference models via :mod:`repro.eval.significance`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.dataset import RankingDataset, iterate_batches
from repro.eval.auc import session_auc, session_auc_at_k
from repro.eval.ndcg import session_ndcg
from repro.infer import CompiledModel

__all__ = ["predict_scores", "evaluate_ranking", "METRIC_NAMES"]

METRIC_NAMES = ("auc", "auc@10", "ndcg", "ndcg@10")


def predict_scores(
    model: RankingModel, dataset: RankingDataset, batch_size: int = 1024
) -> np.ndarray:
    """Predicted probabilities for every impression, in dataset order.

    ``model`` is anything exposing ``predict_proba(batch)`` — an eager
    :class:`~repro.core.ranking_model.RankingModel` or a compiled
    :class:`~repro.infer.CompiledModel` (the canary gate replays through
    the latter).  A compiled model scoring a dataset that carries its
    ``sessions`` gets its :meth:`~repro.data.schema.SessionBatch.blocks` of
    at most ``batch_size`` rows, so the replay runs serving's
    session-factored kernels; any other pairing iterates flat row batches.
    """
    if isinstance(model, CompiledModel) and dataset.sessions is not None:
        batches = dataset.sessions.blocks(batch_size)
    else:
        batches = iterate_batches(dataset, batch_size)
    chunks = [model.predict_proba(batch) for batch in batches]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float32)


def evaluate_ranking(
    model: RankingModel,
    dataset: RankingDataset,
    batch_size: int = 1024,
    k: int = 10,
    scores: Optional[np.ndarray] = None,
) -> Dict[str, float]:
    """All four session metrics for one model on one test set.

    Pass precomputed ``scores`` to avoid re-running inference (the
    significance tests reuse them).
    """
    if scores is None:
        scores = predict_scores(model, dataset, batch_size)
    labels = dataset.label
    sessions = dataset.session_id
    return {
        "auc": session_auc(scores, labels, sessions),
        f"auc@{k}": session_auc_at_k(scores, labels, sessions, k=k),
        "ndcg": session_ndcg(scores, labels, sessions),
        f"ndcg@{k}": session_ndcg(scores, labels, sessions, k=k),
    }

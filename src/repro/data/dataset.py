"""In-memory ranking dataset (struct-of-arrays) and mini-batch iteration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.data.schema import BATCH_KEYS, Batch, DatasetMeta, SessionBatch

__all__ = ["RankingDataset", "iterate_batches"]


@dataclass
class RankingDataset:
    """All impressions of one split, stored column-wise.

    Attributes mirror the batch contract (see ``repro.data.schema``): integer
    id columns feed embedding tables, ``other_features`` is the dense vector,
    ``session_id`` groups impressions into search sessions for the
    session-level AUC/NDCG metrics (Eq. 12–13).
    """

    behavior_items: np.ndarray  # (N, M) int32, 0-padded
    behavior_categories: np.ndarray  # (N, M) int32, 0-padded
    behavior_dense: np.ndarray  # (N, M, D) float32 item profile features
    behavior_mask: np.ndarray  # (N, M) float32 in {0, 1}
    target_item: np.ndarray  # (N,) int32
    target_category: np.ndarray  # (N,) int32
    target_dense: np.ndarray  # (N, D) float32 item profile features
    query: np.ndarray  # (N,) int32 (0 when task == "reco")
    query_category: np.ndarray  # (N,) int32
    other_features: np.ndarray  # (N, F) float32
    label: np.ndarray  # (N,) float32 in {0, 1}
    session_id: np.ndarray  # (N,) int64
    user_id: np.ndarray  # (N,) int64
    meta: DatasetMeta
    #: The same rows by session, where the builder had them (click windows).
    sessions: Optional[SessionBatch] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.label)
        for name in BATCH_KEYS:
            column = getattr(self, name)
            if column.shape[0] != n:
                raise ValueError(f"column {name!r} has {column.shape[0]} rows, expected {n}")

    def __len__(self) -> int:
        return int(self.label.shape[0])

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray) -> "RankingDataset":
        """Return a new dataset holding only ``indices`` (copy-free views)."""
        return RankingDataset(meta=self.meta, **self.batch_at(np.asarray(indices)))

    def batch_at(self, indices: np.ndarray) -> Batch:
        """Materialize a batch dict for the given row indices."""
        return {name: getattr(self, name)[indices] for name in BATCH_KEYS}

    # ------------------------------------------------------------------
    # summary statistics (Table I)
    # ------------------------------------------------------------------
    def num_sessions(self) -> int:
        return int(np.unique(self.session_id).size)

    def num_users(self) -> int:
        return int(np.unique(self.user_id).size)

    def num_queries(self) -> int:
        present = self.query[self.query > 0]
        return int(np.unique(present).size)

    def positive_count(self) -> int:
        return int(self.label.sum())

    def negative_count(self) -> int:
        return int(len(self) - self.label.sum())

    def pos_neg_ratio(self) -> float:
        """Negatives per positive (Table I reports "1 : <this>")."""
        positives = self.positive_count()
        if positives == 0:
            return float("inf")
        return self.negative_count() / positives

    def examples_per_session(self) -> float:
        sessions = self.num_sessions()
        return len(self) / sessions if sessions else 0.0

    def behavior_lengths(self) -> np.ndarray:
        """Valid behaviour-sequence length per impression."""
        return self.behavior_mask.sum(axis=1).astype(np.int64)


def iterate_batches(
    dataset: RankingDataset,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    drop_last: bool = False,
) -> Iterator[Batch]:
    """Yield mini-batches; shuffles when an ``rng`` is supplied.

    ``drop_last`` discards a trailing partial batch — used in training so the
    in-batch negative sampling of the contrastive loss always has enough
    rows.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(dataset))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if drop_last and len(chunk) < batch_size:
            return
        yield dataset.batch_at(chunk)

"""Dataset schema shared by generators, models, and the evaluation stack.

An *impression* is one (user, item, context) row (§III-A).  A batch is a plain
dict of NumPy arrays — integer id arrays for embedding lookups, float arrays
for dense features — matching the model input contract documented on
:class:`repro.core.aw_moe.AWMoE`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "FEATURE_NAMES",
    "FIG2_FEATURES",
    "DatasetMeta",
    "Batch",
    "SessionBatch",
    "batch_size_of",
    "concat_batches",
]

#: Dense ("other") feature vector layout, in order.  The six starred names are
#: the features plotted in the paper's Fig. 2.
FEATURE_NAMES: Tuple[str, ...] = (
    "user_log_activity",
    "age_young",
    "age_mid",
    "age_elderly",
    "price",  # * Fig. 2 "Price"
    "sales",  # * Fig. 2 "Sales"
    "popularity",  # * Fig. 2 "Popularity"
    "quality",
    "query_item_match",
    "query_specificity",
    "item_click_cnt",  # * Fig. 2 "Item_click_cnt"
    "brand_click_cnt",
    "shop_click_cnt",  # * Fig. 2 "Shop_click_cnt"
    "category_click_cnt",
    "brand_click_time_diff",  # * Fig. 2 "Brand_click_time_diff"
    "price_gap",
)

#: The six features the paper's Fig. 2 reports, in the paper's order.
FIG2_FEATURES: Tuple[str, ...] = (
    "sales",
    "popularity",
    "price",
    "item_click_cnt",
    "brand_click_time_diff",
    "shop_click_cnt",
)

#: Per-item dense profile features attached to behaviour/target items (real
#: ranking systems embed item side-information alongside the id; these are
#: what the latent archetypes and style preferences react to).
ITEM_DENSE_NAMES: Tuple[str, ...] = ("price", "popularity", "quality", "style")

Batch = Dict[str, np.ndarray]

#: Array keys every ranking batch must carry.
BATCH_KEYS: Tuple[str, ...] = (
    "behavior_items",
    "behavior_categories",
    "behavior_dense",
    "behavior_mask",
    "target_item",
    "target_category",
    "target_dense",
    "query",
    "query_category",
    "other_features",
    "label",
    "session_id",
    "user_id",
)


def concat_batches(batches: Sequence[Batch]) -> Batch:
    """Row-wise concatenation of batches that share their keys."""
    return {
        key: np.concatenate([batch[key] for batch in batches], axis=0)
        for key in batches[0]
    }


class SessionBatch:
    """A ranking batch factored by session (§III-F1).

    Everything the model reads about the *user and query* — the behaviour
    sequence, its mask, the query — is identical for every candidate of a
    session, so it is stored once: ``session`` arrays have leading dim S,
    ``candidate`` arrays leading dim N, and ``counts[s]`` candidates belong
    to session ``s``, contiguously and in session order.  Indexing by key
    returns whichever side holds it, so the compiled plans
    (:mod:`repro.infer`) run their session-side kernels on S rows instead
    of N.  :meth:`flat` is the per-impression :data:`Batch` that training,
    the eager models and the click log consume.
    """

    __slots__ = ("session", "candidate", "counts", "bounds")

    def __init__(self, session: Batch, candidate: Batch, counts: np.ndarray) -> None:
        self.session = session
        self.candidate = candidate
        self.counts = np.asarray(counts, dtype=np.int64)
        # A session without candidates would let S == N with ragged counts,
        # and "one row per session" is told from "one row per candidate" by
        # the leading dim alone.
        if (self.counts < 1).any():
            raise ValueError(f"every session needs at least one candidate, got counts {counts}")
        #: Row offsets: session ``s`` owns rows ``bounds[s]:bounds[s + 1]``.
        self.bounds: List[int] = [0, *np.cumsum(self.counts).tolist()]

    def __getitem__(self, key: str) -> np.ndarray:
        side = self.session if key in self.session else self.candidate
        return side[key]

    def __contains__(self, key: str) -> bool:
        return key in self.session or key in self.candidate

    @property
    def num_sessions(self) -> int:
        return len(self.bounds) - 1

    @property
    def num_rows(self) -> int:
        return self.bounds[-1]

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` with one leading row per session, repeated to one per
        candidate; anything else must already broadcast against the
        candidate rows and is returned as is."""
        if rows.shape[0] != self.num_sessions:
            return rows
        return np.repeat(rows, self.counts, axis=0)

    def flat(self) -> Batch:
        """One row per impression — bit for bit what per-candidate assembly
        (tiling the session side) produces."""
        flat = {key: np.repeat(rows, self.counts, axis=0) for key, rows in self.session.items()}
        flat.update(self.candidate)
        return flat

    def sessions(self, start: int, stop: int) -> "SessionBatch":
        """Sessions ``start:stop`` as a batch of views (nothing is copied)."""
        rows = slice(self.bounds[start], self.bounds[stop])
        return SessionBatch(
            {key: side[start:stop] for key, side in self.session.items()},
            {key: side[rows] for key, side in self.candidate.items()},
            self.counts[start:stop],
        )

    def blocks(self, max_rows: int) -> Iterator["SessionBatch"]:
        """Runs of consecutive whole sessions of at most ``max_rows`` rows,
        in order; a larger session is a block by itself."""
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        bounds, start = self.bounds, 0
        while start < self.num_sessions:
            stop = max(bisect_right(bounds, bounds[start] + max_rows) - 1, start + 1)
            yield self.sessions(start, stop)
            start = stop

    @staticmethod
    def concat(batches: Sequence["SessionBatch"]) -> "SessionBatch":
        """Several sessions' batches as one, sessions in the given order."""
        return SessionBatch(
            concat_batches([batch.session for batch in batches]),
            concat_batches([batch.candidate for batch in batches]),
            np.concatenate([batch.counts for batch in batches]),
        )


@dataclass(frozen=True)
class DatasetMeta:
    """Vocabulary sizes and shapes a model needs to size its embeddings.

    Id 0 is reserved for padding in every vocabulary.
    """

    num_items: int
    num_categories: int
    num_queries: int
    num_brands: int
    num_shops: int
    max_seq_len: int
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    item_dense_names: Tuple[str, ...] = ITEM_DENSE_NAMES
    task: str = "search"  # "search" (query available) or "reco" (no query)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def num_item_dense(self) -> int:
        return len(self.item_dense_names)

    def feature_index(self, name: str) -> int:
        """Index of a dense feature by name; raises on unknown names."""
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}; known: {self.feature_names}")


def batch_size_of(batch: Batch) -> int:
    """Number of impressions in a batch."""
    return int(batch["label"].shape[0])


def validate_batch(batch: Batch) -> None:
    """Raise if a batch is missing keys or has inconsistent shapes."""
    missing = [key for key in BATCH_KEYS if key not in batch]
    if missing:
        raise KeyError(f"batch missing keys: {missing}")
    n = batch_size_of(batch)
    for key in BATCH_KEYS:
        if batch[key].shape[0] != n:
            raise ValueError(
                f"batch key {key!r} has leading dim {batch[key].shape[0]}, expected {n}"
            )
    if batch["behavior_items"].shape != batch["behavior_mask"].shape:
        raise ValueError("behavior_items and behavior_mask shapes differ")

"""Public feature-assembly API shared by offline generation and online serving.

The synthetic log generator (:mod:`repro.data.synthetic`) and the serving
stack (:mod:`repro.serving`) must compute *exactly* the same features for an
impression, otherwise offline training and online scoring drift apart — the
classic training/serving skew problem.  This module is the single source of
truth for that computation:

* :class:`UserState` — cached per-user history arrays;
* :func:`cross_features` — two-sided user x item counters (Fig. 2 features);
* :func:`impression_features` — the dense ``other_features`` matrix in
  :data:`repro.data.schema.FEATURE_NAMES` order;
* :func:`encode_behavior` — the padded behaviour-sequence arrays consumed by
  the attention layers;
* :func:`item_dense` — per-item dense profiles (price/popularity/quality/style);
* :func:`assemble_session` — the full feature dump of Fig. 6: one model-ready
  :class:`~repro.data.schema.SessionBatch` for a (user, query, candidates)
  triple, the session side stored once (:func:`session_side` builds that half
  alone); :func:`assemble_candidate_batch` is its flat per-impression form.

Everything here is deterministic and free of random state, so the serving
cache (:mod:`repro.serving.cache`) may store and reuse any of these outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.data.schema import FEATURE_NAMES, Batch, SessionBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthetic imports us)
    from repro.data.synthetic import World

__all__ = [
    "UserState",
    "BehaviorEncoding",
    "cross_features",
    "encode_behavior",
    "impression_features",
    "item_dense",
    "session_side",
    "assemble_session",
    "assemble_candidate_batch",
]

#: ``(items, categories, dense, mask)`` rows returned by :func:`encode_behavior`.
BehaviorEncoding = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class UserState:
    """Cached per-user history arrays for fast cross-feature computation."""

    __slots__ = ("items", "categories", "brands", "shops", "prices", "length")

    def __init__(self, world: "World", user: int) -> None:
        history = world.histories[user]
        self.items = history
        self.categories = world.item_category[history]
        self.brands = world.item_brand[history]
        self.shops = world.item_shop[history]
        self.prices = world.item_price_pct[history]
        self.length = len(history)


def cross_features(
    state: UserState, world: "World", candidates: np.ndarray
) -> Dict[str, np.ndarray]:
    """Two-sided user-item features for a session's candidate set (C,)."""
    c = candidates.size
    if state.length == 0:
        zero = np.zeros(c)
        return {
            "item_click_cnt": zero,
            "brand_click_cnt": zero.copy(),
            "shop_click_cnt": zero.copy(),
            "category_click_cnt": zero.copy(),
            "brand_click_time_diff": np.ones(c),
            "price_gap": zero.copy(),
        }
    cand_brand = world.item_brand[candidates][:, None]
    cand_shop = world.item_shop[candidates][:, None]
    cand_cat = world.item_category[candidates][:, None]
    cand_item = candidates[:, None]

    item_hits = state.items[None, :] == cand_item  # (C, H)
    brand_hits = state.brands[None, :] == cand_brand
    shop_hits = state.shops[None, :] == cand_shop
    cat_hits = state.categories[None, :] == cand_cat

    h = state.length
    # Recency of the last same-brand interaction, normalized to [0, 1];
    # 1.0 when the brand never occurs (matches "Brand_click_time_diff").
    positions = np.arange(h)
    last_brand_pos = np.where(
        brand_hits.any(axis=1), (brand_hits * (positions + 1)).max(axis=1) - 1, -1
    )
    brand_time_diff = np.where(
        last_brand_pos >= 0, (h - 1 - last_brand_pos) / max(h, 1), 1.0
    )

    cat_counts = cat_hits.sum(axis=1)
    with np.errstate(invalid="ignore"):
        mean_cat_price = np.where(
            cat_counts > 0,
            (cat_hits * state.prices[None, :]).sum(axis=1) / np.maximum(cat_counts, 1),
            0.0,
        )
    price_gap = np.where(cat_counts > 0, world.item_price_pct[candidates] - mean_cat_price, 0.0)

    return {
        "item_click_cnt": item_hits.sum(axis=1).astype(float),
        "brand_click_cnt": brand_hits.sum(axis=1).astype(float),
        "shop_click_cnt": shop_hits.sum(axis=1).astype(float),
        "category_click_cnt": cat_counts.astype(float),
        "brand_click_time_diff": brand_time_diff,
        "price_gap": price_gap,
    }


def item_dense(world: "World", items: np.ndarray) -> np.ndarray:
    """Per-item dense profile (price, popularity, quality, style)."""
    return np.stack(
        [
            world.item_price_pct[items],
            world.item_popularity[items],
            world.item_quality[items],
            world.item_style[items],
        ],
        axis=-1,
    ).astype(np.float32)


def encode_behavior(world: "World", user: int, max_len: int) -> BehaviorEncoding:
    """Left-aligned, 0-padded (items, categories, dense, mask) rows."""
    history = world.histories[user][-max_len:]
    items = np.zeros(max_len, dtype=np.int32)
    cats = np.zeros(max_len, dtype=np.int32)
    dense = np.zeros((max_len, 4), dtype=np.float32)
    mask = np.zeros(max_len, dtype=np.float32)
    n = len(history)
    if n:
        items[:n] = history + 1
        cats[:n] = world.item_category[history] + 1
        dense[:n] = item_dense(world, history)
        mask[:n] = 1.0
    return items, cats, dense, mask


def impression_features(
    world: "World",
    user: int,
    candidates: np.ndarray,
    query_cat: int,
    spec: int,
    cross: Dict[str, np.ndarray],
    state: UserState,
) -> np.ndarray:
    """Dense feature matrix (C, F) following ``FEATURE_NAMES`` order."""
    cfg = world.config
    c = candidates.size
    features = np.zeros((c, len(FEATURE_NAMES)), dtype=np.float32)
    features[:, 0] = np.log1p(state.length) / np.log1p(cfg.max_seq_len)
    features[:, 1 + world.user_age[user]] = 1.0
    features[:, 4] = world.item_price_pct[candidates]
    features[:, 5] = world.item_sales[candidates]
    features[:, 6] = world.item_popularity[candidates]
    features[:, 7] = world.item_quality[candidates]
    features[:, 8] = (world.item_category[candidates] == query_cat).astype(np.float32)
    features[:, 9] = spec / max(cfg.num_query_specificities - 1, 1)
    features[:, 10] = np.minimum(cross["item_click_cnt"], 3) / 3.0
    features[:, 11] = np.minimum(cross["brand_click_cnt"], 5) / 5.0
    features[:, 12] = np.minimum(cross["shop_click_cnt"], 5) / 5.0
    features[:, 13] = np.minimum(cross["category_click_cnt"], 8) / 8.0
    features[:, 14] = cross["brand_click_time_diff"]
    features[:, 15] = cross["price_gap"]
    return features


def session_side(
    world: "World",
    user: int,
    query_category: int,
    spec: int = 1,
    behavior: Optional[BehaviorEncoding] = None,
) -> Batch:
    """The one-row session half of a (user, query) batch: everything the
    model reads that no candidate changes — all a candidate-independent
    gate (§III-F1) needs."""
    if behavior is None:
        behavior = encode_behavior(world, user, world.config.max_seq_len)
    items, cats, dense, mask = behavior
    query_id = query_category * world.config.num_query_specificities + spec + 1
    return {
        "behavior_items": items[None],
        "behavior_categories": cats[None],
        "behavior_dense": dense[None],
        "behavior_mask": mask[None],
        "query": np.array([query_id], dtype=np.int32),
        "query_category": np.array([query_category + 1], dtype=np.int32),
        "session_id": np.zeros(1, dtype=np.int64),
        "user_id": np.array([user], dtype=np.int64),
    }


def assemble_session(
    world: "World",
    user: int,
    query_category: int,
    candidates: np.ndarray,
    spec: int = 1,
    behavior: Optional[BehaviorEncoding] = None,
    state: Optional[UserState] = None,
) -> SessionBatch:
    """Model-ready batch for scoring ``candidates`` against one (user, query).

    This is the "feature dump" step of the paper's Fig. 6 serving diagram.
    ``behavior`` and ``state`` accept precomputed values (the serving session
    cache stores the behaviour encoding) so hot users skip re-encoding.
    """
    if state is None:
        state = UserState(world, user)
    cross = cross_features(state, world, candidates)
    features = impression_features(world, user, candidates, query_category, spec, cross, state)
    candidate = {
        "target_item": (candidates + 1).astype(np.int32),
        "target_category": (world.item_category[candidates] + 1).astype(np.int32),
        "target_dense": item_dense(world, candidates),
        "other_features": features.astype(np.float32),
        "label": np.zeros(candidates.size, dtype=np.float32),
    }
    return SessionBatch(
        session_side(world, user, query_category, spec, behavior),
        candidate,
        np.array([candidates.size]),
    )


def assemble_candidate_batch(
    world: "World",
    user: int,
    query_category: int,
    candidates: np.ndarray,
    spec: int = 1,
    behavior: Optional[BehaviorEncoding] = None,
    state: Optional[UserState] = None,
) -> Batch:
    """:func:`assemble_session` as one flat row per candidate, the session
    side repeated — what training, the eager models and the click log read."""
    return assemble_session(world, user, query_category, candidates, spec, behavior, state).flat()

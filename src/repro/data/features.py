"""Public feature-assembly API shared by offline generation and online serving.

The synthetic log generator (:mod:`repro.data.synthetic`), the Amazon split
(:mod:`repro.data.amazon`), the click log (:mod:`repro.online.click_log`)
and the serving stack (:mod:`repro.serving`) must compute *exactly* the same
features for an impression, otherwise offline training and online scoring
drift apart — the classic training/serving skew problem.  This module is the
single source of truth for that computation, by construction: all of them
hand ``(state, category, candidates)`` to :func:`assemble_sessions`, the only
function in ``src/repro`` that builds a feature row, and CI fails when
another file allocates a ``len(FEATURE_NAMES)``-wide matrix.

* :class:`UserState` — one user's history-only tables (brand / shop /
  category counts, brand recency, mean clicked price, item repeats), built
  once and cached by the serving session cache;
* :class:`ItemSlab` — the world-constant item-side columns, built once per
  world (``world.item_slab``);
* :func:`cross_features` — two-sided user x item counters (Fig. 2 features),
  O(candidates) gathers from a :class:`UserState`; the label model's input;
* :func:`encode_behavior` — the padded behaviour-sequence arrays consumed by
  the attention layers;
* :func:`item_dense` — per-item dense profiles (price/popularity/quality/style);
* :func:`assemble_sessions` — the full feature dump of Fig. 6 for a whole
  flush, click window or log chunk: one model-ready
  :class:`~repro.data.schema.SessionBatch` joining the sessions' user tables
  to the item slab, the session side stored once (:func:`session_side`
  builds that half alone); :func:`assemble_session` is its one-session call
  (``.flat()`` gives the per-impression form).

Everything here is deterministic and free of random state, so the serving
cache (:mod:`repro.serving.cache`) may store and reuse any of these outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.schema import FEATURE_NAMES, Batch, SessionBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synthetic imports us)
    from repro.data.synthetic import World

__all__ = [
    "UserState",
    "ItemSlab",
    "BehaviorEncoding",
    "cross_features",
    "encode_behavior",
    "item_dense",
    "session_side",
    "assemble_sessions",
    "assemble_session",
    "ITEM_CAP",
    "BRAND_CAP",
    "SHOP_CAP",
    "CATEGORY_CAP",
]

#: ``(items, categories, dense, mask)`` rows returned by :func:`encode_behavior`.
BehaviorEncoding = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _table_offsets(world: "World") -> Tuple[int, int, int, int, int]:
    """Where a :attr:`UserState.table` keeps its brand counts, shop counts,
    category counts and brand recencies, and its width; the four leading
    columns are the user's own ``other_features`` (activity, age one-hot)."""
    brand = 4
    shop = brand + world.num_brands
    category = shop + world.config.num_shops
    recency = category + world.config.num_categories
    return brand, shop, category, recency, recency + world.num_brands


class UserState:
    """Everything the features of one user's impressions read off the
    history alone, tabulated once: a candidate's cross features are gathers
    by its brand, shop, category and id.

    ``table`` is one float32 row (``brand_count`` / ``shop_count`` /
    ``category_count`` are views into it) so a flush stacks its users into
    one array; ``recency`` and ``mean_price`` stay float64 because
    :func:`cross_features` returns them, and the price gap subtracts, at that
    precision.  ``clicked`` is the sorted distinct history with ``repeats``
    counting each item, closed by the sentinel ``num_items`` (0 repeats) so a
    ``searchsorted`` never lands past the end.  ``behavior`` is the padded
    behaviour encoding (a precomputed one is taken as is).
    """

    __slots__ = (
        "user", "items", "categories", "brands", "length", "table", "brand_count",
        "shop_count", "category_count", "recency", "mean_price", "clicked", "repeats",
        "behavior",
    )

    def __init__(
        self, world: "World", user: int, behavior: Optional[BehaviorEncoding] = None
    ) -> None:
        cfg = world.config
        history = world.histories[user]
        h = len(history)
        self.user = user
        self.items = history
        self.categories = world.item_category[history]
        self.brands = world.item_brand[history]
        self.length = h
        self.behavior = behavior or encode_behavior(world, user, cfg.max_seq_len)
        brand, shop, category, recency, width = _table_offsets(world)
        self.table = table = np.zeros(width, dtype=np.float32)
        table[0] = np.log1p(h) / np.log1p(cfg.max_seq_len)
        table[1 + world.user_age[user]] = 1.0
        self.brand_count = table[brand:shop]
        self.shop_count = table[shop:category]
        self.category_count = table[category:recency]
        self.brand_count[:] = np.bincount(self.brands, minlength=world.num_brands)
        self.shop_count[:] = np.bincount(world.item_shop[history], minlength=cfg.num_shops)
        # Recency of the last same-brand interaction, normalized to [0, 1];
        # 1.0 when the brand never occurs (matches "Brand_click_time_diff").
        last = np.full(world.num_brands, -1)
        last[self.brands] = np.arange(h)  # a repeated brand keeps its last position
        self.recency = np.where(last >= 0, (h - 1 - last) / max(h, 1), 1.0)
        table[recency:] = self.recency
        # Mean clicked price per category: masked (categories, H) row sums.
        same_category = self.categories[None, :] == np.arange(cfg.num_categories)[:, None]
        counts = same_category.sum(axis=1)
        self.category_count[:] = counts
        self.mean_price = (same_category * world.item_price_pct[history][None, :]).sum(
            axis=1
        ) / np.maximum(counts, 1)
        clicked, repeats = np.unique(history, return_counts=True)
        self.clicked = np.append(clicked, world.num_items)
        self.repeats = np.append(repeats, 0).astype(np.float32)

    def repeat_counts(self, items: np.ndarray) -> np.ndarray:
        """How often the history clicked each of ``items`` (float32)."""
        slot = np.searchsorted(self.clicked, items)
        return self.repeats[slot] * (self.clicked[slot] == items)

    def price_gap(self, world: "World", items: np.ndarray) -> np.ndarray:
        """Each item's price minus the mean price the user clicked in its
        category (float64); 0 where the category was never clicked."""
        categories = world.item_category[items]
        return np.where(
            self.category_count[categories] > 0,
            world.item_price_pct[items] - self.mean_price[categories],
            0.0,
        )


def cross_features(
    state: UserState, world: "World", candidates: np.ndarray
) -> Dict[str, np.ndarray]:
    """Two-sided user-item features for a session's candidate set (C,)."""
    brands = world.item_brand[candidates]
    return {
        "item_click_cnt": state.repeat_counts(candidates).astype(float),
        "brand_click_cnt": state.brand_count[brands].astype(float),
        "shop_click_cnt": state.shop_count[world.item_shop[candidates]].astype(float),
        "category_click_cnt": state.category_count[world.item_category[candidates]].astype(float),
        "brand_click_time_diff": state.recency[brands],
        "price_gap": state.price_gap(world, candidates),
    }


class ItemSlab:
    """The candidate-side columns that depend on the item alone, as the
    model reads them, gathered by id at assembly.  :func:`~repro.data.
    synthetic.drift_world` touches none of their sources, so one slab per
    world (``world.item_slab``) serves every model generation."""

    __slots__ = ("target_category", "dense", "features", "table_columns")

    def __init__(self, world: "World") -> None:
        self.target_category = (world.item_category + 1).astype(np.int32)
        self.dense = item_dense(world, slice(None))
        #: Every item's ``other_features`` row with the item-only columns
        #: (price, sales, popularity, quality) filled in, zeros elsewhere.
        self.features = np.zeros((world.num_items, len(FEATURE_NAMES)), dtype=np.float32)
        self.features[:, 4] = world.item_price_pct
        self.features[:, 5] = world.item_sales
        self.features[:, 6] = world.item_popularity
        self.features[:, 7] = world.item_quality
        #: ``(4, items)``: where a :attr:`UserState.table` holds the values
        #: behind each item's ``other_features`` 11..14, in that order.
        brand, shop, category, recency, _ = _table_offsets(world)
        self.table_columns = np.stack(
            [
                brand + world.item_brand,
                shop + world.item_shop,
                category + world.item_category,
                recency + world.item_brand,
            ]
        ).astype(np.int32)


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


def _session_rows(
    world: "World",
    users: Sequence[int],
    categories: Sequence[int],
    behaviors: Sequence[BehaviorEncoding],
    spec: Union[int, np.ndarray],
) -> Batch:
    """The session side of a batch, one row per (user, query category)."""
    category = np.asarray(categories)
    items, item_categories, dense, mask = zip(*behaviors)
    return {
        "behavior_items": np.array(items),
        "behavior_categories": np.array(item_categories),
        "behavior_dense": np.array(dense),
        "behavior_mask": np.array(mask),
        "query": (category * world.config.num_query_specificities + spec + 1).astype(np.int32),
        "query_category": (category + 1).astype(np.int32),
        "session_id": np.zeros(len(users), dtype=np.int64),
        "user_id": np.array(users, dtype=np.int64),
    }


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
    return _session_rows(world, [user], [query_category], [behavior], spec)


#: Where the click counters of ``other_features`` 10..13 saturate; each is
#: divided by its cap (:mod:`repro.retrieval.cascade` clips its boosts alike).
ITEM_CAP, BRAND_CAP, SHOP_CAP, CATEGORY_CAP = 3.0, 5.0, 5.0, 8.0
#: Columns 11..14 as one (4, N) gather; brand recency is already a ratio.
_TABLE_CAPS = np.array([[BRAND_CAP], [SHOP_CAP], [CATEGORY_CAP], [np.inf]], dtype=np.float32)
_TABLE_SCALES = np.array([[BRAND_CAP], [SHOP_CAP], [CATEGORY_CAP], [1]], dtype=np.float32)


def assemble_sessions(
    world: "World",
    states: Sequence[UserState],
    categories: Sequence[int],
    candidate_lists: Sequence[np.ndarray],
    spec: Union[int, Sequence[int]] = 1,
) -> SessionBatch:
    """The feature dump of Fig. 6 for many sessions at once: session ``s``
    scores ``candidate_lists[s]`` for ``states[s]``'s user under query
    category ``categories[s]`` at specificity ``spec`` (one value, or one
    per session).

    The user side comes tabulated in ``states`` and the item side in
    ``world.item_slab``; what is left per (user, item) row is a join —
    gathers into the sessions' stacked tables at per-session offsets — in a
    fixed number of numpy calls however many sessions a flush or a click
    window holds.
    """
    cfg, slab = world.config, world.item_slab
    sessions = np.arange(len(states))
    counts = np.array([len(candidates) for candidates in candidate_lists])
    candidates = np.concatenate(candidate_lists)
    spec = np.broadcast_to(spec, sessions.shape)
    session = _session_rows(
        world,
        [state.user for state in states],
        categories,
        [state.behavior for state in states],
        spec,
    )
    target_category = slab.target_category[candidates]

    tables = np.array([state.table for state in states])
    features = np.take(slab.features, candidates, axis=0)
    features[:, :4] = np.repeat(tables[:, :4], counts, axis=0)
    features[:, 8] = target_category == np.repeat(session["query_category"], counts)
    features[:, 9] = np.repeat(spec / max(cfg.num_query_specificities - 1, 1), counts)
    # Item repeats: one binary search over (session, item) keys.  Every
    # state's ``clicked`` ends in its sentinel, so a key always finds a slot
    # inside its own session's run.
    stride = sessions * (world.num_items + 1)
    clicked = np.concatenate([state.clicked for state in states])
    clicked += np.repeat(stride, [state.clicked.size for state in states])
    repeats = np.concatenate([state.repeats for state in states])
    keys = candidates + np.repeat(stride, counts)
    slot = np.searchsorted(clicked, keys)
    item_repeats = repeats[slot] * (clicked[slot] == keys)
    np.minimum(item_repeats, ITEM_CAP, out=item_repeats)
    np.divide(item_repeats, ITEM_CAP, out=features[:, 10])
    # Brand, shop and category counts and brand recency: one (4, N) gather,
    # columns down the rows so every ufunc loop runs the length of the flush.
    columns = np.take(slab.table_columns, candidates, axis=1)
    values = tables.ravel()[columns + np.repeat(sessions * tables.shape[1], counts)]
    category_old = values[2] > 0
    np.minimum(values, _TABLE_CAPS, out=values)
    np.divide(values, _TABLE_SCALES, out=features.T[11:15])
    mean_price = np.array([state.mean_price for state in states])
    category = world.item_category[candidates] + np.repeat(sessions * cfg.num_categories, counts)
    features[:, 15] = np.where(
        category_old, world.item_price_pct[candidates] - mean_price.ravel()[category], 0.0
    )
    candidate = {
        "target_item": (candidates + 1).astype(np.int32),
        "target_category": target_category,
        "target_dense": np.take(slab.dense, candidates, axis=0),
        "other_features": features,
        "label": np.zeros(candidates.size, dtype=np.float32),
    }
    return SessionBatch(session, candidate, counts)


def assemble_session(
    world: "World",
    user: int,
    query_category: int,
    candidates: np.ndarray,
    spec: int = 1,
    behavior: Optional[BehaviorEncoding] = None,
    state: Optional[UserState] = None,
) -> SessionBatch:
    """Model-ready batch for scoring ``candidates`` against one (user, query):
    :func:`assemble_sessions` for a single session.

    ``state`` accepts the user's precomputed tables (the serving session
    cache stores them); without one, ``behavior`` accepts a precomputed
    encoding for the state built here.
    """
    state = state or UserState(world, user, behavior)
    return assemble_sessions(world, [state], [query_category], [candidates], spec)


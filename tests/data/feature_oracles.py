"""The feature code ``assemble_sessions`` replaced, kept verbatim as oracles.

Until every feature row came from :func:`repro.data.assemble_sessions`, the
offline search log filled ``other_features`` per session through
``impression_features``, and the Amazon split per row through
``_review_features`` / ``_encode_history``.  Those bodies live on here, as
they were, so the tests beside this file can hold the one remaining path to
them bit for bit.  Only the returns differ: each loop hands back a dict of
the 13 :data:`~repro.data.schema.BATCH_KEYS` columns.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.data import UserState, cross_features, encode_behavior, item_dense
from repro.data.schema import FEATURE_NAMES
from repro.data.synthetic import _LABEL_NOISE, _true_logits


def impression_features(
    world,
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


def search_log_loop(
    world,
    num_sessions: int,
    rng: np.random.Generator,
    start_session_id: int = 0,
) -> Dict[str, np.ndarray]:
    """``simulate_search_log`` as it was: features per session, inside the
    RNG loop; ``target_category`` / ``target_dense`` as ``_dataset_from_rows``
    used to derive them from the item ids."""
    cfg = world.config
    n_users = world.num_users
    lengths = np.asarray([len(h) for h in world.histories], dtype=float)
    user_probs = (lengths + 1.0) / (lengths + 1.0).sum()

    n_cats = cfg.num_categories
    by_category = [np.flatnonzero(world.item_category == cat) for cat in range(n_cats)]
    all_items = np.arange(world.num_items)

    rows_session: List[int] = []
    rows_user: List[int] = []
    rows_query: List[int] = []
    rows_query_cat: List[int] = []
    rows_item: List[np.ndarray] = []
    rows_label: List[np.ndarray] = []
    rows_features: List[np.ndarray] = []
    behavior_rows: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    states: Dict[int, UserState] = {}
    feature_count = len(FEATURE_NAMES)

    for s in range(num_sessions):
        user = int(rng.choice(n_users, p=user_probs))
        state = states.get(user)
        if state is None:
            state = UserState(world, user)
            states[user] = state

        # Query: mostly driven by interests, with exploration.
        if rng.random() < 0.7:
            query_cat = int(rng.choice(n_cats, p=world.user_interests[user]))
        else:
            query_cat = int(rng.integers(0, n_cats))
        spec = int(rng.integers(0, cfg.num_query_specificities))
        query_id = query_cat * cfg.num_query_specificities + spec + 1

        # Retrieval: popularity-biased within category, a few off-category.
        members = by_category[query_cat]
        k_in = min(members.size, max(1, int(round(cfg.items_per_session * 0.9))))
        weights = world.item_popularity[members] ** 0.7 + 1e-3
        weights = weights / weights.sum()
        in_cat = rng.choice(members, size=k_in, replace=False, p=weights)
        k_out = cfg.items_per_session - k_in
        if k_out > 0:
            out_cat = rng.choice(all_items, size=k_out, replace=False)
            candidates = np.unique(np.concatenate([in_cat, out_cat]))
        else:
            candidates = np.unique(in_cat)

        cross = cross_features(state, world, candidates)
        logits = _true_logits(world, user, candidates, query_cat, cross)
        logits = logits + rng.normal(0, _LABEL_NOISE, size=logits.size)
        labels = (rng.random(logits.size) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float32)

        features = impression_features(world, user, candidates, query_cat, spec, cross, state)
        assert features.shape[1] == feature_count

        rows_session.append(start_session_id + s)
        rows_user.append(user)
        rows_query.append(query_id)
        rows_query_cat.append(query_cat + 1)
        rows_item.append(candidates + 1)
        rows_label.append(labels)
        rows_features.append(features)
        behavior_rows.append(encode_behavior(world, user, cfg.max_seq_len))

    counts = [len(items) for items in rows_item]
    session_col = np.repeat(np.asarray(rows_session, dtype=np.int64), counts)
    user_col = np.repeat(np.asarray(rows_user, dtype=np.int64), counts)
    query_col = np.repeat(np.asarray(rows_query, dtype=np.int32), counts)
    query_cat_col = np.repeat(np.asarray(rows_query_cat, dtype=np.int32), counts)
    item_col = np.concatenate(rows_item).astype(np.int32)
    label_col = np.concatenate(rows_label).astype(np.float32)
    features_col = np.concatenate(rows_features).astype(np.float32)
    behavior_items = np.repeat(
        np.stack([row[0] for row in behavior_rows]), counts, axis=0
    )
    behavior_cats = np.repeat(
        np.stack([row[1] for row in behavior_rows]), counts, axis=0
    )
    behavior_dense = np.repeat(
        np.stack([row[2] for row in behavior_rows]), counts, axis=0
    )
    behavior_mask = np.repeat(
        np.stack([row[3] for row in behavior_rows]), counts, axis=0
    )

    return {
        "behavior_items": behavior_items,
        "behavior_categories": behavior_cats,
        "behavior_dense": behavior_dense,
        "behavior_mask": behavior_mask,
        "target_item": item_col,
        "target_category": (world.item_category[item_col - 1] + 1).astype(np.int32),
        "target_dense": item_dense(world, item_col - 1),
        "query": query_col,
        "query_category": query_cat_col,
        "other_features": features_col,
        "label": label_col,
        "session_id": session_col,
        "user_id": user_col,
    }


def _review_features(world, user: int, history: np.ndarray, item: int) -> np.ndarray:
    """Dense feature vector for a (user, candidate item) pair.

    Reuses the search-feature layout; query-dependent entries are zero
    because the recommendation scenario has no query.
    """
    features = np.zeros(len(FEATURE_NAMES), dtype=np.float32)
    h = len(history)
    features[0] = np.log1p(h) / np.log1p(world.config.max_seq_len)
    features[1 + world.user_age[user]] = 1.0
    features[4] = world.item_price_pct[item]
    features[5] = world.item_sales[item]
    features[6] = world.item_popularity[item]
    features[7] = world.item_quality[item]
    if h:
        hist_brands = world.item_brand[history]
        hist_shops = world.item_shop[history]
        hist_cats = world.item_category[history]
        features[10] = min(int((history == item).sum()), 3) / 3.0
        features[11] = min(int((hist_brands == world.item_brand[item]).sum()), 5) / 5.0
        features[12] = min(int((hist_shops == world.item_shop[item]).sum()), 5) / 5.0
        cat_hits = hist_cats == world.item_category[item]
        features[13] = min(int(cat_hits.sum()), 8) / 8.0
        brand_positions = np.flatnonzero(hist_brands == world.item_brand[item])
        if brand_positions.size:
            features[14] = (h - 1 - brand_positions[-1]) / max(h, 1)
        else:
            features[14] = 1.0
        if cat_hits.any():
            mean_price = world.item_price_pct[history[cat_hits]].mean()
            features[15] = world.item_price_pct[item] - mean_price
    else:
        features[14] = 1.0
    return features


def _encode_history(
    world, history: np.ndarray, max_len: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    items = np.zeros(max_len, dtype=np.int32)
    cats = np.zeros(max_len, dtype=np.int32)
    dense = np.zeros((max_len, 4), dtype=np.float32)
    mask = np.zeros(max_len, dtype=np.float32)
    recent = history[-max_len:]
    n = len(recent)
    if n:
        items[:n] = recent + 1
        cats[:n] = world.item_category[recent] + 1
        dense[:n] = item_dense(world, recent)
        mask[:n] = 1.0
    return items, cats, dense, mask


def amazon_rows_loop(world, users: np.ndarray, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """``amazon._build_rows`` as it was: one ``_review_features`` call per row."""
    max_len = world.config.max_seq_len
    n_items = world.num_items
    rows: List[Tuple] = []
    for user in users:
        history = world.histories[user]
        if len(history) < 2:
            continue  # need at least one behaviour plus the held-out review
        target_pos = int(history[-1])
        prefix = history[:-1]
        negative = int(rng.integers(0, n_items))
        while negative == target_pos:
            negative = int(rng.integers(0, n_items))
        encoded = _encode_history(world, prefix, max_len)
        for item, label in ((target_pos, 1.0), (negative, 0.0)):
            rows.append((user, item, label, encoded))
    if not rows:
        raise ValueError("no users with enough history; increase world size")

    count = len(rows)
    behavior_items = np.stack([r[3][0] for r in rows])
    behavior_cats = np.stack([r[3][1] for r in rows])
    behavior_dense = np.stack([r[3][2] for r in rows])
    behavior_mask = np.stack([r[3][3] for r in rows])
    user_col = np.asarray([r[0] for r in rows], dtype=np.int64)
    item_col = np.asarray([r[1] for r in rows], dtype=np.int64)
    label_col = np.asarray([r[2] for r in rows], dtype=np.float32)
    features = np.stack(
        [
            _review_features(world, int(r[0]), world.histories[int(r[0])][:-1], int(r[1]))
            for r in rows
        ]
    ).astype(np.float32)

    return {
        "behavior_items": behavior_items,
        "behavior_categories": behavior_cats,
        "behavior_dense": behavior_dense,
        "behavior_mask": behavior_mask,
        "target_item": (item_col + 1).astype(np.int32),
        "target_category": (world.item_category[item_col] + 1).astype(np.int32),
        "target_dense": item_dense(world, item_col),
        "query": np.zeros(count, dtype=np.int32),
        "query_category": np.zeros(count, dtype=np.int32),
        "other_features": features,
        "label": label_col,
        "session_id": user_col.copy(),
        "user_id": user_col,
    }

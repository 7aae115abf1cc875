"""Flush-level assembly is the old per-candidate feature code, bit for bit.

The reference here is the pre-table implementation kept verbatim: four
``(C, H)`` comparisons per (user, candidates) pair, ``impression_features``
(kept in ``feature_oracles``) on their sums, one session at a time, joined
by ``SessionBatch.concat``.  ``UserState``'s tables, ``cross_features``'
gathers and ``assemble_sessions``' stacked joins must reproduce its every
key, dtype and bit.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    SessionBatch,
    UserState,
    WorldConfig,
    assemble_session,
    assemble_sessions,
    cross_features,
    encode_behavior,
    generate_world,
    item_dense,
    session_side,
)

from feature_oracles import impression_features

#: More repeats of one item than ``item_click_cnt``'s cap of 3.
REPEATS = 5


@lru_cache(maxsize=None)
def _world(name):
    """``(world, users)``: ``users`` lists an empty-history user, a user
    whose history clicks one item ``REPEATS`` times, then everyone."""
    config = {
        "unit": WorldConfig.unit(),
        "small": WorldConfig.small(),
        "large-catalog": replace(WorldConfig.large_catalog(12_000, 3), num_users=300),
    }[name]
    world = generate_world(config, np.random.default_rng(5))
    empty = next(u for u in range(world.num_users) if world.history_length(u) == 0)
    fan = next(u for u in range(world.num_users) if world.history_length(u) >= REPEATS + 2)
    history = world.histories[fan].copy()
    history[1 : 1 + REPEATS] = history[0]
    world.histories[fan] = history
    return world, [empty, fan, *range(world.num_users)]


def _reference_cross(world, user, candidates):
    """``cross_features`` as it was: (C, H) comparisons against the history."""
    history = world.histories[user]
    c, h = candidates.size, len(history)
    if h == 0:
        zero = np.zeros(c)
        return {
            "item_click_cnt": zero, "brand_click_cnt": zero, "shop_click_cnt": zero,
            "category_click_cnt": zero, "brand_click_time_diff": np.ones(c), "price_gap": zero,
        }
    item_hits = history[None, :] == candidates[:, None]
    brand_hits = world.item_brand[history][None, :] == world.item_brand[candidates][:, None]
    shop_hits = world.item_shop[history][None, :] == world.item_shop[candidates][:, None]
    cat_hits = world.item_category[history][None, :] == world.item_category[candidates][:, None]
    last_brand_pos = np.where(
        brand_hits.any(axis=1), (brand_hits * (np.arange(h) + 1)).max(axis=1) - 1, -1
    )
    cat_counts = cat_hits.sum(axis=1)
    mean_cat_price = np.where(
        cat_counts > 0,
        (cat_hits * world.item_price_pct[history][None, :]).sum(axis=1)
        / np.maximum(cat_counts, 1),
        0.0,
    )
    return {
        "item_click_cnt": item_hits.sum(axis=1).astype(float),
        "brand_click_cnt": brand_hits.sum(axis=1).astype(float),
        "shop_click_cnt": shop_hits.sum(axis=1).astype(float),
        "category_click_cnt": cat_counts.astype(float),
        "brand_click_time_diff": np.where(
            last_brand_pos >= 0, (h - 1 - last_brand_pos) / max(h, 1), 1.0
        ),
        "price_gap": np.where(
            cat_counts > 0, world.item_price_pct[candidates] - mean_cat_price, 0.0
        ),
    }


def _reference_session(world, user, category, candidates, spec=1):
    """``assemble_session`` as it was, on the reference cross features."""
    cross = _reference_cross(world, user, candidates)
    features = impression_features(
        world, user, candidates, category, spec, cross, UserState(world, user)
    )
    behavior = encode_behavior(world, user, world.config.max_seq_len)
    candidate = {
        "target_item": (candidates + 1).astype(np.int32),
        "target_category": (world.item_category[candidates] + 1).astype(np.int32),
        "target_dense": item_dense(world, candidates),
        "other_features": features.astype(np.float32),
        "label": np.zeros(candidates.size, dtype=np.float32),
    }
    return SessionBatch(
        session_side(world, user, category, spec, behavior=behavior), candidate, [candidates.size]
    )


def _assert_bitwise(got, want):
    np.testing.assert_array_equal(got.counts, want.counts)
    for side in ("session", "candidate"):
        got_side, want_side = getattr(got, side), getattr(want, side)
        assert list(got_side) == list(want_side)
        for key, rows in want_side.items():
            assert got_side[key].dtype == rows.dtype, key
            assert got_side[key].shape == rows.shape, key
            assert got_side[key].tobytes() == rows.tobytes(), key


@st.composite
def _flushes(draw, name):
    """A ragged flush: per session a user, a query category and 1..14
    candidates drawn from the user's own history (repeats past the cap
    included), the query category, and anywhere (off-category)."""
    world, users = _world(name)
    sessions = []
    for _ in range(draw(st.integers(1, 6))):
        user = users[draw(st.integers(0, len(users) - 1))]
        category = draw(st.integers(0, world.num_categories - 1))
        members = np.flatnonzero(world.item_category == category)
        pools = [members, np.arange(world.num_items)]
        if world.history_length(user):
            pools.append(world.histories[user])
        candidates = [
            int(pool[draw(st.integers(0, len(pool) - 1))])
            for pool in draw(st.lists(st.sampled_from(pools), min_size=1, max_size=14))
        ]
        sessions.append((user, category, np.unique(candidates)))
    return sessions


@pytest.mark.parametrize("name", ["unit", "small", "large-catalog"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flush_level_assembly_is_the_per_session_concat(name, data):
    world, _ = _world(name)
    sessions = data.draw(_flushes(name))
    want = SessionBatch.concat([_reference_session(world, *session) for session in sessions])
    states = [UserState(world, user) for user, _, _ in sessions]
    got = assemble_sessions(
        world, states, [c for _, c, _ in sessions], [items for _, _, items in sessions]
    )
    _assert_bitwise(got, want)
    _assert_bitwise(
        SessionBatch.concat([assemble_session(world, *session) for session in sessions]), want
    )


@pytest.mark.parametrize("name", ["unit", "small", "large-catalog"])
def test_the_named_corners(name):
    """S = 1, a one-candidate session, the empty-history user, a candidate
    clicked past the cap, and off-category candidates, each also as part of
    one ragged flush."""
    world, (empty, fan, *_) = _world(name)
    favourite = world.histories[fan][0]
    assert (world.histories[fan] == favourite).sum() > 3
    off_category = np.flatnonzero(world.item_category != 1)[:5]
    sessions = [
        (fan, int(world.item_category[favourite]), np.array([favourite])),
        (empty, 1, off_category),
        (fan, 1, np.unique(np.concatenate([world.histories[fan], off_category]))),
    ]
    for session in sessions:
        got = assemble_session(world, *session)
        _assert_bitwise(got, _reference_session(world, *session))
    capped = assemble_session(world, *sessions[0])["other_features"][0, 10]
    assert capped == 1.0
    got = assemble_sessions(
        world, [UserState(world, u) for u, _, _ in sessions],
        [c for _, c, _ in sessions], [items for _, _, items in sessions],
    )
    _assert_bitwise(got, SessionBatch.concat([_reference_session(world, *s) for s in sessions]))


@pytest.mark.parametrize("name", ["unit", "small", "large-catalog"])
def test_per_session_spec_is_the_scalar_spec_concat(name):
    """``spec`` as one value per session (how the offline log calls it)
    equals one scalar-``spec`` call per session, and the reference."""
    world, (empty, fan, *others) = _world(name)
    rng = np.random.default_rng(11)
    levels = world.config.num_query_specificities
    users = [empty, fan, *others[: 2 * levels]]
    sessions = [
        (user, int(rng.integers(world.num_categories)),
         np.unique(rng.choice(world.num_items, size=int(rng.integers(1, 14)))))
        for user in users
    ]
    specs = np.arange(len(sessions)) % levels
    assert set(specs) == set(range(levels))
    states = [UserState(world, user) for user, _, _ in sessions]
    got = assemble_sessions(
        world, states, [c for _, c, _ in sessions], [items for _, _, items in sessions], specs
    )
    per_session = SessionBatch.concat(
        [
            assemble_sessions(world, [state], [category], [items], int(spec))
            for state, (_, category, items), spec in zip(states, sessions, specs)
        ]
    )
    _assert_bitwise(got, per_session)
    reference = [
        _reference_session(world, *session, int(spec)) for session, spec in zip(sessions, specs)
    ]
    _assert_bitwise(got, SessionBatch.concat(reference))
    # A plain list of specs is the same call.
    _assert_bitwise(
        assemble_sessions(
            world, states, [c for _, c, _ in sessions],
            [items for _, _, items in sessions], specs.tolist(),
        ),
        got,
    )


@pytest.mark.parametrize("name", ["unit", "small", "large-catalog"])
def test_cross_features_gathers_are_the_comparisons(name):
    world, users = _world(name)
    rng = np.random.default_rng(3)
    for user in users[:40]:
        candidates = rng.choice(world.num_items, size=30, replace=False)
        history = world.histories[user]
        candidates[: min(len(history), 6)] = history[: min(len(history), 6)]
        got = cross_features(UserState(world, user), world, candidates)
        want = _reference_cross(world, user, candidates)
        assert list(got) == list(want)
        for key, values in want.items():
            assert got[key].dtype == values.dtype == np.float64, key
            assert got[key].tobytes() == values.tobytes(), key

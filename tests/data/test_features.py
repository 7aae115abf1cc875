"""Public feature-assembly API (``repro.data.features``)."""

import numpy as np
import pytest

from repro.data import (
    SessionBatch,
    UserState,
    assemble_session,
    cross_features,
    encode_behavior,
    item_dense,
    session_side,
)
from repro.data.schema import BATCH_KEYS, FEATURE_NAMES, concat_batches, validate_batch

from feature_oracles import impression_features


def _active_user(world):
    for user in range(world.num_users):
        if len(world.histories[user]) >= 3:
            return user
    raise AssertionError("no active user in unit world")


class TestUserState:
    def test_caches_history_arrays(self, unit_world):
        user = _active_user(unit_world)
        state = UserState(unit_world, user)
        history = unit_world.histories[user]
        assert state.length == len(history)
        np.testing.assert_array_equal(state.categories, unit_world.item_category[history])
        np.testing.assert_array_equal(state.brands, unit_world.item_brand[history])

    def test_empty_history(self, unit_world):
        empties = [u for u in range(unit_world.num_users) if len(unit_world.histories[u]) == 0]
        assert empties, "unit world should contain new users"
        state = UserState(unit_world, empties[0])
        assert state.length == 0


class TestCrossFeatures:
    def test_keys_and_shapes(self, unit_world):
        user = _active_user(unit_world)
        state = UserState(unit_world, user)
        candidates = np.arange(5)
        cross = cross_features(state, unit_world, candidates)
        for key, values in cross.items():
            assert values.shape == (5,), key

    def test_empty_history_defaults(self, unit_world):
        empties = [u for u in range(unit_world.num_users) if len(unit_world.histories[u]) == 0]
        state = UserState(unit_world, empties[0])
        cross = cross_features(state, unit_world, np.arange(4))
        assert np.all(cross["item_click_cnt"] == 0)
        assert np.all(cross["brand_click_time_diff"] == 1.0)

    def test_item_click_counts_history(self, unit_world):
        user = _active_user(unit_world)
        state = UserState(unit_world, user)
        seen = unit_world.histories[user][0]
        cross = cross_features(state, unit_world, np.array([seen]))
        assert cross["item_click_cnt"][0] >= 1


class TestEncodeBehavior:
    def test_padding_and_mask(self, unit_world):
        user = _active_user(unit_world)
        max_len = unit_world.config.max_seq_len
        items, cats, dense, mask = encode_behavior(unit_world, user, max_len)
        n = min(len(unit_world.histories[user]), max_len)
        assert items.shape == (max_len,)
        assert dense.shape == (max_len, 4)
        assert mask.sum() == n
        assert np.all(items[n:] == 0)

    def test_item_dense_columns(self, unit_world):
        dense = item_dense(unit_world, np.arange(3))
        np.testing.assert_allclose(dense[:, 0], unit_world.item_price_pct[:3], rtol=1e-6)
        np.testing.assert_allclose(dense[:, 3], unit_world.item_style[:3], rtol=1e-6)


class TestAssembleCandidateBatch:
    def test_batch_is_valid(self, unit_world):
        user = _active_user(unit_world)
        candidates = np.arange(6)
        batch = assemble_session(unit_world, user, 1, candidates).flat()
        validate_batch(batch)
        assert batch["label"].shape == (6,)
        np.testing.assert_array_equal(batch["target_item"], candidates + 1)

    def test_precomputed_behavior_identical(self, unit_world):
        """The cached-behaviour path must not change a single byte."""
        user = _active_user(unit_world)
        candidates = np.arange(4)
        fresh = assemble_session(unit_world, user, 2, candidates).flat()
        behavior = encode_behavior(unit_world, user, unit_world.config.max_seq_len)
        cached = assemble_session(unit_world, user, 2, candidates, behavior=behavior).flat()
        for key in fresh:
            np.testing.assert_array_equal(fresh[key], cached[key], err_msg=key)

    def test_matches_simulated_log_features(self, unit_world):
        """Serving-side assembly equals the offline generator's features."""
        user = _active_user(unit_world)
        state = UserState(unit_world, user)
        candidates = np.arange(5)
        cross = cross_features(state, unit_world, candidates)
        features = impression_features(unit_world, user, candidates, 1, 1, cross, state)
        batch = assemble_session(unit_world, user, 1, candidates, spec=1).flat()
        np.testing.assert_array_equal(batch["other_features"], features.astype(np.float32))
        assert features.shape[1] == len(FEATURE_NAMES)

    def test_offline_generator_uses_same_implementation(self):
        """The synthetic log generator and the Amazon split label with
        ``cross_features`` and featurize through ``assemble_sessions`` — the
        function a flush calls — and carry no feature code of their own."""
        import repro.data.amazon as amazon
        import repro.data.synthetic as synthetic
        from repro.data import assemble_sessions

        assert synthetic.cross_features is cross_features
        assert synthetic.assemble_sessions is assemble_sessions
        assert amazon.assemble_sessions is assemble_sessions
        for module in (synthetic, amazon):
            for gone in ("impression_features", "encode_behavior", "item_dense", "FEATURE_NAMES"):
                assert not hasattr(module, gone), (module.__name__, gone)


def _tiled_batch(world, user, query_category, candidates, spec=1):
    """Per-candidate assembly as it was before batches were factored by
    session: the session side ``np.tile``d across every candidate row."""
    state = UserState(world, user)
    cross = cross_features(state, world, candidates)
    features = impression_features(world, user, candidates, query_category, spec, cross, state)
    items, cats, dense, mask = encode_behavior(world, user, world.config.max_seq_len)
    count = candidates.size
    query_id = query_category * world.config.num_query_specificities + spec + 1
    return {
        "behavior_items": np.tile(items, (count, 1)),
        "behavior_categories": np.tile(cats, (count, 1)),
        "behavior_dense": np.tile(dense, (count, 1, 1)),
        "behavior_mask": np.tile(mask, (count, 1)),
        "target_item": (candidates + 1).astype(np.int32),
        "target_category": (world.item_category[candidates] + 1).astype(np.int32),
        "target_dense": item_dense(world, candidates),
        "query": np.full(count, query_id, dtype=np.int32),
        "query_category": np.full(count, query_category + 1, dtype=np.int32),
        "other_features": features.astype(np.float32),
        "label": np.zeros(count, dtype=np.float32),
        "session_id": np.zeros(count, dtype=np.int64),
        "user_id": np.full(count, user, dtype=np.int64),
    }


def _assert_batches_identical(got, want):
    assert set(got) == set(want) == set(BATCH_KEYS)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


class TestSessionBatch:
    #: (user offset, category, candidates): unequal counts, a one-candidate
    #: session, and (below) an empty-history user.
    QUERIES = [(0, 1, np.arange(6)), (1, 2, np.array([9])), (2, 0, np.arange(3, 7))]

    def _sessions(self, world):
        empty = next(u for u in range(world.num_users) if len(world.histories[u]) == 0)
        users = [_active_user(world), empty, _active_user(world) + 1]
        return [(users[i], category, candidates) for i, category, candidates in self.QUERIES]

    def test_flat_is_the_tiled_batch_bit_for_bit(self, unit_world):
        for user, category, candidates in self._sessions(unit_world):
            want = _tiled_batch(unit_world, user, category, candidates)
            _assert_batches_identical(
                assemble_session(unit_world, user, category, candidates).flat(), want
            )

    def test_concat_flat_is_the_concatenated_per_query_batches(self, unit_world):
        sessions = self._sessions(unit_world)
        combined = SessionBatch.concat([assemble_session(unit_world, *q) for q in sessions])
        tiled = [_tiled_batch(unit_world, *q) for q in sessions]
        want = {key: np.concatenate([b[key] for b in tiled], axis=0) for key in tiled[0]}
        _assert_batches_identical(combined.flat(), want)
        assert combined.num_sessions == 3 and combined.num_rows == 11
        assert combined.bounds == [0, 6, 7, 11]
        np.testing.assert_array_equal(combined.counts, [6, 1, 4])

    def test_indexing_returns_the_side_that_holds_the_key(self, unit_world):
        batch = SessionBatch.concat([assemble_session(unit_world, *q) for q in self._sessions(unit_world)])
        assert batch["behavior_items"].shape[0] == batch["query"].shape[0] == 3
        assert batch["target_item"].shape[0] == batch["other_features"].shape[0] == 11
        assert "behavior_mask" in batch and "label" in batch and "nope" not in batch

    def test_session_side_alone_matches_the_full_assembly(self, unit_world):
        user = _active_user(unit_world)
        alone = session_side(unit_world, user, 2)
        full = assemble_session(unit_world, user, 2, np.arange(4)).session
        assert set(alone) == set(full)
        for key in full:
            np.testing.assert_array_equal(alone[key], full[key], err_msg=key)

    def test_expand_repeats_per_session_rows_only(self, unit_world):
        batch = SessionBatch.concat([assemble_session(unit_world, *q) for q in self._sessions(unit_world)])
        gates = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(batch.expand(gates), np.repeat(gates, [6, 1, 4], axis=0))
        per_row = np.zeros((11, 2))
        assert batch.expand(per_row) is per_row

    def test_flat_validates_and_leading_dims_match_counts(self, unit_world):
        batch = assemble_session(unit_world, _active_user(unit_world), 1, np.arange(5))
        validate_batch(batch.flat())
        assert all(rows.shape[0] == batch.num_sessions == 1 for rows in batch.session.values())
        assert all(rows.shape[0] == batch.num_rows == 5 for rows in batch.candidate.values())

    def test_a_session_without_candidates_is_rejected(self, unit_world):
        batch = assemble_session(unit_world, _active_user(unit_world), 1, np.arange(5))
        with pytest.raises(ValueError, match="at least one candidate"):
            SessionBatch(
                concat_batches([batch.session, batch.session]), batch.candidate, np.array([5, 0])
            )
    def test_blocks_are_maximal_runs_of_whole_sessions(self):
        """``blocks(max_rows)`` cuts the batch in order into runs of whole
        sessions: each at most ``max_rows`` rows unless it is one larger
        session, and each as long as the next session allows."""
        rng = np.random.default_rng(0)
        for max_rows in (1, 4, 6, 25):
            counts = rng.integers(1, 10, size=30)
            batch = SessionBatch(
                {"query": np.arange(30)}, {"label": np.arange(int(counts.sum()))}, counts
            )
            blocks = list(batch.blocks(max_rows))
            assert np.array_equal(np.concatenate([b["query"] for b in blocks]), np.arange(30))
            assert np.array_equal(
                np.concatenate([b["label"] for b in blocks]), np.arange(counts.sum())
            )
            taken = 0
            for block in blocks:
                taken += block.num_sessions
                assert block.num_rows <= max_rows or block.num_sessions == 1
                if taken < 30:
                    assert block.num_rows + counts[taken] > max_rows
        with pytest.raises(ValueError, match="max_rows"):
            next(batch.blocks(0))

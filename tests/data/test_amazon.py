"""Amazon-protocol invariants (leave-one-out, 1:1, 90/10 user split)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import UserState, WorldConfig, assemble_session, generate_world
from repro.data.amazon import _build_rows, amazon_meta, make_amazon_datasets
from repro.data.schema import BATCH_KEYS, FEATURE_NAMES

from feature_oracles import _review_features, amazon_rows_loop


@pytest.fixture(scope="module")
def amazon():
    return make_amazon_datasets(WorldConfig.unit(), seed=13)


class TestProtocol:
    def test_reco_meta(self, amazon):
        _, train, test = amazon
        assert train.meta.task == "reco"
        assert train.meta.num_queries == 1

    def test_one_to_one_labels(self, amazon):
        _, train, test = amazon
        assert train.label.mean() == pytest.approx(0.5)
        assert test.label.mean() == pytest.approx(0.5)

    def test_user_split_disjoint(self, amazon):
        _, train, test = amazon
        assert not set(np.unique(train.user_id)) & set(np.unique(test.user_id))

    def test_split_fraction(self, amazon):
        world, train, test = amazon
        train_users = np.unique(train.user_id).size
        test_users = np.unique(test.user_id).size
        fraction = train_users / (train_users + test_users)
        assert fraction == pytest.approx(0.9, abs=0.05)

    def test_positive_is_last_history_item(self, amazon):
        world, train, _ = amazon
        positives = train.label == 1
        users = train.user_id[positives]
        items = train.target_item[positives] - 1
        for user, item in zip(users[:50], items[:50]):
            assert world.histories[user][-1] == item

    def test_history_excludes_held_out_item_position(self, amazon):
        world, train, _ = amazon
        lengths = train.behavior_lengths()
        for i in range(min(50, len(train))):
            user = train.user_id[i]
            full = len(world.histories[user])
            assert lengths[i] == min(full - 1, world.config.max_seq_len)

    def test_negative_differs_from_positive(self, amazon):
        _, train, _ = amazon
        # rows alternate (positive, negative) per user by construction
        pos_items = train.target_item[train.label == 1]
        neg_items = train.target_item[train.label == 0]
        assert np.all(pos_items != neg_items)

    def test_no_query_ids(self, amazon):
        _, train, test = amazon
        assert train.query.max() == 0
        assert test.query.max() == 0

    def test_session_is_user(self, amazon):
        _, train, _ = amazon
        assert np.array_equal(train.session_id, train.user_id)

    def test_determinism(self):
        _, a, _ = make_amazon_datasets(WorldConfig.unit(), seed=13)
        _, b, _ = make_amazon_datasets(WorldConfig.unit(), seed=13)
        assert np.array_equal(a.target_item, b.target_item)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_amazon_datasets(WorldConfig.unit(), seed=1, train_fraction=1.0)


class TestRowsAreTheServingAssembly:
    """Rows come from one ``assemble_sessions`` call over the world cut
    before each held-out review; the per-row ``_review_features`` /
    ``_encode_history`` loop it replaced is the oracle."""

    GAP = FEATURE_NAMES.index("price_gap")

    @staticmethod
    def _world(config, seed):
        """A world where user 0's history is one review (an empty prefix: no
        row), user 1's is two (a one-item prefix) and user 2 reviewed the
        held-out item four times before (past ``item_click_cnt``'s cap)."""
        world = generate_world(config, np.random.default_rng(seed))
        donor = next(h for h in world.histories if len(h) >= 6)
        world.histories[0] = donor[:1].copy()
        world.histories[1] = donor[:2].copy()
        world.histories[2] = np.concatenate([np.repeat(donor[-1], 4), donor])
        return world

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "config", [WorldConfig.unit(), WorldConfig.small()], ids=["unit", "small"]
    )
    def test_every_column_is_the_per_row_loop(self, config, seed):
        world = self._world(config, seed)
        users = np.random.default_rng(seed).permutation(world.num_users)
        got = _build_rows(world, users, np.random.default_rng(seed + 5), amazon_meta(world))
        want = amazon_rows_loop(world, users, np.random.default_rng(seed + 5))
        assert list(want) == list(BATCH_KEYS)
        exact = np.arange(len(FEATURE_NAMES)) != self.GAP
        for key, column in want.items():
            rows = getattr(got, key)
            assert rows.dtype == column.dtype, key
            assert rows.shape == column.shape, key
            if key == "other_features":
                assert rows[:, exact].tobytes() == column[:, exact].tobytes()
                # ``price_gap`` subtracts a mean the tables take as a masked
                # (categories, H) sum and the loop as ``.mean()``: same
                # float64 value up to summation order.
                np.testing.assert_allclose(
                    rows[:, self.GAP], column[:, self.GAP], rtol=0, atol=1e-12
                )
            else:
                assert rows.tobytes() == column.tobytes(), key
        assert 0 not in got.user_id and 1 in got.user_id
        repeated = got.other_features[(got.user_id == 2) & (got.label == 1)]
        assert repeated[0, FEATURE_NAMES.index("item_click_cnt")] == 1.0

    def test_empty_prefix_features(self):
        """The protocol skips a one-review user, so the loop's ``h == 0``
        branch never yields a row; the no-query encoding (category -1,
        ``spec=0``) still matches it there."""
        world = self._world(WorldConfig.unit(), 3)
        before = replace(world, histories=[history[:-1] for history in world.histories])
        assert UserState(before, 0).length == 0
        items = np.array([int(world.histories[0][-1]), 5])
        got = assemble_session(before, 0, -1, items, spec=0)
        want = np.stack([_review_features(world, 0, before.histories[0], item) for item in items])
        assert got["other_features"].tobytes() == want.tobytes()
        assert got["query_category"].tolist() == [0]

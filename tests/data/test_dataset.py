"""RankingDataset container and batch iteration."""

import numpy as np
import pytest

from repro.data import RankingDataset, iterate_batches
from repro.data.schema import BATCH_KEYS, validate_batch


class TestDatasetShape:
    def test_length(self, test_set):
        assert len(test_set) == len(test_set.label)

    def test_columns_consistent(self, test_set):
        assert test_set.behavior_items.shape == test_set.behavior_mask.shape
        assert test_set.other_features.shape[0] == len(test_set)
        assert test_set.behavior_dense.shape[:2] == test_set.behavior_items.shape

    def test_mismatched_columns_rejected(self, test_set):
        with pytest.raises(ValueError):
            RankingDataset(
                behavior_items=test_set.behavior_items,
                behavior_categories=test_set.behavior_categories,
                behavior_dense=test_set.behavior_dense,
                behavior_mask=test_set.behavior_mask,
                target_item=test_set.target_item[:-1],
                target_category=test_set.target_category,
                target_dense=test_set.target_dense,
                query=test_set.query,
                query_category=test_set.query_category,
                other_features=test_set.other_features,
                label=test_set.label,
                session_id=test_set.session_id,
                user_id=test_set.user_id,
                meta=test_set.meta,
            )


    @pytest.mark.parametrize("name", BATCH_KEYS)
    def test_any_mismatched_column_rejected(self, test_set, name):
        columns = test_set.batch_at(np.arange(len(test_set)))
        columns[name] = columns[name][:-1]
        with pytest.raises(ValueError):
            RankingDataset(meta=test_set.meta, **columns)

    def test_batch_and_subset_carry_exactly_the_schema(self, test_set):
        idx = np.array([3, 0, 3])
        batch = test_set.batch_at(idx)
        assert tuple(batch) == BATCH_KEYS
        sub = test_set.subset(idx)
        assert set(vars(sub)) == {*BATCH_KEYS, "meta"}
        for name in BATCH_KEYS:
            want = getattr(test_set, name)[idx]
            np.testing.assert_array_equal(batch[name], want, err_msg=name)
            np.testing.assert_array_equal(getattr(sub, name), want, err_msg=name)
            assert batch[name].dtype == want.dtype


class TestSubset:
    def test_subset_selects_rows(self, test_set):
        idx = np.array([0, 5, 7])
        sub = test_set.subset(idx)
        assert len(sub) == 3
        assert np.allclose(sub.label, test_set.label[idx])

    def test_subset_by_mask_via_flatnonzero(self, test_set):
        positives = test_set.subset(np.flatnonzero(test_set.label == 1))
        assert positives.label.min() == 1.0

    def test_subset_keeps_meta(self, test_set):
        sub = test_set.subset(np.array([0]))
        assert sub.meta is test_set.meta


class TestStatistics:
    def test_session_and_user_counts_positive(self, test_set):
        assert test_set.num_sessions() > 0
        assert test_set.num_users() > 0
        assert test_set.num_users() <= test_set.num_sessions() * 2

    def test_pos_neg_counts_sum(self, test_set):
        assert test_set.positive_count() + test_set.negative_count() == len(test_set)

    def test_pos_neg_ratio(self, test_set):
        expected = test_set.negative_count() / test_set.positive_count()
        assert test_set.pos_neg_ratio() == pytest.approx(expected)

    def test_examples_per_session(self, test_set):
        expected = len(test_set) / test_set.num_sessions()
        assert test_set.examples_per_session() == pytest.approx(expected)

    def test_behavior_lengths_match_mask(self, test_set):
        lengths = test_set.behavior_lengths()
        assert np.all(lengths == test_set.behavior_mask.sum(axis=1))

    def test_num_queries_excludes_padding(self, test_set):
        assert test_set.num_queries() > 0
        assert 0 not in np.unique(test_set.query[test_set.query > 0])


class TestIteration:
    def test_batches_cover_dataset(self, test_set):
        total = sum(len(b["label"]) for b in iterate_batches(test_set, 64))
        assert total == len(test_set)

    def test_batches_validate(self, test_set):
        for batch in iterate_batches(test_set, 32):
            validate_batch(batch)
            break

    def test_drop_last(self, test_set):
        size = 64
        batches = list(iterate_batches(test_set, size, drop_last=True))
        assert all(len(b["label"]) == size for b in batches)

    def test_shuffle_changes_order(self, test_set):
        plain = next(iter(iterate_batches(test_set, 32)))
        shuffled = next(iter(iterate_batches(test_set, 32, rng=np.random.default_rng(0))))
        assert not np.array_equal(plain["target_item"], shuffled["target_item"])

    def test_shuffle_deterministic_by_seed(self, test_set):
        a = next(iter(iterate_batches(test_set, 32, rng=np.random.default_rng(5))))
        b = next(iter(iterate_batches(test_set, 32, rng=np.random.default_rng(5))))
        assert np.array_equal(a["target_item"], b["target_item"])

    def test_invalid_batch_size(self, test_set):
        with pytest.raises(ValueError):
            next(iterate_batches(test_set, 0))

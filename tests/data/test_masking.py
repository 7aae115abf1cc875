"""Augmentations for contrastive learning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.masking import (
    augment_mask,
    random_crop,
    random_mask,
    random_reorder,
    sample_in_batch_negatives,
)

settings.register_profile("ci", deadline=None, max_examples=30)
settings.load_profile("ci")


def _mask(rows=4, cols=8, valid=6):
    mask = np.zeros((rows, cols), dtype=np.float32)
    mask[:, :valid] = 1.0
    return mask


class TestRandomMask:
    def test_only_removes_never_adds(self):
        mask = _mask()
        out = random_mask(mask, np.random.default_rng(0), 0.5)
        assert np.all(out <= mask)

    def test_zero_probability_is_identity(self):
        mask = _mask()
        out = random_mask(mask, np.random.default_rng(0), 0.0)
        assert np.array_equal(out, mask)

    def test_probability_one_empties(self):
        out = random_mask(_mask(), np.random.default_rng(0), 1.0)
        assert out.sum() == 0

    def test_expected_removal_rate(self):
        mask = np.ones((200, 50), dtype=np.float32)
        out = random_mask(mask, np.random.default_rng(0), 0.3)
        assert out.mean() == pytest.approx(0.7, abs=0.02)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_mask(_mask(), np.random.default_rng(0), 1.5)

    @given(st.floats(0.0, 1.0))
    def test_output_binary(self, p):
        out = random_mask(_mask(), np.random.default_rng(1), p)
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestRandomCrop:
    def test_crop_is_contiguous_over_valid_positions(self):
        mask = _mask(rows=1, cols=10, valid=8)
        out = random_crop(mask, np.random.default_rng(0), ratio=0.5)
        kept = np.flatnonzero(out[0] > 0)
        assert kept.size == 4
        assert np.all(np.diff(kept) == 1)

    def test_ratio_one_keeps_everything(self):
        mask = _mask()
        out = random_crop(mask, np.random.default_rng(0), ratio=1.0)
        assert np.array_equal(out, mask)

    def test_empty_rows_stay_empty(self):
        mask = np.zeros((2, 5), dtype=np.float32)
        out = random_crop(mask, np.random.default_rng(0), ratio=0.5)
        assert out.sum() == 0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            random_crop(_mask(), np.random.default_rng(0), ratio=0.0)

    def test_keeps_at_least_one(self):
        mask = _mask(rows=1, cols=5, valid=2)
        out = random_crop(mask, np.random.default_rng(0), ratio=0.1)
        assert out.sum() >= 1


class TestRandomReorder:
    def test_preserves_multiset(self):
        items = np.arange(1, 9).reshape(1, 8).astype(np.int32)
        cats = items + 100
        mask = np.ones((1, 8), dtype=np.float32)
        new_items, new_cats = random_reorder([items, cats], mask, np.random.default_rng(0), p=1.0)
        assert sorted(new_items[0]) == sorted(items[0])
        assert sorted(new_cats[0]) == sorted(cats[0])

    def test_items_and_categories_move_together(self):
        items = np.arange(1, 9).reshape(1, 8).astype(np.int32)
        cats = items * 10
        mask = np.ones((1, 8), dtype=np.float32)
        new_items, new_cats = random_reorder([items, cats], mask, np.random.default_rng(0), p=1.0)
        assert np.array_equal(new_cats, new_items * 10)

    def test_does_not_mutate_inputs(self):
        items = np.arange(1, 9).reshape(1, 8).astype(np.int32)
        original = items.copy()
        random_reorder([items, items + 1], np.ones((1, 8), dtype=np.float32), np.random.default_rng(0), p=1.0)
        assert np.array_equal(items, original)

    def test_padded_positions_untouched(self):
        items = np.arange(1, 9).reshape(1, 8).astype(np.int32)
        mask = _mask(rows=1, cols=8, valid=4)
        new_items, _ = random_reorder([items, items.copy()], mask, np.random.default_rng(0), p=1.0)
        assert np.array_equal(new_items[0, 4:], items[0, 4:])


class TestAugmentDispatch:
    def test_mask_strategy(self, test_set):
        batch = test_set.batch_at(np.arange(8))
        out = augment_mask(batch, np.random.default_rng(0), "mask", 0.5)
        assert out.shape == batch["behavior_mask"].shape
        assert np.all(out <= batch["behavior_mask"])

    def test_crop_strategy(self, test_set):
        batch = test_set.batch_at(np.arange(8))
        out = augment_mask(batch, np.random.default_rng(0), "crop", 0.5)
        assert np.all(out <= batch["behavior_mask"])

    def test_reorder_strategy_returns_original_mask(self, test_set):
        batch = test_set.batch_at(np.arange(8))
        original_mask = batch["behavior_mask"].copy()
        out = augment_mask(batch, np.random.default_rng(0), "reorder", 0.5)
        assert np.array_equal(out, original_mask)

    def test_reorder_moves_whole_positions(self, test_set):
        """Each position's id, category and dense profile move together:
        every row keeps its multiset of (id, category, dense) positions."""
        batch = test_set.batch_at(np.arange(8))
        keys = ("behavior_items", "behavior_categories", "behavior_dense")
        before = [batch[key].copy() for key in keys]
        augment_mask(batch, np.random.default_rng(0), "reorder", 0.5)
        after = [batch[key] for key in keys]

        def positions(columns, row):
            items, categories, dense = (column[row] for column in columns)
            return sorted(zip(items.tolist(), categories.tolist(), map(tuple, dense.tolist())))

        assert not np.array_equal(before[0], after[0])
        for row in range(8):
            assert positions(before, row) == positions(after, row)

    def test_unknown_strategy(self, test_set):
        batch = test_set.batch_at(np.arange(4))
        with pytest.raises(ValueError):
            augment_mask(batch, np.random.default_rng(0), "flip", 0.5)


class TestInBatchNegatives:
    def test_shape(self):
        out = sample_in_batch_negatives(16, 3, np.random.default_rng(0))
        assert out.shape == (16, 3)

    def test_never_self(self):
        out = sample_in_batch_negatives(32, 5, np.random.default_rng(0))
        anchors = np.arange(32)[:, None]
        assert np.all(out != anchors)

    def test_in_range(self):
        out = sample_in_batch_negatives(8, 4, np.random.default_rng(0))
        assert out.min() >= 0
        assert out.max() < 8

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            sample_in_batch_negatives(1, 3, np.random.default_rng(0))

    @given(st.integers(2, 64), st.integers(1, 10))
    def test_properties_hold_for_any_size(self, batch, l):
        out = sample_in_batch_negatives(batch, l, np.random.default_rng(2))
        anchors = np.arange(batch)[:, None]
        assert out.shape == (batch, l)
        assert np.all(out != anchors)
        assert out.min() >= 0 and out.max() < batch

    def test_uniform_over_non_self(self):
        counts = np.zeros(4)
        out = sample_in_batch_negatives(4, 2000, np.random.default_rng(3))
        for row in range(4):
            for value in out[row]:
                counts[value] += 1
        # each anchor avoids itself; totals should be roughly balanced
        assert counts.std() / counts.mean() < 0.1

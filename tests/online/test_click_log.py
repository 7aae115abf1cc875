"""Click log: append/cursor/lag semantics and skew-free dataset conversion."""

import numpy as np
import pytest

from repro.data.features import assemble_session
from repro.online import ClickLog, build_dataset


def _log_one(log, user=1, category=2, items=(0, 1, 2, 3), clicks=(1, 0, 0, 1), **kw):
    return log.log_session(
        user, category, np.asarray(items), np.asarray(clicks, dtype=np.float32), **kw
    )


class TestClickLog:
    def test_append_assigns_session_ids(self):
        log = ClickLog()
        first = _log_one(log)
        second = _log_one(log)
        assert (first.session_id, second.session_id) == (0, 1)
        assert len(log) == 2
        assert log.total_clicks == 4

    def test_misaligned_items_and_clicks_raise(self):
        with pytest.raises(ValueError):
            _log_one(ClickLog(), items=(0, 1, 2), clicks=(1, 0))

    def test_lag_and_cursor(self):
        log = ClickLog()
        for _ in range(5):
            _log_one(log)
        assert log.lag == 5
        window = log.read_new(max_sessions=3)
        assert [r.session_id for r in window] == [0, 1, 2]
        assert log.lag == 2
        assert [r.session_id for r in log.read_new()] == [3, 4]
        assert log.lag == 0
        assert log.read_new() == []

    def test_records_are_copies(self):
        log = ClickLog()
        items = np.array([0, 1, 2, 3])
        record = log.log_session(1, 2, items, np.array([1, 0, 0, 1]))
        items[0] = 99
        assert record.items[0] == 0

    def test_model_version_and_timestamp_stored(self):
        log = ClickLog()
        record = _log_one(log, model_version="v0007", timestamp=12.5)
        assert record.model_version == "v0007"
        assert record.timestamp == 12.5


class TestBuildDataset:
    def test_empty_or_unusable_records_give_none(self, unit_world):
        log = ClickLog()
        assert build_dataset(unit_world, log.read_new()) is None
        _log_one(log, clicks=(0, 0, 0, 0))  # clickless: no signal
        _log_one(log, clicks=(1, 1, 1, 1))  # all clicked: no contrast
        assert build_dataset(unit_world, log.read_new()) is None

    def test_labels_follow_clicks(self, unit_world):
        log = ClickLog()
        _log_one(log, clicks=(1, 0, 0, 1))
        dataset = build_dataset(unit_world, log.read_new())
        assert len(dataset) == 4
        np.testing.assert_array_equal(dataset.label, [1, 0, 0, 1])
        assert set(dataset.session_id) == {0}

    def test_negative_downsampling_is_one_to_one(self, unit_world):
        log = ClickLog()
        _log_one(log, items=tuple(range(8)), clicks=(1, 0, 0, 0, 0, 0, 0, 0))
        dataset = build_dataset(unit_world, log.read_new(), rng=np.random.default_rng(0))
        assert len(dataset) == 2
        assert dataset.positive_count() == 1

    def test_features_identical_to_serving_assembly(self, unit_world):
        """No training/serving skew: the trainer sees exactly the features
        the engine scored the session with."""
        log = ClickLog()
        user, category, items = 3, 1, np.array([5, 9, 2, 7])
        record = log.log_session(user, category, items, np.array([1.0, 0, 0, 0]))
        dataset = build_dataset(unit_world, [record])
        served = assemble_session(unit_world, user, category, items).flat()
        np.testing.assert_array_equal(dataset.other_features, served["other_features"])
        np.testing.assert_array_equal(dataset.target_item, served["target_item"])
        np.testing.assert_array_equal(dataset.behavior_items, served["behavior_items"])
        np.testing.assert_array_equal(dataset.query, served["query"])

    @pytest.mark.parametrize("sampled", [False, True])
    def test_window_is_the_per_record_batches_bit_for_bit(self, unit_world, sampled):
        """One assembly per window == one per record, concatenated: the
        negative-sampling draws keep their record order, the same user
        recurs, and unusable records in between contribute nothing."""
        draw = np.random.default_rng(9)
        log = ClickLog()
        for user in (3, 11, 3, 40, 11, 7):
            items = draw.choice(unit_world.num_items, size=int(draw.integers(2, 9)), replace=False)
            clicks = (draw.random(items.size) < 0.4).astype(np.float32)
            clicks[0], clicks[1] = 1.0, 0.0
            log.log_session(user, int(draw.integers(0, 8)), items, clicks)
            _log_one(log, user=user, clicks=(0, 0, 0, 0))
        records = log.read_new()
        rng = np.random.default_rng(4) if sampled else None
        dataset = build_dataset(unit_world, records, rng=rng)

        rng = np.random.default_rng(4) if sampled else None
        want = []
        for record in records:
            clicks = record.clicks
            if clicks.max() < 1 or clicks.min() > 0:
                continue
            keep = np.arange(record.num_shown)
            if rng is not None:
                positives, negatives = np.flatnonzero(clicks == 1), np.flatnonzero(clicks == 0)
                count = min(positives.size, negatives.size)
                keep = np.sort(
                    np.concatenate([positives, rng.choice(negatives, size=count, replace=False)])
                )
            batch = assemble_session(
                unit_world, record.user, record.query_category, record.items[keep]
            ).flat()
            batch["label"] = clicks[keep].astype(np.float32)
            batch["session_id"] = np.full(keep.size, record.session_id, dtype=np.int64)
            want.append(batch)
        for key in want[0]:
            rows = np.concatenate([batch[key] for batch in want])
            got = getattr(dataset, key)
            assert got.dtype == rows.dtype, key
            assert got.tobytes() == rows.tobytes(), key

    def test_multiple_sessions_concatenate(self, unit_world):
        log = ClickLog()
        _log_one(log, user=1)
        _log_one(log, user=2, clicks=(0, 1, 0, 1))
        dataset = build_dataset(unit_world, log.read_new())
        assert len(dataset) == 8
        assert dataset.num_sessions() == 2
        np.testing.assert_array_equal(np.unique(dataset.user_id), [1, 2])

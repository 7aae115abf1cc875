"""Synthetic-world invariants: the planted structure the experiments rely on."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import WorldConfig, generate_world, make_search_datasets, simulate_search_log
from repro.data.schema import BATCH_KEYS, FEATURE_NAMES
from repro.data.synthetic import (
    _LOG_CHUNK_SESSIONS,
    ARCHETYPES,
    build_test_dataset,
    build_train_dataset,
)

from feature_oracles import search_log_loop

@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig.unit(), np.random.default_rng(4))


class TestWorldGeneration:
    def test_item_arrays_sized(self, world):
        cfg = world.config
        assert len(world.item_category) == cfg.num_items
        assert world.item_category.max() < cfg.num_categories

    def test_price_percentiles_uniform_within_category(self, world):
        for cat in range(world.config.num_categories):
            members = world.item_price_pct[world.item_category == cat]
            if members.size >= 4:
                assert 0.0 < members.min() < 0.5
                assert 0.5 < members.max() <= 1.0

    def test_popularity_normalized(self, world):
        assert world.item_popularity.min() >= 0.0
        assert world.item_popularity.max() <= 1.0

    def test_brands_consistent_with_category(self, world):
        per_cat = world.config.brands_per_category
        assert np.all(world.item_brand // per_cat == world.item_category)

    def test_interests_are_distributions(self, world):
        assert np.allclose(world.user_interests.sum(axis=1), 1.0, atol=1e-6)

    def test_some_new_users_exist(self, world):
        empty = sum(1 for h in world.histories if len(h) == 0)
        assert empty > 0

    def test_elderly_have_shorter_histories(self, world):
        lengths = np.array([len(h) for h in world.histories], dtype=float)
        elderly = lengths[world.user_age == 2]
        young = lengths[world.user_age == 0]
        assert elderly.mean() < young.mean()

    def test_histories_capped_at_max_seq_len(self, world):
        assert max(len(h) for h in world.histories) <= world.config.max_seq_len

    def test_deterministic_given_seed(self):
        a = generate_world(WorldConfig.unit(), np.random.default_rng(9))
        b = generate_world(WorldConfig.unit(), np.random.default_rng(9))
        assert np.array_equal(a.item_category, b.item_category)
        assert all(np.array_equal(x, y) for x, y in zip(a.histories, b.histories))


class TestArchetypeSignal:
    """Behaviour sequences must reveal the latent archetype (gate's signal)."""

    def test_price_sensitive_buy_cheaper(self, world):
        means = _mean_history_stat(world, world.item_price_pct)
        price_idx, trend_idx = 0, 2
        assert means[price_idx] < means[trend_idx]

    def test_trend_followers_buy_popular(self, world):
        means = _mean_history_stat(world, world.item_popularity)
        assert means[2] == max(means)

    def test_quality_seekers_buy_quality(self, world):
        means = _mean_history_stat(world, world.item_quality)
        assert means[3] > means[0]

    def test_style_concentration(self, world):
        """Histories cluster near the user's style coordinate."""
        gaps = []
        for user, history in enumerate(world.histories):
            if len(history) >= 3:
                gaps.append(np.abs(world.item_style[history] - world.user_style[user]).mean())
        random_gap = 1.0 / 3.0  # E|U - V| for independent uniforms
        assert np.mean(gaps) < random_gap


def _mean_history_stat(world, item_stat):
    """Mean of an item statistic over histories, grouped by archetype."""
    sums = np.zeros(len(ARCHETYPES))
    counts = np.zeros(len(ARCHETYPES))
    for user, history in enumerate(world.histories):
        if len(history):
            kind = world.user_archetype[user]
            sums[kind] += item_stat[history].sum()
            counts[kind] += len(history)
    return sums / np.maximum(counts, 1)


class TestSessionSimulation:
    def test_log_rows_consistent(self, world):
        log = simulate_search_log(world, 50, np.random.default_rng(1))
        assert len(log.session_id) == len(log.label) == len(log.target_item)
        assert log.behavior_items.shape[0] == len(log.label)

    def test_ids_are_one_based(self, world):
        log = simulate_search_log(world, 50, np.random.default_rng(1))
        assert log.target_item.min() >= 1
        assert log.query.min() >= 1
        assert log.query_category.min() >= 1

    def test_positive_rate_reasonable(self, world):
        log = simulate_search_log(world, 300, np.random.default_rng(1))
        rate = log.label.mean()
        assert 0.03 < rate < 0.4

    def test_start_session_id_offsets(self, world):
        log = simulate_search_log(world, 10, np.random.default_rng(1), start_session_id=100)
        assert log.session_id.min() == 100

    def test_most_candidates_match_query_category(self, world):
        log = simulate_search_log(world, 100, np.random.default_rng(1))
        target_cats = world.item_category[log.target_item - 1] + 1
        match = (target_cats == log.query_category).mean()
        assert match > 0.6


class TestLogIsTheServingAssembly:
    """The log's columns come from chunked ``assemble_sessions`` calls after
    the RNG loop; the per-session loop it replaced is the oracle."""

    #: Not a multiple of the chunk, and more than one chunk.
    SESSIONS = _LOG_CHUNK_SESSIONS + 45

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "config",
        [
            WorldConfig.unit(),
            WorldConfig.small(),
            replace(WorldConfig.large_catalog(6000, 4), num_users=300),
        ],
        ids=["unit", "small", "large-catalog"],
    )
    def test_every_column_is_the_per_session_loop(self, config, seed):
        world = generate_world(config, np.random.default_rng(seed))
        log = simulate_search_log(
            world, self.SESSIONS, np.random.default_rng(seed + 20), start_session_id=7
        )
        want = search_log_loop(
            world, self.SESSIONS, np.random.default_rng(seed + 20), start_session_id=7
        )
        assert list(want) == list(BATCH_KEYS)
        for key, column in want.items():
            got = getattr(log, key)
            assert got.dtype == column.dtype, key
            assert got.shape == column.shape, key
            assert got.tobytes() == column.tobytes(), key
        # What the comparison covered: several chunks with a ragged last one,
        # ids offset by the start, every specificity, off-category candidates.
        assert self.SESSIONS % _LOG_CHUNK_SESSIONS and self.SESSIONS > _LOG_CHUNK_SESSIONS
        sessions = np.unique(log.session_id)
        assert sessions[0] == 7 and sessions.size == self.SESSIONS
        spec = log.other_features[:, FEATURE_NAMES.index("query_specificity")]
        assert np.unique(spec).size == config.num_query_specificities
        assert (log.target_category != log.query_category).any()


class TestDatasetConstruction:
    def test_train_is_balanced(self, world):
        log = simulate_search_log(world, 200, np.random.default_rng(2))
        train = build_train_dataset(log, np.random.default_rng(3))
        assert train.label.mean() == pytest.approx(0.5, abs=0.02)

    def test_test_sessions_have_both_classes(self, world):
        log = simulate_search_log(world, 200, np.random.default_rng(2))
        test = build_test_dataset(log)
        for session in np.unique(test.session_id):
            labels = test.label[test.session_id == session]
            assert labels.max() == 1.0
            assert labels.min() == 0.0

    def test_pipeline_determinism(self):
        _, train_a, _ = make_search_datasets(WorldConfig.unit(), 100, 50, seed=5)
        _, train_b, _ = make_search_datasets(WorldConfig.unit(), 100, 50, seed=5)
        assert np.array_equal(train_a.label, train_b.label)
        assert np.array_equal(train_a.target_item, train_b.target_item)

    def test_different_seeds_differ(self):
        _, train_a, _ = make_search_datasets(WorldConfig.unit(), 100, 50, seed=5)
        _, train_b, _ = make_search_datasets(WorldConfig.unit(), 100, 50, seed=6)
        assert not np.array_equal(train_a.target_item, train_b.target_item)

    def test_meta_vocab_sizes_cover_ids(self, test_set):
        meta = test_set.meta
        assert test_set.target_item.max() < meta.num_items
        assert test_set.behavior_items.max() < meta.num_items
        assert test_set.query.max() < meta.num_queries
        assert test_set.target_category.max() < meta.num_categories


class TestFig2Structure:
    """The category-new vs category-old label asymmetry behind Fig. 2."""

    def test_category_old_share_substantial(self, train_set):
        cat_cnt = train_set.other_features[:, train_set.meta.feature_index("category_click_cnt")]
        share = (cat_cnt > 0).mean()
        assert 0.2 < share < 0.95

    def test_new_user_positives_skew_popular(self, train_set):
        features = train_set.other_features
        meta = train_set.meta
        cat_cnt = features[:, meta.feature_index("category_click_cnt")]
        pop = features[:, meta.feature_index("popularity")]
        labels = train_set.label
        new = cat_cnt == 0
        if new.sum() > 50:
            pop_gap_new = pop[new & (labels == 1)].mean() - pop[new & (labels == 0)].mean()
            assert pop_gap_new > 0.0

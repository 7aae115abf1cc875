"""Session cache: LRU eviction, hit/miss accounting, invalidation."""

import numpy as np

from repro.serving import CacheStats, LRUCache, SessionCache


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: nothing evicted
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_contains_does_not_touch_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert "a" in cache
        assert cache.stats.lookups == 0

    def test_hit_rate_empty(self):
        assert LRUCache(2).stats.hit_rate == 0.0


class TestCacheStats:
    def test_merge_sums_counters(self):
        merged = CacheStats(1, 2, 3).merge(CacheStats(10, 20, 30))
        assert (merged.hits, merged.misses, merged.evictions) == (11, 22, 33)


class TestSessionCache:
    def test_gate_round_trip(self):
        cache = SessionCache(8)
        gate = np.array([0.2, 0.8], dtype=np.float32)
        assert cache.get_gate(3, 1) is None
        cache.put_gate(3, 1, gate)
        np.testing.assert_array_equal(cache.get_gate(3, 1), gate)
        assert cache.gate_hit_rate == 0.5

    def test_gate_keyed_by_user_and_category(self):
        cache = SessionCache(8)
        cache.put_gate(3, 1, np.zeros(2))
        assert cache.get_gate(3, 2) is None
        assert cache.get_gate(4, 1) is None

    def test_behavior_keyed_by_user_only(self):
        cache = SessionCache(8)
        encoding = (np.zeros(4), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
        cache.put_behavior(7, encoding)
        assert cache.get_behavior(7) is not None
        assert cache.behaviors.stats.hits == 1

    def test_invalidate_all_drops_gates_and_bumps_generation(self):
        """Regression test for the stale-cache hazard: after a model swap no
        gate vector from the old model may survive, and the generation tag
        lets in-flight consumers detect the swap."""
        cache = SessionCache(8)
        cache.put_gate(3, 1, np.zeros(2))
        cache.put_gate(4, 2, np.ones(2))
        cache.put_behavior(3, (np.zeros(1),) * 4)
        assert cache.generation == 0
        cache.invalidate_all()
        assert cache.generation == 1
        assert len(cache.gates) == 0
        assert cache.get_gate(3, 1) is None
        assert cache.get_gate(4, 2) is None
        # Behaviour encodings are model-independent and survive by default.
        assert cache.get_behavior(3) is not None

    def test_generation_only_moves_forward(self):
        cache = SessionCache(8)
        for expected in range(1, 4):
            cache.invalidate_all()
            assert cache.generation == expected

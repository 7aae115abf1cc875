"""IVF-flat item index: exactness, recall monotonicity, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.retrieval import ItemIndex, kmeans


@pytest.fixture()
def corpus():
    rng = np.random.default_rng(7)
    num_items, dim, num_categories = 400, 8, 4
    vectors = rng.normal(size=(num_items, dim)).astype(np.float32)
    categories = rng.integers(0, num_categories, size=num_items)
    return vectors, categories, num_categories


def _brute_force(vectors, categories, query, category, topn):
    members = np.flatnonzero(categories == category)
    scores = vectors[members] @ query
    if topn >= members.size:
        return np.sort(members)
    keep = np.argpartition(-scores, topn - 1)[:topn]
    return np.sort(members[keep])


def _kmeans_per_cell(vectors, num_clusters, rng, iterations=8):
    """The k-means this repo shipped before the centroid update was one
    sorted segment sum: full expanded distances, one boolean mask and one
    mean per cell per iteration.  Kept verbatim as the oracle; the last
    return value says whether any cell ever emptied."""
    n = vectors.shape[0]
    num_clusters = int(min(max(num_clusters, 1), n))
    centroids = vectors[rng.choice(n, size=num_clusters, replace=False)].copy()
    x_sq = (vectors**2).sum(axis=1)
    assignments = np.zeros(n, dtype=np.int64)
    emptied = False
    for _ in range(iterations):
        dists = x_sq[:, None] - 2.0 * (vectors @ centroids.T) + (centroids**2).sum(axis=1)
        assignments = dists.argmin(axis=1)
        own_dist = dists[np.arange(n), assignments].copy()
        for k in range(num_clusters):
            members = assignments == k
            if members.any():
                centroids[k] = vectors[members].mean(axis=0)
            else:
                emptied = True
                farthest = int(own_dist.argmax())
                centroids[k] = vectors[farthest]
                assignments[farthest] = k
                own_dist[farthest] = -np.inf
    return centroids, assignments, emptied


_KMEANS = settings(deadline=None, max_examples=40, derandomize=True)


class TestKMeans:
    @_KMEANS
    @given(n=st.integers(8, 160), d=st.integers(2, 8), k=st.integers(1, 12), seed=st.integers(0, 99))
    def test_matches_the_per_cell_loop(self, n, d, k, seed):
        """Dropping ``||x||^2`` from the argmin and summing cells by segment
        changes no assignment and moves centroids by float32 rounding only."""
        points = np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)
        want_c, want_a, emptied = _kmeans_per_cell(points, k, np.random.default_rng(seed + 1))
        got_c, got_a = kmeans(points, k, np.random.default_rng(seed + 1))
        assert set(np.unique(got_a)) == set(range(min(k, n)))
        if not emptied:
            np.testing.assert_array_equal(got_a, want_a)
            np.testing.assert_allclose(got_c, want_c, rtol=1e-5, atol=1e-5)

    @_KMEANS
    @given(
        distinct=st.integers(2, 30),
        copies=st.integers(1, 4),
        spare=st.integers(0, 3),
        seed=st.integers(0, 99),
    )
    def test_forced_empty_cells_are_refilled(self, distinct, copies, spare, seed):
        """Duplicate points with k close to n: duplicated initial centroids
        leave cells empty at once.  Every cell still ends with a member, two
        runs from one seed agree bitwise, and — when the points are all
        distinct — no two centroids coincide."""
        base = np.random.default_rng(seed).normal(size=(distinct, 3)).astype(np.float32)
        points = np.repeat(base, copies, axis=0)
        k = max(1, points.shape[0] - spare)
        centroids, assignments = kmeans(points, k, np.random.default_rng(seed))
        again = kmeans(points, k, np.random.default_rng(seed))
        assert centroids.shape == (k, 3)
        assert np.bincount(assignments, minlength=k).min() >= 1
        assert centroids.tobytes() == again[0].tobytes()
        assert assignments.tobytes() == again[1].tobytes()
        if copies == 1:
            assert np.unique(centroids, axis=0).shape[0] == k

    def test_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(100, 4)).astype(np.float32)
        c1, a1 = kmeans(points, 5, np.random.default_rng(9))
        c2, a2 = kmeans(points, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 3)).astype(np.float32)
        _, assignments = kmeans(points, 8, np.random.default_rng(0))
        assert set(np.unique(assignments)) == set(range(8))

    def test_clusters_capped_at_points(self):
        points = np.random.default_rng(0).normal(size=(3, 2)).astype(np.float32)
        centroids, assignments = kmeans(points, 10, np.random.default_rng(1))
        assert centroids.shape[0] == 3
        assert assignments.max() < 3


class TestItemIndex:
    def test_nprobe_all_matches_brute_force(self, corpus):
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        rng = np.random.default_rng(1)
        for category in range(num_categories):
            query = rng.normal(size=vectors.shape[1]).astype(np.float32)
            for topn in (5, 25, 10_000):
                got = index.search(query, category, topn=topn, nprobe="all")
                want = _brute_force(vectors, categories, query, category, topn)
                np.testing.assert_array_equal(got, want)

    def test_recall_monotone_in_nprobe(self, corpus):
        """More probed cells can only widen the scanned set, so recall
        against the exact top-N is non-decreasing — the cascade's knob."""
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        rng = np.random.default_rng(2)
        queries = [rng.normal(size=vectors.shape[1]).astype(np.float32) for _ in range(20)]
        topn = 10
        recalls = []
        for nprobe in (1, 2, 4, "all"):
            hits = total = 0
            for q, query in enumerate(queries):
                category = q % num_categories
                exact = set(index.search(query, category, topn=topn, nprobe="all").tolist())
                got = set(index.search(query, category, topn=topn, nprobe=nprobe).tolist())
                hits += len(exact & got)
                total += len(exact)
            recalls.append(hits / total)
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0
        assert recalls[0] < 1.0  # one probe of many cells must actually miss

    def test_build_deterministic(self, corpus):
        vectors, categories, num_categories = corpus
        a = ItemIndex(vectors, categories, num_categories, seed=4)
        b = ItemIndex(vectors, categories, num_categories, seed=4)
        query = np.random.default_rng(0).normal(size=vectors.shape[1]).astype(np.float32)
        for category in range(num_categories):
            np.testing.assert_array_equal(
                a.search(query, category, topn=7, nprobe=2),
                b.search(query, category, topn=7, nprobe=2),
            )

    def test_results_ascending_and_in_category(self, corpus):
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        query = np.random.default_rng(5).normal(size=vectors.shape[1]).astype(np.float32)
        ids = index.search(query, 1, topn=9, nprobe=2)
        assert np.all(np.diff(ids) > 0)
        assert np.all(categories[ids] == 1)

    @pytest.mark.parametrize("nprobe, topn", [(2, 9), ("all", 9), ("all", 10_000)])
    def test_scores_out_matches_returned_ids(self, corpus, nprobe, topn):
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        query = np.random.default_rng(5).normal(size=vectors.shape[1]).astype(np.float32)
        scores = np.full(topn, np.nan, dtype=np.float32)
        ids = index.search(query, 1, topn=topn, nprobe=nprobe, scores_out=scores)
        np.testing.assert_array_equal(ids, index.search(query, 1, topn=topn, nprobe=nprobe))
        np.testing.assert_allclose(scores[: ids.size], vectors[ids] @ query, rtol=1e-5)

    def test_empty_partition(self):
        vectors = np.ones((4, 3), dtype=np.float32)
        categories = np.zeros(4, dtype=np.int64)
        index = ItemIndex(vectors, categories, num_categories=2)
        assert index.partition_size(1) == 0
        assert index.search(np.ones(3, dtype=np.float32), 1, topn=5).size == 0

    def test_validation(self, corpus):
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        with pytest.raises(ValueError):
            index.search(np.zeros(vectors.shape[1], dtype=np.float32), 0, topn=3, nprobe=0)
        with pytest.raises(ValueError):
            ItemIndex(vectors[None], categories, num_categories)
        with pytest.raises(ValueError):
            ItemIndex(vectors, categories[:-1], num_categories)

    def test_stats_accounting(self, corpus):
        vectors, categories, num_categories = corpus
        index = ItemIndex(vectors, categories, num_categories)
        stats = index.stats()
        assert stats["num_items"] == vectors.shape[0]
        assert stats["partitions"] == num_categories
        assert stats["nbytes"] == index.nbytes > 0
        sizes = [index.partition_size(c) for c in range(num_categories)]
        assert sum(sizes) == vectors.shape[0]

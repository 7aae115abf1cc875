"""AUC metrics (Eq. 12): hand-computed cases and properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import binary_auc, global_auc, session_auc, session_auc_at_k

settings.register_profile("ci", deadline=None, max_examples=30)
settings.load_profile("ci")


class TestBinaryAUC:
    def test_perfect_ranking(self):
        assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_inverted_ranking(self):
        assert binary_auc(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0

    def test_mixed_pairs(self):
        # Pairs: (0.5 vs 0.4) win, (0.5 vs 0.6) loss, (0.3 vs both) losses.
        auc = binary_auc(np.array([0.5, 0.4, 0.6, 0.3]), np.array([1, 0, 0, 1]))
        assert auc == pytest.approx(0.25)

    def test_ties_count_half(self):
        auc = binary_auc(np.array([0.5, 0.5]), np.array([1, 0]))
        assert auc == pytest.approx(0.5)

    def test_single_class_returns_none(self):
        assert binary_auc(np.array([0.5, 0.4]), np.array([1, 1])) is None
        assert binary_auc(np.array([0.5, 0.4]), np.array([0, 0])) is None

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.4).astype(int)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (len(pos) * len(neg))
        assert binary_auc(scores, labels) == pytest.approx(expected)

    @given(st.integers(2, 40))
    def test_monotone_transform_invariance(self, n):
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        labels = np.zeros(n)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            return
        a = binary_auc(scores, labels)
        b = binary_auc(np.exp(3 * scores), labels)
        assert a == pytest.approx(b)


@st.composite
def _scored_group(draw):
    """One group's scores on a coarse grid (ties are the rule, float32 half
    the time) and labels that leave it single-class at the extremes."""
    rows = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 4, 1000]))
    scores = rng.integers(0, levels, size=rows) / levels
    if draw(st.booleans()):
        scores = scores.astype(np.float32)
    labels = (rng.random(rows) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))).astype(np.float32)
    return scores, labels


class TestRankSumEqualsPairCount:
    """``binary_auc``'s tie-averaged rank sum is Eq. 12's indicator double
    sum over (positive, negative) pairs, a tie counting half, to the bit."""

    @given(_scored_group())
    def test_equals_brute_force_pair_count(self, group):
        scores, labels = group
        positives, negatives = scores[labels == 1], scores[labels == 0]
        if not positives.size or not negatives.size:
            assert binary_auc(scores, labels) is None
            return
        twice_wins = sum(2 * int(p > n) + int(p == n) for p in positives for n in negatives)
        exact = Fraction(twice_wins, 2 * positives.size * negatives.size)
        assert binary_auc(scores, labels) == float(exact)


class TestSessionAUC:
    def test_averages_over_sessions(self):
        scores = np.array([0.9, 0.1, 0.1, 0.9])
        labels = np.array([1, 0, 1, 0])
        sessions = np.array([0, 0, 1, 1])
        # session 0 perfect (1.0), session 1 inverted (0.0)
        assert session_auc(scores, labels, sessions) == pytest.approx(0.5)

    def test_skips_single_class_sessions(self):
        scores = np.array([0.9, 0.1, 0.5, 0.6])
        labels = np.array([1, 0, 1, 1])
        sessions = np.array([0, 0, 1, 1])
        assert session_auc(scores, labels, sessions) == pytest.approx(1.0)

    def test_all_single_class_raises(self):
        with pytest.raises(ValueError):
            session_auc(np.array([0.5, 0.6]), np.array([1, 1]), np.array([0, 0]))

    def test_unsorted_session_ids(self):
        scores = np.array([0.9, 0.7, 0.1, 0.6])
        labels = np.array([1, 1, 0, 0])
        sessions = np.array([3, 7, 3, 7])
        # Session 3: 0.9 (pos) vs 0.1 (neg); session 7: 0.7 (pos) vs 0.6 (neg).
        assert session_auc(scores, labels, sessions) == pytest.approx(1.0)


class TestAUCAtK:
    def test_equals_full_auc_when_k_covers_session(self):
        rng = np.random.default_rng(1)
        scores = rng.random(8)
        labels = np.array([1, 0, 1, 0, 1, 0, 0, 0])
        sessions = np.zeros(8)
        full = session_auc(scores, labels, sessions)
        at_k = session_auc_at_k(scores, labels, sessions, k=8)
        assert full == pytest.approx(at_k)

    def test_restricts_to_top_k(self):
        # Top-2 contains one positive and one negative ranked correctly.
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([1, 0, 0, 1])
        sessions = np.zeros(4)
        assert session_auc_at_k(scores, labels, sessions, k=2) == pytest.approx(1.0)

    def test_skips_sessions_with_single_class_in_top_k(self):
        scores = np.array([0.9, 0.8, 0.1, 0.99, 0.01])
        labels = np.array([1, 1, 0, 1, 0])
        sessions = np.array([0, 0, 0, 1, 1])
        # session 0 top-2 = two positives -> skipped; session 1 perfect
        assert session_auc_at_k(scores, labels, sessions, k=2) == pytest.approx(1.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            session_auc_at_k(np.ones(3), np.array([1, 0, 1]), np.zeros(3), k=1)


class TestGlobalAUC:
    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            global_auc(np.array([0.5]), np.array([1.0]))

    def test_value(self):
        assert global_auc(np.array([0.8, 0.3]), np.array([1, 0])) == 1.0

"""Bootstrap and z-test significance machinery."""

import math

import numpy as np
import pytest

from repro.eval import paired_bootstrap_pvalue, session_metric_samples, two_proportion_z_test


def _synthetic_scores(n_sessions=60, per_session=8, quality=2.0, seed=0):
    """Scores correlating with labels at the given quality (higher = better)."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n_sessions * per_session) < 0.3).astype(float)
    sessions = np.repeat(np.arange(n_sessions), per_session)
    scores = quality * labels + rng.normal(0, 1, size=labels.size)
    return scores, labels, sessions


class TestSessionMetricSamples:
    def test_auc_samples_per_session(self):
        scores, labels, sessions = _synthetic_scores()
        values, ids = session_metric_samples(scores, labels, sessions, "auc")
        assert len(values) == len(ids)
        assert np.all((values >= 0) & (values <= 1))

    def test_ndcg_samples(self):
        scores, labels, sessions = _synthetic_scores()
        values, _ = session_metric_samples(scores, labels, sessions, "ndcg", k=5)
        assert np.all((values >= 0) & (values <= 1))

    def test_unknown_metric(self):
        scores, labels, sessions = _synthetic_scores()
        with pytest.raises(ValueError):
            session_metric_samples(scores, labels, sessions, "map")


class TestPairedBootstrap:
    def test_clear_improvement_is_significant(self):
        scores_bad, labels, sessions = _synthetic_scores(quality=0.3, seed=1)
        scores_good, _, _ = _synthetic_scores(quality=3.0, seed=1)
        p = paired_bootstrap_pvalue(
            scores_bad, scores_good, labels, sessions, num_resamples=300,
            rng=np.random.default_rng(2),
        )
        assert p < 0.05

    def test_no_difference_is_insignificant(self):
        scores, labels, sessions = _synthetic_scores(seed=3)
        p = paired_bootstrap_pvalue(
            scores, scores + 1e-9, labels, sessions, num_resamples=300,
            rng=np.random.default_rng(2),
        )
        assert p > 0.2

    def test_regression_has_high_pvalue(self):
        scores_good, labels, sessions = _synthetic_scores(quality=3.0, seed=4)
        scores_bad, _, _ = _synthetic_scores(quality=0.3, seed=4)
        p = paired_bootstrap_pvalue(
            scores_good, scores_bad, labels, sessions, num_resamples=300,
            rng=np.random.default_rng(2),
        )
        assert p > 0.5

    def test_pvalue_never_zero(self):
        scores_bad, labels, sessions = _synthetic_scores(quality=0.0, seed=5)
        scores_good, _, _ = _synthetic_scores(quality=10.0, seed=5)
        p = paired_bootstrap_pvalue(
            scores_bad, scores_good, labels, sessions, num_resamples=200,
            rng=np.random.default_rng(2),
        )
        assert p >= 1.0 / 201

    def test_deterministic_given_rng(self):
        scores_a, labels, sessions = _synthetic_scores(quality=1.0, seed=6)
        scores_b, _, _ = _synthetic_scores(quality=1.5, seed=6)
        p1 = paired_bootstrap_pvalue(
            scores_a, scores_b, labels, sessions, rng=np.random.default_rng(9)
        )
        p2 = paired_bootstrap_pvalue(
            scores_a, scores_b, labels, sessions, rng=np.random.default_rng(9)
        )
        assert p1 == p2


class TestTwoProportionZTest:
    def test_equal_proportions(self):
        z, p = two_proportion_z_test(50, 100, 50, 100)
        assert z == pytest.approx(0.0)
        assert p == pytest.approx(0.5)

    def test_clear_improvement(self):
        z, p = two_proportion_z_test(400, 1000, 480, 1000)
        assert z > 3
        assert p < 0.001

    def test_symmetry(self):
        z_up, _ = two_proportion_z_test(400, 1000, 480, 1000)
        z_down, _ = two_proportion_z_test(480, 1000, 400, 1000)
        assert z_up == pytest.approx(-z_down)

    def test_matches_known_value(self):
        # p1=0.5, p2=0.6, n=100 each: pooled=0.55, se=sqrt(0.55*0.45*0.02)
        z, _ = two_proportion_z_test(50, 100, 60, 100)
        expected = 0.1 / np.sqrt(0.55 * 0.45 * 0.02)
        assert z == pytest.approx(expected, rel=1e-6)

    def test_zero_totals_rejected(self):
        with pytest.raises(ValueError):
            two_proportion_z_test(0, 0, 1, 10)

    def test_tails_sum_to_one(self):
        for counts in [(400, 1000, 480, 1000), (50, 100, 60, 100), (3, 7, 1, 9), (0, 5, 5, 5)]:
            z_up, p_up = two_proportion_z_test(*counts)
            z_down, p_down = two_proportion_z_test(*counts[2:], *counts[:2])
            assert z_down == -z_up
            assert abs(p_up + p_down - 1.0) <= 1e-15

    def test_two_sided_five_percent_point(self):
        # These counts put z within 1e-5 of the 97.5 % normal quantile q; a
        # second-order Taylor step from p(q) = 0.025 (the third-order term
        # is below 1e-15) must then give the returned p to 1e-12.
        q = 1.959963984540054
        z, p = two_proportion_z_test(50_000_000, 100_000_000, 50_013_859, 100_000_000)
        assert abs(z - q) < 1e-5
        density = math.exp(-q * q / 2) / math.sqrt(2 * math.pi)
        assert abs(p - (0.025 - density * (z - q) + q * density * (z - q) ** 2 / 2)) <= 1e-12

    def test_far_tail_stays_positive(self):
        z, p = two_proportion_z_test(500_000, 1_000_000, 505_657, 1_000_000)
        assert z == pytest.approx(8.0, abs=1e-3)
        assert 0.0 < p < 1e-14

    def test_degenerate_pooled_variance(self):
        z, p = two_proportion_z_test(0, 10, 0, 10)
        assert z == 0.0
        assert p == 0.5

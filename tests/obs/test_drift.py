"""Drift monitors: PSI correctness and the reference lifecycle."""

import numpy as np
import pytest

from repro.obs import DriftMonitor, StreamingHistogram, psi_from_counts
from repro.obs import drift as drift_module


def observe_all(monitor, name, values):
    for value in values:
        monitor.observe(name, value)


def live_samples(monitor, name):
    return monitor.scores()[name]["live_samples"]


class TestPsiFromCounts:
    def test_identical_distributions_score_exactly_zero(self):
        counts = np.array([5, 40, 30, 25, 0, 10], dtype=np.int64)
        assert psi_from_counts(counts, counts) == 0.0
        # Scale invariance: PSI compares proportions, not raw mass.
        assert psi_from_counts(counts, counts * 7) == 0.0

    def test_closed_form_two_bucket_shift(self):
        """Hand-computable pair: (50,50) vs (10,90).

        PSI = (0.5-0.1)*ln(0.5/0.1) + (0.5-0.9)*ln(0.5/0.9)
            = 0.4*ln(5) - 0.4*ln(5/9) = 0.8788898309344878.
        """
        psi = psi_from_counts([50, 50], [10, 90])
        assert psi == pytest.approx(0.8788898309344878, abs=1e-12)

    def test_symmetry(self):
        a, b = [50, 50], [10, 90]
        assert psi_from_counts(a, b) == pytest.approx(psi_from_counts(b, a))

    def test_empty_side_scores_zero(self):
        assert psi_from_counts([1, 2, 3], [0, 0, 0]) == 0.0
        assert psi_from_counts([0, 0], [0, 0]) == 0.0

    def test_disjoint_support_is_large_but_finite(self):
        psi = psi_from_counts([100, 0], [0, 100])
        assert np.isfinite(psi)
        assert psi > 10.0  # epsilon-clamped, far beyond the 0.25 alarm line

    def test_unpopulated_buckets_do_not_contribute(self):
        # Padding both sides with shared empty buckets must not change PSI.
        base = psi_from_counts([50, 50], [10, 90])
        padded = psi_from_counts([50, 50, 0, 0], [10, 90, 0, 0])
        assert padded == pytest.approx(base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psi_from_counts([1, 2], [1, 2, 3])


class TestHistogramScoring:
    def test_histogram_psi_matches_counts_psi(self):
        """The monitor scores its sketches' bucket counts: the same values
        recorded into histograms of its one layout give the same PSI."""
        rng = np.random.default_rng(0)
        ref_values, live_values = rng.uniform(0.0, 1.0, 500), rng.beta(2.0, 5.0, 500)
        monitor = DriftMonitor(min_samples=1)
        observe_all(monitor, "x", ref_values)
        monitor.freeze_reference()
        observe_all(monitor, "x", live_values)
        layout = dict(min_value=0.05, growth=1.35, num_buckets=32)  # the monitor's
        ref, live = StreamingHistogram(**layout), StreamingHistogram(**layout)
        for value in ref_values:
            ref.record(value)
        for value in live_values:
            live.record(value)
        assert monitor.psi("x") == psi_from_counts(ref.counts, live.counts) > 0.0


class TestDriftMonitorLifecycle:
    def test_no_reference_means_no_scores(self):
        monitor = DriftMonitor(min_samples=1)
        monitor.observe("ctr", 0.3)
        assert not monitor.has_reference
        assert monitor.psi("ctr") == 0.0
        assert monitor.scores()["ctr"]["psi"] == 0.0
        assert monitor.scores()["ctr"]["reference_samples"] == 0

    def test_freeze_requires_live_observations(self):
        with pytest.raises(RuntimeError):
            DriftMonitor().freeze_reference()

    def test_freeze_promotes_live_window_to_reference(self):
        monitor = DriftMonitor(min_samples=5)
        rng = np.random.default_rng(1)
        observe_all(monitor, "ctr", rng.uniform(0.0, 0.5, 300).tolist())
        monitor.freeze_reference()
        assert monitor.has_reference
        assert live_samples(monitor, "ctr") == 0  # fresh live window
        # Same distribution again: PSI stays near the sampling-noise floor.
        observe_all(monitor, "ctr", rng.uniform(0.0, 0.5, 300).tolist())
        assert monitor.psi("ctr") < 0.1
        # Shifted distribution: PSI crosses the conventional 0.25 alarm line.
        monitor.reset_live()
        observe_all(monitor, "ctr", rng.uniform(0.4, 0.9, 300).tolist())
        assert monitor.psi("ctr") > 0.25

    def test_min_samples_gates_scoring(self):
        monitor = DriftMonitor(min_samples=20)
        observe_all(monitor, "ctr", [0.1] * 30)
        monitor.freeze_reference()
        observe_all(monitor, "ctr", [0.9] * 19)  # below the floor: no verdict
        assert monitor.psi("ctr") == 0.0
        assert monitor.scores()["ctr"]["psi"] == 0.0
        monitor.observe("ctr", 0.9)  # 20th sample crosses the floor
        assert monitor.psi("ctr") > 0.25
        assert monitor.scores()["ctr"]["psi"] > 0.25

    def test_reset_live_clears_only_live(self):
        monitor = DriftMonitor(min_samples=1)
        monitor.observe("ctr", 0.2)
        monitor.freeze_reference()
        monitor.observe("ctr", 0.9)
        monitor.reset_live()
        assert monitor.has_reference
        assert live_samples(monitor, "ctr") == 0

    def test_negative_values_clamp_to_zero(self):
        monitor = DriftMonitor(min_samples=1)
        monitor.observe("gap", -0.5)  # sketches are non-negative by contract
        assert live_samples(monitor, "gap") == 1

    def test_worst_picks_max_psi_feature(self):
        monitor = DriftMonitor(min_samples=1)
        observe_all(monitor, "stable", [0.5] * 50)
        observe_all(monitor, "moving", [0.1] * 50)
        monitor.freeze_reference()
        observe_all(monitor, "stable", [0.5] * 50)
        observe_all(monitor, "moving", [0.9] * 50)
        name, psi = monitor.worst()
        assert name == "moving"
        assert psi > 0.25

    def test_to_dict_summary(self):
        monitor = DriftMonitor(min_samples=1)
        observe_all(monitor, "ctr", [0.1, 0.2])
        monitor.freeze_reference()
        summary = monitor.to_dict()
        assert summary["has_reference"] is True
        assert summary["freezes"] == 1
        assert summary["reference_samples"] == 2
        assert list(summary["features"]) == ["ctr"]
        assert summary["worst_feature"] == "ctr"

    def test_to_dict_scores_each_feature_once(self, monkeypatch):
        """The worst feature comes out of the same scoring pass as the
        per-feature table: one PSI per feature, not two."""
        windows = {"a": (0.1, 0.9), "b": (0.5, 0.5), "c": (0.2, 0.3)}
        monitor = DriftMonitor(min_samples=1)
        for name, (before, _) in windows.items():
            observe_all(monitor, name, [before] * 20)
        monitor.freeze_reference()
        for name, (_, after) in windows.items():
            observe_all(monitor, name, [after] * 20)
        calls = []

        def counting(reference, live):
            calls.append(1)
            return psi_from_counts(reference, live)

        monkeypatch.setattr(drift_module, "psi_from_counts", counting)
        summary = monitor.to_dict()
        assert len(calls) == 3
        assert summary["worst_feature"] == "a"
        assert summary["worst_psi"] == summary["features"]["a"]["psi"] > 0.25

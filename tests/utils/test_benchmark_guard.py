"""The benchmark regression gate: warn in the soft band, fail past the hard
gate, escape hatch via ``REPRO_ALLOW_REGRESSION``."""

import json
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _helpers import (  # noqa: E402
    BenchmarkRegressionError,
    BenchmarkRegressionWarning,
    compare_profile_shares,
    compare_to_artifact,
)


@pytest.fixture()
def reference(tmp_path):
    path = tmp_path / "compiled_inference.json"
    path.write_text(
        json.dumps({"single_query": {"speedup": 3.0}, "fleet": {"qps_improvement": 1.5}})
    )
    return path


KEYS = [("single_query", "speedup"), ("fleet", "qps_improvement")]


class TestCompareToArtifact:
    def test_warns_on_regression_beyond_tolerance(self, reference):
        # 2.2/3.0 is a 27% drop: over the 20% warn line, under the 30% gate.
        report = {"single_query": {"speedup": 2.2}, "fleet": {"qps_improvement": 1.6}}
        with pytest.warns(BenchmarkRegressionWarning, match="single_query.speedup"):
            messages = compare_to_artifact(report, reference, KEYS, tolerance=0.2)
        assert len(messages) == 1  # fleet improved, only the speedup warns

    def test_silent_within_tolerance(self, reference):
        report = {"single_query": {"speedup": 2.7}, "fleet": {"qps_improvement": 1.3}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_to_artifact(report, reference, KEYS, tolerance=0.2) == []

    def test_missing_reference_is_silent(self, tmp_path):
        report = {"single_query": {"speedup": 0.1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_to_artifact(report, tmp_path / "nope.json", KEYS) == []

    def test_missing_keys_are_skipped(self, reference):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_to_artifact({}, reference, KEYS) == []

    def test_hard_gate_fails_deliberate_regression(self, reference, monkeypatch):
        """A >30% smoke regression is a red build, not a log line."""
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"single_query": {"speedup": 1.0}, "fleet": {"qps_improvement": 1.5}}
        with pytest.raises(BenchmarkRegressionError, match="single_query.speedup"):
            compare_to_artifact(report, reference, KEYS)

    def test_hard_gate_reports_every_failed_metric(self, reference, monkeypatch):
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"single_query": {"speedup": 0.1}, "fleet": {"qps_improvement": 0.1}}
        with pytest.raises(BenchmarkRegressionError) as excinfo:
            compare_to_artifact(report, reference, KEYS)
        assert "single_query.speedup" in str(excinfo.value)
        assert "fleet.qps_improvement" in str(excinfo.value)

    def test_hard_gate_is_an_assertion_error(self, reference, monkeypatch):
        """pytest and plain ``assert``-aware tooling both see a failure."""
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        assert issubclass(BenchmarkRegressionError, AssertionError)

    def test_escape_hatch_demotes_failure_to_warning(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_ALLOW_REGRESSION", "1")
        report = {"single_query": {"speedup": 1.0}, "fleet": {"qps_improvement": 1.5}}
        with pytest.warns(BenchmarkRegressionWarning, match="single_query.speedup"):
            messages = compare_to_artifact(report, reference, KEYS)
        assert len(messages) == 1

    def test_soft_band_never_raises(self, reference, monkeypatch):
        """Between the warn line and the hard gate the build stays green —
        that band absorbs shared-runner timing noise."""
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"single_query": {"speedup": 2.2}, "fleet": {"qps_improvement": 1.2}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            messages = compare_to_artifact(report, reference, KEYS)
        assert len(messages) == 2
        assert all(issubclass(w.category, BenchmarkRegressionWarning) for w in caught)

    def test_custom_fail_tolerance(self, reference, monkeypatch):
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"single_query": {"speedup": 2.2}, "fleet": {"qps_improvement": 1.5}}
        with pytest.raises(BenchmarkRegressionError):
            compare_to_artifact(report, reference, KEYS, tolerance=0.1, fail_tolerance=0.15)

    def test_fail_tolerance_tighter_than_warn_tolerance_still_gates(
        self, reference, monkeypatch
    ):
        """The thresholds act independently: a hard gate tighter than the
        warn band must still fail (an 18% drop vs fail_tolerance=0.15)."""
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"single_query": {"speedup": 2.46}, "fleet": {"qps_improvement": 1.5}}
        with pytest.raises(BenchmarkRegressionError, match="single_query.speedup"):
            compare_to_artifact(report, reference, KEYS, tolerance=0.2, fail_tolerance=0.15)


class TestCompareProfileShares:
    @pytest.fixture()
    def shares_reference(self, tmp_path):
        path = tmp_path / "compiled_inference.json"
        shares = {"score": {"embed": 0.2, "pairwise": 0.3, "experts": 0.5}}
        path.write_text(json.dumps({"profile": {"shares": shares}}))
        return path

    def test_same_steps_within_band_are_silent(self, shares_reference):
        report = {"profile": {"shares": {"score": {"embed": 0.25, "pairwise": 0.3, "experts": 0.45}}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_profile_shares(report, shares_reference) == []

    def test_added_and_removed_steps_are_named(self, shares_reference):
        """A renamed kernel has no share to compare on either side; it must
        not slip through the gate unmentioned."""
        report = {"profile": {"shares": {"score": {"embed": 0.2, "fused": 0.3, "experts": 0.5}}}}
        with pytest.warns(BenchmarkRegressionWarning) as caught:
            messages = compare_profile_shares(report, shares_reference)
        assert len(messages) == len(caught) == 2
        assert any("removed" in m and "pairwise" in m for m in messages)
        assert any("added" in m and "fused" in m for m in messages)

    def test_share_growth_still_gates_beside_a_removed_step(self, shares_reference, monkeypatch):
        monkeypatch.delenv("REPRO_ALLOW_REGRESSION", raising=False)
        report = {"profile": {"shares": {"score": {"embed": 0.1, "experts": 0.9}}}}
        with pytest.warns(BenchmarkRegressionWarning, match="pairwise"):
            with pytest.raises(BenchmarkRegressionError, match="score.experts"):
                compare_profile_shares(report, shares_reference)

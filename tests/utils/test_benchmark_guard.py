"""The kernel-share gate: silent within the band, an ``AssertionError``
naming every step that grew past it or exists on one side only."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _helpers import compare_profile_shares  # noqa: E402

BASELINE = {"score": {"embed": 0.2, "pairwise": 0.3, "experts": 0.5}}


class TestCompareProfileShares:
    def test_same_steps_within_band_are_silent(self):
        compare_profile_shares(
            {"score": {"embed": 0.25, "pairwise": 0.3, "experts": 0.45}}, BASELINE
        )

    def test_added_and_removed_steps_are_named(self):
        """A renamed kernel has no share to compare on either side; it must
        not slip through the gate unmentioned."""
        shares = {"score": {"embed": 0.2, "fused": 0.3, "experts": 0.5}}
        with pytest.raises(AssertionError) as excinfo:
            compare_profile_shares(shares, BASELINE)
        message = str(excinfo.value)
        assert "removed since the baseline: pairwise" in message
        assert "added since the baseline: fused" in message

    def test_share_growth_still_gates_beside_a_removed_step(self):
        shares = {"score": {"embed": 0.1, "experts": 0.9}}
        with pytest.raises(AssertionError, match="score.experts") as excinfo:
            compare_profile_shares(shares, BASELINE)
        assert "pairwise" in str(excinfo.value)

"""PlanProfiler: per-kernel timing, FLOP accounting, report tables."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.data.dataset import iterate_batches
from repro.infer import PlanProfiler, compile_model


@pytest.fixture(scope="module")
def batch(test_set):
    return next(iterate_batches(test_set, 32))


@pytest.fixture()
def compiled(test_set):
    model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
    model.eval()
    return compile_model(model)


def _profiled(profiler, compiled, batch, runs=1):
    """Score ``batch`` ``runs`` times with both plans feeding ``profiler``."""
    with profiler.profiling(compiled.gate_plan, compiled.score_plan):
        for _ in range(runs):
            compiled.predict_proba(batch)
    return profiler


class TestAttachment:
    def test_detached_plan_has_no_profiler(self, compiled, batch):
        assert compiled.gate_plan.step_hook is None
        assert compiled.score_plan.step_hook is None
        profiler = PlanProfiler()
        compiled.predict_proba(batch)
        assert profiler.report() == []

    def test_attach_and_detach(self, compiled, batch):
        profiler = PlanProfiler()
        with profiler.profiling(compiled.gate_plan, compiled.score_plan):
            assert compiled.gate_plan.step_hook is not None
            baseline = compiled.predict_proba(batch)
        assert profiler.total_seconds() > 0.0
        # Leaving the block restores the untimed loop.
        assert compiled.gate_plan.step_hook is compiled.score_plan.step_hook is None
        recorded = profiler.total_seconds()
        again = compiled.predict_proba(batch)
        assert np.array_equal(again, baseline)
        assert profiler.total_seconds() == recorded

    def test_profiled_scores_match_unprofiled(self, compiled, batch):
        baseline = compiled.predict_proba(batch)
        with PlanProfiler().profiling(compiled.gate_plan, compiled.score_plan):
            assert np.array_equal(compiled.predict_proba(batch), baseline)


class TestAccounting:
    def test_calls_and_shares(self, compiled, batch):
        runs = 3
        profiler = _profiled(PlanProfiler(), compiled, batch, runs)
        assert set(profiler.plans()) == {"gate", "score"}
        report = profiler.report()
        assert all(row["calls"] == runs for row in report)
        assert all(row["total_ms"] >= 0.0 for row in report)
        # Shares sum to 1 per plan, even in the combined report.
        for plan in ("gate", "score"):
            assert sum(profiler.shares(plan).values()) == pytest.approx(1.0)
        step_names = {row["step"] for row in report if row["plan"] == "score"}
        assert "experts" in step_names and "mix" in step_names

    def test_gemm_steps_carry_flops(self, compiled, batch):
        profiler = _profiled(PlanProfiler(), compiled, batch)
        by_step = {(row["plan"], row["step"]): row for row in profiler.report()}
        # The packed expert GEMM and the gate MLPs are cost-model priced...
        assert by_step[("score", "experts")]["mflops"] > 0.0
        assert by_step[("score", "experts")]["rows"] == 32
        # ...while gathers/concats are free in the FLOP model.
        assert by_step[("score", "input.behavior_repr")]["mflops"] == 0.0


class TestReports:
    def test_empty_report_message(self):
        assert PlanProfiler().report_table() == "PlanProfiler: no steps recorded"

    def test_combined_table_prefixes_plan_names(self, compiled, batch):
        profiler = _profiled(PlanProfiler(), compiled, batch)
        table = profiler.report_table(title="AWMoE kernel profile")
        assert "AWMoE kernel profile" in table
        assert "score.experts" in table
        assert "gate." in table
        assert "% plan" in table and "MFLOP" in table

    def test_single_plan_table_drops_prefix(self, compiled, batch):
        profiler = _profiled(PlanProfiler(), compiled, batch)
        table = profiler.report_table(plan="score", title="plan 'score' kernel profile")
        assert "plan 'score' kernel profile" in table
        assert "score.experts" not in table  # bare step names within one plan
        assert "experts" in table

    def test_report_rows_are_json_ready(self, compiled, batch):
        import json

        json.dumps(_profiled(PlanProfiler(), compiled, batch).report())

"""Serving cost model, engine simulator, and A/B test."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.retrieval import CascadeConfig
from repro.serving import (
    SearchEngine,
    compare_gate_strategies,
    compare_retrieval_strategies,
    gate_network_flops,
    mlp_flops,
    model_flops,
    run_ab_test,
)
from repro.data.schema import validate_batch


class TestCostModel:
    def test_mlp_flops_hand_computed(self):
        # 4 -> 8 -> 2: 2*4*8 + 2*8*2 = 64 + 32
        assert mlp_flops(4, [8, 2]) == 96

    def test_gate_flops_scale_with_sequence(self, test_set):
        config = ModelConfig.paper()
        short = gate_network_flops(config, test_set.meta, seq_len=10)
        long = gate_network_flops(config, test_set.meta, seq_len=1000)
        assert long > 50 * short

    def test_gate_saving_matches_items_per_session(self, test_set):
        report = compare_gate_strategies(ModelConfig.paper(), test_set.meta, 40, 100)
        assert report.gate_saving_factor == 40.0

    def test_paper_scenario_exceeds_10x(self, test_set):
        """§III-F: "> 10x saving" refers to the gate-network overhead — the
        deployed design evaluates the gate once per session instead of once
        per candidate item, so gate resources shrink by the session size."""
        report = compare_gate_strategies(
            ModelConfig.paper(), test_set.meta, items_per_session=40, seq_len=1000
        )
        assert report.gate_saving_factor > 10.0
        gate_cost_per_item_design = report.gate_flops * report.items_per_session
        gate_cost_per_session_design = report.gate_flops
        assert gate_cost_per_item_design / gate_cost_per_session_design > 10.0
        # End-to-end, the saving is smaller (input network + experts still run
        # per item) but strictly positive.
        assert report.total_saving_factor > 1.0

    def test_total_cost_ordering(self, test_set):
        config = ModelConfig.paper()
        per_item = model_flops(config, test_set.meta, 100, gate_per_item=True, items=20)
        per_session = model_flops(config, test_set.meta, 100, gate_per_item=False, items=20)
        assert per_item > per_session

    def test_behavior_side_is_paid_once_per_session(self, test_set):
        """The input network's session term (seq_len x MLP^I + query MLP)
        is charged per item by the unfactored totals and once by the
        factored one; the per-candidate term is untouched."""
        config, meta = ModelConfig.paper(), test_set.meta
        report = compare_gate_strategies(config, meta, items_per_session=40, seq_len=100)
        assert report.behavior_flops > 0
        assert report.per_session_total - report.factored_total == 39 * report.behavior_flops
        assert report.behavior_saving_factor > 1.0
        assert model_flops(
            config, meta, 100, gate_per_item=False, items=40, behavior_per_item=False
        ) == report.factored_total
        longer = compare_gate_strategies(config, meta, items_per_session=40, seq_len=200)
        assert longer.behavior_flops > 1.9 * report.behavior_flops

    def test_invalid_items(self, test_set):
        with pytest.raises(ValueError):
            compare_gate_strategies(ModelConfig.paper(), test_set.meta, 0, 10)


class TestCascadeCostModel:
    def test_cascade_beats_exhaustive_on_large_categories(self, test_set):
        report = compare_retrieval_strategies(
            ModelConfig.paper(),
            test_set.meta,
            seq_len=20,
            category_size=10_000,
            cascade=CascadeConfig(retrieve_n=1024, prune=256, nprobe=8),
            vector_dim=16,
        )
        assert report.ranker_saving_factor == 10_000 / 256
        assert report.total_saving_factor > 5.0
        # Stage 1+2 are a rounding error next to one full-model candidate.
        per_item = report.exhaustive_flops / 10_000
        assert report.stage1_flops + report.prefilter_flops < 10 * per_item

    def test_exhaustive_cascade_costs_more_than_exhaustive(self, test_set):
        """Parity mode scans everything *and* runs the ranker on everything
        — strictly more work, which is why it is a test oracle, not a
        serving mode."""
        report = compare_retrieval_strategies(
            ModelConfig.paper(),
            test_set.meta,
            seq_len=20,
            category_size=500,
            cascade=CascadeConfig.exhaustive(),
            vector_dim=16,
        )
        assert report.survivors == 500
        assert report.cascade_flops > report.exhaustive_flops
        assert report.total_saving_factor < 1.0

    def test_report_is_json_ready(self, test_set):
        import json

        report = compare_retrieval_strategies(
            ModelConfig.unit(),
            test_set.meta,
            seq_len=8,
            category_size=100,
            cascade=CascadeConfig(retrieve_n=32, prune=8, nprobe=2),
            vector_dim=10,
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["survivors"] == 8
        assert payload["total_saving_factor"] > 1.0

    def test_invalid_category_size(self, test_set):
        with pytest.raises(ValueError):
            compare_retrieval_strategies(
                ModelConfig.unit(), test_set.meta, 8, 0, CascadeConfig(), 10
            )


class TestSearchEngine:
    @pytest.fixture()
    def engine(self, unit_world, test_set):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        return SearchEngine(unit_world, model, np.random.default_rng(1))

    def test_retrieval_respects_category(self, engine, unit_world):
        candidates = engine.retrieve(2)
        assert np.all(unit_world.item_category[candidates] == 2)

    def test_batch_is_valid(self, engine):
        candidates = engine.retrieve(1)
        batch = engine.build_batch(0, 1, candidates)
        validate_batch(batch.flat())

    def test_search_returns_sorted_scores(self, engine):
        result = engine.search(user=3, query_category=2)
        assert np.all(np.diff(result.scores) <= 0)
        assert result.items.size == result.scores.size

    def test_latency_tracked(self, engine):
        engine.search(1, 0)
        engine.search(2, 1)
        assert engine.queries_served == 2
        assert engine.avg_latency_ms > 0

    def test_avg_latency_zero_before_queries(self, unit_world, test_set):
        model = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        assert engine.avg_latency_ms == 0.0

    def test_mean_latency_alias_removed(self, engine):
        """The deprecated ``mean_latency_ms`` alias (warned since PR 3) is
        gone; ``avg_latency_ms`` is the only name."""
        assert not hasattr(engine, "mean_latency_ms")

    def test_retrieve_small_category_returns_whole_inventory(self, unit_world, test_set):
        """A category with fewer items than candidates_per_query exposes all
        of its items — no sampling error, no short list surprises."""
        model = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        engine = SearchEngine(
            unit_world, model, np.random.default_rng(1),
            candidates_per_query=unit_world.num_items + 1,
        )
        members = np.flatnonzero(unit_world.item_category == 3)
        assert members.size < engine.candidates_per_query
        candidates = engine.retrieve(3)
        np.testing.assert_array_equal(np.sort(candidates), members)
        # And the full pipeline serves such a category end to end.
        result = engine.search(user=2, query_category=3)
        assert result.items.size == members.size

    def test_retrieve_empty_category_raises(self, unit_world, test_set):
        model = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        # Rebound: the tuple is the world's shared catalog table.
        engine._by_category = (np.array([], dtype=np.int64), *engine._by_category[1:])
        with pytest.raises(ValueError):
            engine.retrieve(0)


class TestSessionGateScoring:
    """The §III-F1 decomposed path: gate once per session, experts per item."""

    @pytest.fixture()
    def engine(self, unit_world, test_set):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        return SearchEngine(unit_world, model, np.random.default_rng(1))

    def test_session_gate_matches_full_forward(self, engine):
        candidates = engine.retrieve(1)
        batch = engine.build_batch(3, 1, candidates)
        gate = engine.serving_gate(batch)[0]
        assert gate is not None and gate.ndim == 1
        full = engine.model.gate_outputs(batch.flat())
        assert len(full) == candidates.size
        np.testing.assert_allclose(full, np.tile(gate, (len(full), 1)), rtol=1e-6)

    def test_score_with_gate_override_identical(self, engine):
        candidates = engine.retrieve(2)
        batch = engine.build_batch(5, 2, candidates)
        plain = engine.score_candidates(batch)
        gated = engine.score_candidates(batch, gate=engine.serving_gate(batch)[0])
        np.testing.assert_allclose(plain, gated, rtol=1e-6, atol=1e-7)

    def test_gateless_model_reports_no_session_gate(self, unit_world, test_set):
        model = build_model("din", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        assert not engine.supports_session_gate
        candidates = engine.retrieve(1)
        batch = engine.build_batch(3, 1, candidates)
        # A gate argument is ignored rather than crashing the scorer.
        scores = engine.score_candidates(batch, gate=np.ones(4, dtype=np.float32))
        assert scores.shape == (candidates.size,)

    def test_eager_engine_scores_its_own_session_batch(self, unit_world, engine):
        """``compile=False`` serves the same factored batches: the eager
        forward reads their flat rows, a per-session gate is expanded."""
        eager = SearchEngine(unit_world, engine.model, np.random.default_rng(1), compile=False)
        candidates = eager.retrieve(2)
        batch = eager.build_batch(5, 2, candidates)
        scores = eager.score_candidates(batch)
        assert scores.shape == (candidates.size,)
        np.testing.assert_array_equal(scores, engine.model.predict_proba(batch.flat()))
        gate = eager.serving_gate(batch)[0]
        np.testing.assert_array_equal(gate, engine.model.serving_gate(batch.flat())[0])
        np.testing.assert_allclose(
            eager.score_candidates(batch, gate=gate), scores, rtol=1e-6, atol=1e-7
        )
        np.testing.assert_allclose(
            engine.score_candidates(batch, gate=gate), scores, rtol=1e-5, atol=1e-6
        )


class TestABTest:
    def test_oracle_beats_antioracle(self, unit_world, test_set):
        """A ranker aligned with true preferences must win UCVR over an
        inverted one — the sanity check for the simulator's sensitivity."""
        from repro.core.ranking_model import RankingModel
        from repro.nn import Tensor
        from repro.data.features import UserState, cross_features
        from repro.data.synthetic import _true_logits

        class OracleRanker(RankingModel):
            sign = 1.0

            def forward(self, batch):
                world = unit_world
                out = np.zeros(len(batch["label"]), dtype=np.float32)
                for i in range(len(out)):
                    user = int(batch["user_id"][i])
                    item = np.array([int(batch["target_item"][i]) - 1])
                    state = UserState(world, user)
                    cross = cross_features(state, world, item)
                    qcat = int(batch["query_category"][i]) - 1
                    out[i] = self.sign * _true_logits(world, user, item, qcat, cross)[0]
                return Tensor(out)

        class AntiOracle(OracleRanker):
            sign = -1.0

        result = run_ab_test(unit_world, AntiOracle(), OracleRanker(), num_users=160, seed=3)
        assert result.ucvr_b > result.ucvr_a
        assert result.ucvr_lift > 0

    def test_result_fields(self, unit_world, test_set):
        a = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        b = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(1))
        result = run_ab_test(unit_world, a, b, num_users=40, seed=2)
        assert result.users_a + result.users_b == 40
        assert 0 <= result.uctr_a <= 1
        assert 0 <= result.ucvr_b <= 1
        assert 0 <= result.uctr_p_value <= 1

    def test_too_few_users_rejected(self, unit_world, test_set):
        a = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_ab_test(unit_world, a, a, num_users=5)

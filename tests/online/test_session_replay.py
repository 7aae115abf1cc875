"""The canary replays sessions, not rows — and the flat replay is its twin.

A click-log hold-out keeps the ``SessionBatch`` it was assembled as;
``predict_scores`` feeds a compiled model session slices of it (the serving
path) and everything else flat row batches.  Twin contract (ROADMAP item 3b
will fold it into the registry): same scores within 1e-6 on the fused f32
plan, bitwise on the f64 parity plan, same canary verdicts.  The cost claims
are asserted by count (gate rows, arena bytes), never by wall clock.
"""

import numpy as np
import pytest

import repro.online.canary as canary_module
from repro.core import ModelConfig, build_model
from repro.data import WorldConfig
from repro.data.schema import SessionBatch
from repro.data.synthetic import generate_world, true_relevance
from repro.eval import predict_scores
from repro.infer import compile_model
from repro.online import CanaryGate, ClickLog, build_dataset


def _click_holdout(world, sessions, shown, seed=0):
    """A canary hold-out as the online loop builds it (no down-sampling);
    ``shown`` is a fixed list length or a (low, high) range for ragged ones.
    The most relevant third of every list is clicked, so a trained model
    beats a scrambled one on it."""
    rng = np.random.default_rng(seed)
    log = ClickLog()
    for _ in range(sessions):
        size = shown if isinstance(shown, int) else int(rng.integers(*shown))
        user = int(rng.integers(world.config.num_users))
        category = int(rng.integers(world.config.num_categories))
        items = rng.choice(world.num_items, size=size, replace=False)
        relevance = true_relevance(world, user, items, category)
        clicks = np.zeros(size, dtype=np.float32)
        clicks[np.argsort(-relevance)[: max(1, size // 3)]] = 1.0
        log.log_session(user, category, items, clicks)
    return build_dataset(world, log.read_new())


def _flat_twin(dataset):
    """The same rows with the session structure dropped."""
    flat = dataset.subset(np.arange(len(dataset)))
    assert flat.sessions is None
    return flat


def _spy_batches(monkeypatch, scorer):
    """Record the type of every batch ``scorer.predict_proba`` receives."""
    seen, real = [], scorer.predict_proba

    def spy(batch, **kwargs):
        seen.append(type(batch))
        return real(batch, **kwargs)

    monkeypatch.setattr(scorer, "predict_proba", spy)
    return seen


@pytest.fixture(scope="module")
def holdout(unit_world):
    return _click_holdout(unit_world, sessions=60, shown=(2, 13))


class TestBuildDatasetKeepsSessions:
    def test_sessions_are_the_rows(self, holdout):
        sessions = holdout.sessions
        assert isinstance(sessions, SessionBatch)
        assert (sessions.num_sessions, sessions.num_rows) == (60, len(holdout))
        for key, column in sessions.flat().items():
            np.testing.assert_array_equal(column, getattr(holdout, key), err_msg=key)

    def test_subset_drops_them(self, holdout):
        assert holdout.subset(np.arange(5)).sessions is None

    def test_downsampled_training_window_keeps_them_too(self, unit_world, holdout):
        log = ClickLog()
        log.log_session(1, 2, np.arange(6), np.array([1, 0, 0, 1, 0, 0], dtype=np.float32))
        train = build_dataset(unit_world, log.read_new(), rng=np.random.default_rng(0))
        assert train.sessions.num_rows == len(train) == 4


class TestSessionReplayIsTheFlatReplay:
    @pytest.mark.parametrize("batch_size", [1024, 64, 3])
    def test_scores_agree(self, make_model, holdout, monkeypatch, batch_size):
        model = make_model(trained=True)
        flat = _flat_twin(holdout)
        fused = compile_model(model)
        seen = _spy_batches(monkeypatch, fused)
        by_session = predict_scores(fused, holdout, batch_size)
        assert set(seen) == {SessionBatch}
        if batch_size == 3:  # under one session's rows: a session per chunk
            assert len(seen) == holdout.sessions.num_sessions
        del seen[:]
        by_row = predict_scores(fused, flat, batch_size)
        assert set(seen) == {dict}
        assert by_session.shape == by_row.shape == (len(holdout),)
        np.testing.assert_allclose(by_session, by_row, rtol=0, atol=1e-6)

        # The parity plan repeats the session side to the flat shapes, so
        # chunks cut at the same rows are bitwise equal; chunks cut elsewhere
        # differ by BLAS's shape-dependent last bit.
        parity = compile_model(model, dtype=np.float64)
        by_session = predict_scores(parity, holdout, batch_size)
        by_row = predict_scores(parity, flat, batch_size)
        if batch_size >= len(holdout):
            np.testing.assert_array_equal(by_session, by_row)
        np.testing.assert_allclose(by_session, by_row, rtol=0, atol=1e-12)

    def test_chunks_respect_the_row_budget(self, make_model, holdout, monkeypatch):
        fused = compile_model(make_model(trained=True))
        sizes, real = [], fused.predict_proba
        monkeypatch.setattr(
            fused, "predict_proba", lambda batch: sizes.append(batch.num_rows) or real(batch)
        )
        predict_scores(fused, holdout, 64)
        assert sum(sizes) == len(holdout) and max(sizes) <= 64 and len(sizes) > 1
        with pytest.raises(ValueError):
            predict_scores(fused, holdout, 0)

    def test_verdicts_agree(self, make_model, holdout):
        flat = _flat_twin(holdout)
        production = make_model(trained=True)
        corrupted = make_model(trained=True)
        rng = np.random.default_rng(0)
        for param in corrupted.parameters():
            param.data += rng.normal(0.0, 1.0, size=param.data.shape).astype(param.data.dtype)
        gate = CanaryGate(tolerance=0.005)
        for candidate, incumbent in ((corrupted, production), (production, None)):
            by_session = gate.judge(candidate, incumbent, holdout)
            by_row = gate.judge(candidate, incumbent, flat)
            assert by_session.passed == by_row.passed == (incumbent is None)
            assert by_session.reasons == by_row.reasons
            assert by_session.candidate == pytest.approx(by_row.candidate, abs=1e-6)

    @pytest.mark.parametrize("name", ["din", "category_moe"])
    def test_uncompilable_baselines_replay_flat(self, unit_world, holdout, monkeypatch, name):
        model = build_model(name, ModelConfig.unit(), unit_world.meta(), np.random.default_rng(3))
        seen = _spy_batches(monkeypatch, model)
        metrics = CanaryGate().judge(model, None, holdout).candidate
        assert set(seen) == {dict}
        assert metrics == CanaryGate().judge(model, None, _flat_twin(holdout)).candidate

    def test_empty_dataset_scores_to_an_empty_array(self, make_model, holdout):
        model = make_model()
        empty = holdout.subset(np.arange(0))
        no_sessions = holdout.subset(np.arange(0))
        no_sessions.sessions = holdout.sessions.sessions(0, 0)
        for scorer, dataset in (
            (model, empty),
            (compile_model(model), empty),
            (compile_model(model), no_sessions),
        ):
            scores = predict_scores(scorer, dataset)
            assert scores.shape == (0,) and scores.dtype.kind == "f"


class TestReplayCostByCount:
    """``refresh-loop`` shapes: the small world and model, 169 sessions of 10."""

    def test_gate_runs_per_session_and_arenas_stay_small(self, monkeypatch):
        world = generate_world(WorldConfig.small(), np.random.default_rng(23))
        holdout = _click_holdout(world, sessions=169, shown=10)
        assert (holdout.sessions.num_sessions, len(holdout)) == (169, 1690)
        model = build_model("aw_moe", ModelConfig.small(), world.meta(), np.random.default_rng(0))

        compiled, gate_rows = [], []

        def counting_compile(source, *args, **kwargs):
            scorer = compile_model(source, *args, **kwargs)
            run = scorer.gate_plan.run

            def counted(batch, *run_args, **run_kwargs):
                gate = run(batch, *run_args, **run_kwargs)
                gate_rows.append(gate.shape[0])
                return gate

            scorer.gate_plan.run = counted
            compiled.append(scorer)
            return scorer

        monkeypatch.setattr(canary_module, "compile_model", counting_compile)
        report = CanaryGate().judge(model, None, holdout)
        assert report.passed
        (candidate,) = compiled
        assert sum(gate_rows) == 169  # one gate row per session, not per impression
        stats = candidate.stats()
        assert stats["score"]["calls"] == stats["gate"]["calls"] == 2
        arena_mib = (stats["score"]["arena_bytes"] + stats["gate"]["arena_bytes"]) / 2**20
        assert arena_mib < 40, f"replay arenas hold {arena_mib:.1f} MiB"

        # The flat twin of the same judgement is what the budget replaces.
        del compiled[:], gate_rows[:]
        CanaryGate().judge(model, None, _flat_twin(holdout))
        assert sum(gate_rows) == 1690

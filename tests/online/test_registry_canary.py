"""Model registry lifecycle/persistence and the canary regression gate."""

import weakref

import numpy as np
import pytest

import repro.online.canary as canary_module
from repro.core import ModelConfig, build_model
from repro.data import WorldConfig
from repro.data.synthetic import generate_world
from repro.infer import compile_model
from repro.online import CanaryGate, ClickLog, IncrementalTrainer, ModelRegistry, build_dataset


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "registry"), clock=lambda: 42.0)


class TestRegistryLifecycle:
    def test_register_assigns_increasing_versions(self, registry, make_model):
        model = make_model(trained=True)
        first = registry.register(model)
        second = registry.register(model, parent=first.version)
        assert (first.version, second.version) == (1, 2)
        assert second.parent == 1
        assert first.status == "candidate"
        assert registry.label(first.version) == "v0001"

    def test_promote_archives_previous_production(self, registry, make_model):
        model = make_model(trained=True)
        first = registry.register(model)
        second = registry.register(model)
        registry.promote(first.version)
        registry.promote(second.version, metrics={"auc": 0.8})
        assert registry.production.version == second.version
        assert registry.get(first.version).status == "archived"
        assert registry.get(second.version).metrics["auc"] == 0.8

    def test_rejected_cannot_be_promoted(self, registry, make_model):
        entry = registry.register(make_model(trained=True))
        registry.reject(entry.version, metrics={"auc": 0.1})
        assert registry.num_rejected == 1
        with pytest.raises(ValueError):
            registry.promote(entry.version)

    def test_production_cannot_be_rejected(self, registry, make_model):
        entry = registry.register(make_model(trained=True))
        registry.promote(entry.version)
        with pytest.raises(ValueError):
            registry.reject(entry.version)

    def test_unknown_version_raises(self, registry):
        with pytest.raises(KeyError):
            registry.get(99)


class TestRegistryPersistence:
    def test_index_survives_reopen(self, tmp_path, make_model):
        root = str(tmp_path / "registry")
        registry = ModelRegistry(root, clock=lambda: 1.0)
        model = make_model(trained=True)
        entry = registry.register(model, window=(10, 30), metrics={"auc": 0.7})
        registry.promote(entry.version)

        reopened = ModelRegistry(root)
        assert reopened.latest_version == 1
        assert reopened.production.version == 1
        assert reopened.get(1).window == (10, 30)
        assert reopened.get(1).metrics["auc"] == 0.7

    def test_checkpoint_round_trip_is_bitwise(self, registry, make_model):
        """Registry load produces bitwise-identical predictions — deploying
        through the registry introduces zero skew."""
        source = make_model(trained=True)
        entry = registry.register(source)
        restored = registry.load_into(entry.version, make_model(trained=False))
        for (name, a), (_, b) in zip(
            sorted(source.state_dict().items()), sorted(restored.state_dict().items())
        ):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_trainer_checkpoint_round_trip(
        self, registry, make_model, online_train_config, train_set
    ):
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=2)
        trainer.update(train_set.subset(np.arange(80)))
        entry = registry.register(trainer.model, trainer=trainer)

        fresh_model = make_model(trained=False)
        fresh_trainer = IncrementalTrainer(fresh_model, online_train_config, seed=2)
        registry.load_into(entry.version, fresh_model, trainer=fresh_trainer)
        assert fresh_trainer.updates == trainer.updates
        assert fresh_trainer.optimizer._step_count == trainer.optimizer._step_count

    def test_rollback_then_update_still_trains_the_packed_model(
        self, registry, make_model, online_train_config, train_set
    ):
        """The loop's rollback restores a version into the training twin and
        its optimizer (``load_into(..., trainer=...)``); the restore copies
        into the packed parameters, so the next update still trains them."""
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=2)
        trainer.update(train_set.subset(np.arange(80)))
        parent = registry.register(trainer.model, trainer=trainer)
        trainer.update(train_set.subset(np.arange(80, 160)))
        registry.load_into(parent.version, trainer.model, trainer=trainer)
        optimizer = trainer.optimizer
        (flat,) = optimizer._flats
        for param in trainer.model.parameters():
            assert np.shares_memory(param.data, flat.rows)
        restored = trainer.model.state_dict()
        trainer.update(train_set.subset(np.arange(160, 240)))
        after = trainer.model.state_dict()
        assert all(not np.array_equal(restored[name], after[name]) for name in restored)

    def test_trainer_model_mismatch_rejected(
        self, registry, make_model, online_train_config
    ):
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=2)
        with pytest.raises(ValueError):
            registry.register(make_model(trained=True), trainer=trainer)


class TestCanaryGate:
    def test_identical_candidate_passes(self, make_model, test_set):
        gate = CanaryGate(tolerance=0.0)
        report = gate.judge(make_model(trained=True), make_model(trained=True), test_set)
        assert report.passed
        assert report.candidate == report.production

    def test_first_deployment_passes_by_default(self, make_model, test_set):
        report = CanaryGate().judge(make_model(trained=True), None, test_set)
        assert report.passed
        assert report.production is None

    def test_corrupted_candidate_is_blocked(self, make_model, test_set):
        """The acceptance-criteria sanity check: a candidate with scrambled
        weights must never reach production."""
        production = make_model(trained=True)
        corrupted = make_model(trained=True)
        rng = np.random.default_rng(0)
        for param in corrupted.parameters():
            param.data += rng.normal(0.0, 1.0, size=param.data.shape).astype(
                param.data.dtype
            )
        report = CanaryGate(tolerance=0.005).judge(corrupted, production, test_set)
        assert not report.passed
        assert report.reasons
        assert "FAIL" in str(report)

    def test_validation(self):
        with pytest.raises(ValueError):
            CanaryGate(tolerance=-0.1)


class TestCanaryMemory:
    """One 1,024-row replay chunk (128 sessions of 8) on the small world
    and model ``refresh-loop`` serves, asserted by count (arena bytes, live
    plans), never by clock."""

    @pytest.fixture(scope="class")
    def setup(self):
        world = generate_world(WorldConfig.small(), np.random.default_rng(23))
        rng = np.random.default_rng(0)
        log = ClickLog()
        for _ in range(128):
            clicks = np.zeros(8, dtype=np.float32)
            clicks[:2] = 1.0
            log.log_session(
                int(rng.integers(world.config.num_users)),
                int(rng.integers(world.config.num_categories)),
                rng.choice(world.num_items, size=8, replace=False),
                clicks,
            )
        holdout = build_dataset(world, log.read_new())
        assert (len(holdout), holdout.num_sessions()) == (1024, 128)
        models = [
            build_model("aw_moe", ModelConfig.small(), world.meta(), np.random.default_rng(seed))
            for seed in (0, 1)
        ]
        return holdout, models

    def test_candidate_plan_is_released_before_production_compiles(self, setup, monkeypatch):
        holdout, (candidate, production) = setup
        plans = []

        def tracking_compile(model, *args, **kwargs):
            if plans:  # the production compile: the candidate's plan is gone
                assert plans[0]() is None
            scorer = compile_model(model, *args, **kwargs)
            plans.append(weakref.ref(scorer))
            return scorer

        monkeypatch.setattr(canary_module, "compile_model", tracking_compile)
        report = CanaryGate(tolerance=1.0).judge(candidate, production, holdout)
        assert report.passed and report.production is not None
        assert len(plans) == 2

    def test_replay_arenas_skip_the_padding(self, setup, monkeypatch):
        holdout, (candidate, _) = setup
        plans = []

        def keeping_compile(model, *args, **kwargs):
            plans.append(compile_model(model, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(canary_module, "compile_model", keeping_compile)
        CanaryGate().judge(candidate, None, holdout)
        (plan,) = plans
        stats = plan.stats()
        assert stats["score"]["calls"] == stats["gate"]["calls"] == 1  # one chunk
        arena_mib = (stats["score"]["arena_bytes"] + stats["gate"]["arena_bytes"]) / 2**20
        assert arena_mib <= 10, f"replay arenas hold {arena_mib:.1f} MiB"

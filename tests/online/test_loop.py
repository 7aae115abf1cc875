"""OnlineLoop end to end: refresh cycles, skew-freedom, empty-log identity."""

import time

import numpy as np
import pytest

from repro.infer import shared_memory_available
from repro.obs import AlertManager
from repro.online import (
    CanaryGate,
    ClickModelConfig,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import FleetConfig, FleetContext, ManualClock, ZipfLoadGenerator, build_fleet


def _make_loop(
    tmp_path,
    unit_world,
    make_model,
    train_config,
    relevance_fn=None,
    tolerance=1.0,
):
    clock = ManualClock()
    trainer = IncrementalTrainer(make_model(trained=True), train_config, seed=5)
    cluster = build_fleet(
        unit_world,
        make_model(trained=False),
        FleetConfig(
            num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
            cache_capacity=128,
        ),
        backend="inprocess",
        ctx=FleetContext(clock=clock),
    )
    loop = OnlineLoop(
        world=unit_world,
        cluster=cluster,
        trainer=trainer,
        model_factory=lambda: make_model(trained=False),
        registry=ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0),
        # tolerance=1.0 keeps unit-scale tests deterministic (tiny holdouts
        # are too noisy to gate on); the gating itself is tested separately.
        canary=CanaryGate(tolerance=tolerance),
        click_model=PositionBiasedClickModel(
            unit_world,
            np.random.default_rng(3),
            ClickModelConfig(),
            relevance_fn=relevance_fn,
        ),
        seed=11,
    )
    return loop


def _events(unit_world, count, seed=7):
    return ZipfLoadGenerator(
        np.random.default_rng(seed), world=unit_world, target_qps=500.0
    ).generate(count)


class TestBootstrap:
    def test_bootstrap_deploys_v1(self, tmp_path, unit_world, make_model, online_train_config):
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        version = loop.bootstrap()
        assert version == 1
        assert loop.production_version == 1
        assert loop.cluster.model_version == "v0001"
        with pytest.raises(RuntimeError):
            loop.bootstrap()

    def test_cycle_before_bootstrap_raises(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        with pytest.raises(RuntimeError):
            loop.run_cycle([])

    def test_bootstrap_serving_copy_is_bitwise_offline_model(
        self, tmp_path, unit_world, make_model, online_train_config, test_set
    ):
        """Acceptance criterion: the offline-trained model and the same model
        passed through the online deployment path (checkpoint → registry →
        fresh serving copy) produce bitwise-identical rankings."""
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        loop.bootstrap()
        offline = make_model(trained=True)
        batch = test_set.batch_at(np.arange(min(len(test_set), 256)))
        np.testing.assert_array_equal(
            offline.predict_proba(batch), loop.production_model.predict_proba(batch)
        )


class TestRefreshCycles:
    def test_each_cycle_registers_a_new_version(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        loop.bootstrap()
        versions = []
        for cycle in range(3):
            report = loop.run_cycle(_events(unit_world, 60, seed=20 + cycle))
            assert report.cycle == cycle
            assert report.sessions_logged == 60
            assert report.candidate_version is not None
            versions.append(report.candidate_version)
        assert versions == [2, 3, 4]
        assert loop.registry.latest_version == 4
        # Promotions hot-swapped the fleet and were recorded.
        assert loop.cluster.control.swaps >= 1
        summary = loop.cluster.summary()
        assert summary["online"]["canary_passes"] + summary["online"]["canary_failures"] >= 1

    def test_log_lag_reported_then_drained(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        loop.bootstrap()
        report = loop.run_cycle(_events(unit_world, 40))
        assert report.log_lag == 40
        assert loop.click_log.lag == 0

    def test_rejected_candidate_leaves_production_serving(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        """A failing canary must leave the fleet on the old version."""
        loop = _make_loop(
            tmp_path, unit_world, make_model, online_train_config, tolerance=0.0
        )
        loop.bootstrap()
        production_before = loop.production_model

        # Sabotage the trainer so its candidate is garbage.
        rng = np.random.default_rng(0)
        for param in loop.trainer.model.parameters():
            param.data += rng.normal(0, 2.0, size=param.data.shape).astype(
                param.data.dtype
            )
        report = loop.run_cycle(_events(unit_world, 80))
        if report.canary is not None:  # tiny-traffic cycles may lack a holdout
            assert not report.promoted
            assert loop.registry.get(report.candidate_version).status == "rejected"
            assert loop.production_model is production_before
            assert loop.production_version == 1


class TestEmptyLogIdentity:
    def test_no_traffic_cycle_is_a_noop(
        self, tmp_path, unit_world, make_model, online_train_config, test_set
    ):
        loop = _make_loop(tmp_path, unit_world, make_model, online_train_config)
        loop.bootstrap()
        batch = test_set.batch_at(np.arange(min(len(test_set), 256)))
        before = loop.production_model.predict_proba(batch)
        report = loop.run_cycle([])
        assert report.candidate_version is None
        assert report.train_rows == 0
        assert loop.production_version == 1
        np.testing.assert_array_equal(before, loop.production_model.predict_proba(batch))

    def test_clickless_traffic_changes_nothing(
        self, tmp_path, unit_world, make_model, online_train_config, test_set
    ):
        """Traffic that produces zero clicks (empty click log content) must
        leave the production rankings bitwise-identical."""
        loop = _make_loop(
            tmp_path,
            unit_world,
            make_model,
            online_train_config,
            relevance_fn=lambda user, items, category: np.zeros(len(items)),
        )
        loop.bootstrap()
        batch = test_set.batch_at(np.arange(min(len(test_set), 256)))
        before = loop.production_model.predict_proba(batch)
        report = loop.run_cycle(_events(unit_world, 40))
        assert report.clicks == 0
        assert report.candidate_version is None
        assert loop.production_model is not None
        np.testing.assert_array_equal(before, loop.production_model.predict_proba(batch))


class TestAlertsOnEitherBackend:
    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_one_cycle_evaluates_a_rule_over_fleet_health(
        self, backend, tmp_path, unit_world, make_model, online_train_config
    ):
        # The loop evaluates alerts on the fleet's one snapshot: the fleet
        # scalars (telemetry_extra) and the pooled serving registry must
        # reach the rules on both backends, not only the trainer's metrics.
        if backend == "process" and not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        alerts = AlertManager([
            "open-breakers: open_breakers >= 1",
            "fleet-capacity: workers_available < 1",
            "served: repro_queries_total > 1000000",
            "restarted: worker_restarts >= 1",
        ])
        with build_fleet(
            unit_world,
            make_model(trained=False),
            FleetConfig(num_workers=2, seed=0, max_batch_size=4, restart_backoff_s=0.01),
            backend=backend,
            ctx=FleetContext(alerts=alerts),
        ) as fleet:
            loop = OnlineLoop(
                world=unit_world,
                cluster=fleet,
                trainer=IncrementalTrainer(
                    make_model(trained=True), online_train_config, seed=5
                ),
                model_factory=lambda: make_model(trained=False),
                registry=ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0),
                canary=CanaryGate(tolerance=1.0),
                click_model=PositionBiasedClickModel(
                    unit_world, np.random.default_rng(3), ClickModelConfig()
                ),
                seed=11,
            )
            loop.bootstrap()
            report = loop.run_cycle(_events(unit_world, 40))
            assert report.queries_served == 40
            assert report.alerts is None  # evaluated, nothing fired
            assert alerts.evaluations == 1
            assert alerts.events is fleet.control.events
            last = {row["rule"]: row["last_value"] for row in alerts.status()}
            assert last == {
                "open-breakers": 0.0, "fleet-capacity": 2.0, "served": 40.0, "restarted": 0.0
            }
            if backend == "process":
                # A worker death reaches the rules through the same snapshot.
                fleet.kill_worker(0)
                deadline = time.monotonic() + 10.0

                def restarted():
                    # The state reads "healthy" until a poll notices the
                    # death, so wait for the death event first.
                    died = fleet.control.events.counts().get("worker_died", 0)
                    return died >= 1 and fleet.workers[0].state == "healthy"

                while not restarted() and time.monotonic() < deadline:
                    fleet.poll()
                    time.sleep(0.01)
                assert restarted()
                report = loop.run_cycle(_events(unit_world, 20, seed=8))
                assert report.queries_served >= 20  # at-least-once delivery
                (fired,) = [row for row in report.alerts if row["rule"] == "restarted"]
                assert fired["action"] == "fired" and fired["value"] >= 1.0

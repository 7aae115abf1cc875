"""OnlineLoop under injected chaos: retries, quarantine, rollback, soak."""

import json

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    TransientFault,
    breaker,
    default_chaos_plan,
    run_chaos_soak,
)
from repro.obs import AlertManager
from repro.online.loop import RETRY_ATTEMPTS
from repro.online import (
    CanaryGate,
    ClickLog,
    ClickModelConfig,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import (
    DegradationPolicy,
    FleetConfig,
    FleetContext,
    ManualClock,
    ZipfLoadGenerator,
    build_fleet,
)


def _chaos_loop(
    tmp_path,
    unit_world,
    make_model,
    train_config,
    plan,
    watch_cycles=0,
    alerts=None,
    policy=None,
):
    """The standard loop harness with the fault injector threaded everywhere."""
    clock = ManualClock()
    inj = FaultInjector(plan, sleeper=clock.advance, clock=clock.now)
    trainer = IncrementalTrainer(
        make_model(trained=True), train_config, seed=5, injector=inj
    )
    cluster = build_fleet(
        unit_world,
        make_model(trained=False),
        FleetConfig(
            num_workers=2,
            seed=0,
            max_batch_size=4,
            flush_deadline_ms=5.0,
            cache_capacity=128,
            policy=policy,
        ),
        backend="inprocess",
        ctx=FleetContext(clock=clock, injector=inj, alerts=alerts),
    )
    loop = OnlineLoop(
        world=unit_world,
        cluster=cluster,
        trainer=trainer,
        model_factory=lambda: make_model(trained=False),
        registry=ModelRegistry(
            str(tmp_path / "registry"), clock=lambda: 0.0, injector=inj
        ),
        canary=CanaryGate(tolerance=1.0, injector=inj),
        click_model=PositionBiasedClickModel(
            unit_world, np.random.default_rng(3), ClickModelConfig()
        ),
        click_log=ClickLog(path=str(tmp_path / "clicks.jsonl"), injector=inj),
        seed=11,
        watch_cycles=watch_cycles,
    )
    return loop, inj


def _events(unit_world, count, seed=7):
    return ZipfLoadGenerator(
        np.random.default_rng(seed), world=unit_world, target_qps=500.0
    ).generate(count)


class TestTransientRetry:
    def test_transient_train_and_canary_faults_are_retried(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        plan = FaultPlan(
            specs=[
                FaultSpec("trainer.update", "transient", times=1),
                FaultSpec("canary.judge", "transient", times=1),
            ]
        )
        loop, _ = _chaos_loop(
            tmp_path, unit_world, make_model, online_train_config, plan
        )
        loop.bootstrap()
        report = loop.run_cycle(_events(unit_world, 100))
        # Both stages hiccuped once and completed on retry.
        assert report.candidate_version == 2
        assert report.canary is not None
        assert loop.production_version == 2
        retries = loop.cluster.control.events.events("retry")
        assert {e.attrs["stage"] for e in retries} == {"train", "canary"}
        assert all(e.attrs["attempt"] == 1 for e in retries)

    def test_retry_exhaustion_reraises(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        plan = FaultPlan(
            specs=[FaultSpec("trainer.update", "transient", times=None)]
        )
        loop, _ = _chaos_loop(
            tmp_path, unit_world, make_model, online_train_config, plan
        )
        loop.bootstrap()
        with pytest.raises(TransientFault):
            loop.run_cycle(_events(unit_world, 100))
        retries = loop.cluster.control.events.events("retry")
        assert len(retries) == RETRY_ATTEMPTS  # every attempt logged
        assert loop.production_version == 1  # production untouched


class TestDeployRecovery:
    def test_corrupt_candidate_is_quarantined_and_rolled_back(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        # after=1 spares the bootstrap registration: the first *refresh*
        # candidate's checkpoint is the one corrupted on disk.
        plan = FaultPlan(
            specs=[FaultSpec("registry.checkpoint", "corrupt", after=1, times=1)]
        )
        loop, _ = _chaos_loop(
            tmp_path, unit_world, make_model, online_train_config, plan
        )
        loop.bootstrap()
        report = loop.run_cycle(_events(unit_world, 100))
        assert report.candidate_version == 2
        assert report.rollback is not None
        assert report.rollback["reason"] == "deploy_failed:CorruptCheckpointError"
        assert report.rollback["quarantined"] is True
        assert report.rollback["restored"] == 1
        # Registry: parent back in production, candidate quarantined forever.
        assert loop.production_version == 1
        assert loop.registry.get(2).status == "quarantined"
        with pytest.raises(ValueError):
            loop.registry.promote(2)
        # Fleet: never touched the corrupt candidate.
        assert loop.cluster.model_version == "v0001"
        counts = loop.cluster.control.events.counts()
        assert counts.get("quarantine") == 1
        assert counts.get("rollback") == 1
        # The loop heals: the next cycle's candidate deploys normally off
        # the restored parent lineage.
        follow_up = loop.run_cycle(_events(unit_world, 100, seed=8))
        assert follow_up.rollback is None
        assert loop.production_version == follow_up.candidate_version == 3

    def test_mid_swap_crash_is_rolled_back(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "swap.shard", "crash", after=1, times=1, match={"shard": 1}
                )
            ]
        )
        loop, _ = _chaos_loop(
            tmp_path, unit_world, make_model, online_train_config, plan
        )
        loop.bootstrap()
        report = loop.run_cycle(_events(unit_world, 100))
        assert report.rollback is not None
        assert report.rollback["reason"] == "deploy_failed:SwapFailed"
        assert report.rollback["quarantined"] is False
        assert loop.production_version == 1
        assert loop.registry.get(2).status == "rejected"
        # The cluster rolled its own shards back: consistent old generation.
        assert [w.engine.model_version for w in loop.cluster.workers] == [
            "v0001",
            "v0001",
        ]


class TestWatchWindow:
    def test_alert_inside_watch_window_demotes_the_fresh_version(
        self, tmp_path, unit_world, make_model, online_train_config, monkeypatch
    ):
        # Shard 0 starts crashing during cycle 2 — after cycle 1 promoted a
        # fresh version.  The open breaker fires the default resilience rule
        # inside the watch window, demoting the promotion back to its parent.
        monkeypatch.setattr(breaker, "COOLDOWN_S", 60.0)  # stays open for the whole cycle
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "batcher.submit", "crash", after=40, times=6, match={"shard": 0}
                )
            ]
        )
        loop, _ = _chaos_loop(
            tmp_path,
            unit_world,
            make_model,
            online_train_config,
            plan,
            watch_cycles=2,
            alerts=AlertManager(["open-breakers: open_breakers >= 1"]),
        )
        loop.bootstrap()
        first = loop.run_cycle(_events(unit_world, 60))
        assert first.candidate_version == 2
        assert loop.production_version == 2
        second = loop.run_cycle(_events(unit_world, 60, seed=8))
        assert second.rollback is not None
        assert second.rollback["reason"] == "alert:open-breakers"
        assert second.rollback["version"] == 2
        assert second.rollback["restored"] == 1
        assert loop.registry.get(2).status == "rejected"
        rollback_events = loop.cluster.control.events.events("rollback")
        assert rollback_events[0].attrs["reason"] == "alert:open-breakers"


class TestStateRecovery:
    def test_loop_surfaces_recovered_state_as_events(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        # Damage both persistence surfaces, then build a loop over them.
        registry_root = str(tmp_path / "registry")
        seed_registry = ModelRegistry(registry_root, clock=lambda: 0.0)
        seed_registry.register(make_model())
        seed_registry.register(make_model())
        with open(f"{registry_root}/registry.json", "w", encoding="utf-8") as handle:
            handle.write('{"versions": [{"torn')
        clicks_path = tmp_path / "clicks.jsonl"
        log = ClickLog(path=str(clicks_path))
        log.log_session(0, 0, np.array([1, 2]), np.array([1.0, 0.0]))
        with open(clicks_path, "a", encoding="utf-8") as handle:
            handle.write('{"session_id": 1, "torn\n')

        loop, _ = _chaos_loop(
            tmp_path, unit_world, make_model, online_train_config, FaultPlan()
        )
        events = loop.cluster.control.events.events("state_recovered")
        assert {e.attrs["component"] for e in events} == {"registry", "click_log"}
        registry_event = next(e for e in events if e.attrs["component"] == "registry")
        assert registry_event.attrs["source"] == "backup"
        log_event = next(e for e in events if e.attrs["component"] == "click_log")
        assert log_event.attrs["dropped"] == 1


class TestChaosSoak:
    def test_soak_answers_every_request_and_recovers(
        self, tmp_path, unit_world, make_model, online_train_config
    ):
        plan = default_chaos_plan(seed=3, shards=2)
        loop, inj = _chaos_loop(
            tmp_path,
            unit_world,
            make_model,
            online_train_config,
            plan,
            policy=DegradationPolicy(),
        )
        generator = ZipfLoadGenerator(
            np.random.default_rng(7), world=unit_world, target_qps=500.0
        )
        result = run_chaos_soak(
            loop, generator, cycles=3, events_per_cycle=60, injector=inj
        )
        # The availability invariant: degraded beats dropped — always.
        assert result["submitted"] == 180
        assert result["dropped"] == 0
        assert result["faults_fired"] > 0
        assert result["rollbacks"] >= 1
        assert result["event_counts"].get("fault_injected") == result["faults_fired"]
        json.dumps(result)  # the report is a serializable artifact
        # Both persistence surfaces restart clean after the beating.
        reloaded = ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0)
        assert reloaded.production is not None
        recovered = ClickLog(path=str(tmp_path / "clicks.jsonl"))
        assert recovered.dropped_records == 2  # the two torn appends
        assert recovered.recovered_sessions == 180 - 2

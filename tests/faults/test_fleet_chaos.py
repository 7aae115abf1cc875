"""Process-fleet chaos: SIGKILL mid-batch, the default fleet drill, and
the extended default plan/rule set."""

import time

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    default_chaos_plan,
    default_fault_alert_rules,
    default_fleet_chaos_plan,
    run_fleet_soak,
)
from repro.infer import shared_memory_available
from repro.obs import AlertManager
from repro.serving import FleetConfig, FleetContext, ZipfLoadGenerator, build_fleet

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture()
def generator(unit_world):
    return ZipfLoadGenerator(np.random.default_rng(5), world=unit_world)


def _slab_segments():
    import os

    return [n for n in os.listdir("/dev/shm") if n.startswith("repro_slab_")]


class TestDefaultPlanExtensions:
    def test_default_chaos_plan_covers_the_fleet_points(self):
        points = {spec.point for spec in default_chaos_plan().specs}
        assert {"worker.exec", "worker.heartbeat", "slab.publish"} <= points

    def test_fleet_points_are_inert_in_process(self):
        # The in-process path never visits worker.* / slab.* points, and
        # per-spec RNG streams mean appending them cannot shift the
        # schedules of the pre-existing specs.
        injector = FaultInjector(default_chaos_plan())
        for _ in range(50):
            try:
                injector.fire("trainer.update")
            except Exception:
                pass
        assert all(
            record["point"].startswith("trainer.") for record in injector.log
        )
        assert injector.fired("worker.exec") == 0
        assert injector.fired("slab.publish") == 0

    def test_default_rules_include_fleet_health(self):
        rules = default_fault_alert_rules()
        names = {rule.split(":")[0] for rule in rules}
        assert {"worker-flap", "worker-quarantine", "fleet-capacity"} <= names
        # Parse cleanly and stay quiet on a snapshot without fleet scalars:
        # absent data must not page the in-process path.
        manager = AlertManager(rules)
        fired = manager.evaluate({"shed_rate": 0.0, "open_breakers": 0.0}, now=0.0)
        assert fired == []

    def test_fleet_rules_fire_on_bad_telemetry(self):
        manager = AlertManager(default_fault_alert_rules())
        fired = {
            transition.rule.name
            for transition in manager.evaluate(
                {"worker_restarts": 5.0, "quarantined_workers": 1.0,
                 "workers_available": 0.0},
                now=0.0,
            )
        }
        assert {"worker-flap", "worker-quarantine", "fleet-capacity"} <= fired


class TestSigkillMidBatch:
    def test_zero_drops_and_restart_within_deadline(
        self, unit_world, make_model, generator
    ):
        # Satellite 1: SIGKILL a worker while its batcher holds queued
        # requests; nothing may drop and the supervisor must restart it
        # within the heartbeat deadline plus backoff.
        config = FleetConfig(
            num_workers=2,
            max_batch_size=8,
            flush_deadline_ms=1e6,  # keep requests queued in the batcher
            heartbeat_deadline_s=0.5,
            restart_backoff_s=0.02,
        )
        with build_fleet(unit_world, make_model(), config, backend="process") as fleet:
            traffic = generator.generate(30)
            results = []
            killed_at = None
            for index, event in enumerate(traffic):
                results.extend(fleet.submit(event.user, event.query_category))
                if index == 9:
                    assert fleet.kill_worker(0) is not None
                    killed_at = time.monotonic()
            results.extend(fleet.flush())
            deadline = killed_at + config.heartbeat_deadline_s + 1.0
            while time.monotonic() < deadline:
                fleet.poll()
                if fleet.workers[0].state == "healthy":
                    break
                time.sleep(0.01)
            recovered_in = time.monotonic() - killed_at
            assert fleet.workers[0].state == "healthy"
            assert recovered_in < config.heartbeat_deadline_s + 1.0
            assert len(results) >= len(traffic)  # zero drops (at-least-once)
            assert {r.user for r in results} >= {e.user for e in traffic}
            counts = fleet.control.events.counts()
            assert counts.get("worker_died", 0) >= 1
            assert counts.get("worker_restarted", 0) >= 1


class TestFleetSoak:
    def test_default_fleet_drill_survives_with_zero_drops(
        self, unit_world, make_model, generator
    ):
        # The full drill: worker 0 OOM-killed mid-batch, the last worker
        # declared hung after a lost-heartbeat burst, the first post-
        # bootstrap publish torn, and worker 0's first respawn failing
        # transiently.  Invariants: zero drops, >= 1 automatic restart,
        # no leaked shared-memory segments.
        plan = default_fleet_chaos_plan(seed=3, workers=2)
        config = FleetConfig(
            num_workers=2,
            heartbeat_interval_s=0.02,
            heartbeat_deadline_s=0.2,
            restart_backoff_s=0.02,
        )
        fleet = build_fleet(
            unit_world, make_model(), config, backend="process", version="v1",
            ctx=FleetContext(fault_plan=plan),
        )
        try:
            report = run_fleet_soak(
                fleet,
                generator,
                events=120,
                swap_models=[(make_model(trained=True), "v2")],
                settle_s=0.5,
            )
        finally:
            fleet.stop()
        assert report["dropped"] <= 0  # at-least-once: duplicates allowed
        assert report["restarts"] >= 1
        assert report["swaps"] == 1
        assert report["generation"] == 1
        assert report["event_counts"].get("worker_died", 0) >= 1
        # The torn publish was retried: two unlink reasons show up.
        assert report["event_counts"].get("slab_unlinked", 0) >= 2
        assert not _slab_segments()  # nothing leaked

    def test_soak_report_is_json_serializable(
        self, unit_world, make_model, generator
    ):
        import json

        config = FleetConfig(num_workers=2)
        with build_fleet(unit_world, make_model(), config, backend="process") as fleet:
            report = run_fleet_soak(fleet, generator, events=20)
        parsed = json.loads(json.dumps(report))
        assert parsed["submitted"] == 20
        assert parsed["dropped"] <= 0
        assert parsed["telemetry"]["workers_available"] == 2.0

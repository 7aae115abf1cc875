"""Process fleet supervisor: slab-backed workers, identity with the
in-process cluster, crash/hang recovery, and the generation-flip swap."""

import time

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.faults import FaultPlan, FaultSpec
from repro.infer import SnapshotSlab, shared_memory_available
from repro.obs import ShadowRecallMonitor
from repro.serving import pipe
from repro.serving import (
    TIER_POPULARITY,
    FleetConfig,
    FleetContext,
    SearchEngine,
    ZipfLoadGenerator,
    build_fleet,
    replay,
    shard_for_user,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(scope="module")
def fleet_model(unit_world_and_data):
    _, train, _ = unit_world_and_data
    return build_model(
        "aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(0)
    )


@pytest.fixture(scope="module")
def swap_target(unit_world_and_data):
    _, train, _ = unit_world_and_data
    return build_model(
        "aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(9)
    )


def _traffic(world, n):
    users = world.config.num_users
    return [
        (u % users, int(np.argmax(world.user_interests[u % users])))
        for u in range(n)
    ]


def _drain(fleet, traffic):
    results = []
    for user, category in traffic:
        results.extend(fleet.submit(user, category))
    results.extend(fleet.flush())
    return results


def _key(results):
    ordered = sorted(results, key=lambda r: (r.user, r.query_category))
    return (
        [(r.user, r.query_category) for r in ordered],
        np.concatenate([r.items for r in ordered]),
        np.concatenate([r.scores for r in ordered]),
    )


class TestBackends:
    def test_inprocess_backend_spawns_nothing(
        self, unit_world, fleet_model
    ):
        cluster = build_fleet(
            unit_world,
            fleet_model,
            FleetConfig(num_workers=2),
            backend="inprocess",
            version="v1",
        )
        counts = cluster.control.events.counts()
        assert "worker_spawned" not in counts and "slab_published" not in counts
        assert cluster.telemetry_extra()["slab_bytes"] == 0
        assert all(w.engine.model_version == "v1" for w in cluster.workers)

    def test_auto_prefers_processes_when_shm_works(self, unit_world, fleet_model):
        fleet = build_fleet(
            unit_world, fleet_model, FleetConfig(num_workers=1), backend="auto"
        )
        try:
            assert fleet.backend == "process"
        finally:
            fleet.stop()

    def test_cluster_kwargs_rejected_on_process_backend(
        self, unit_world, fleet_model
    ):
        with pytest.raises(TypeError, match=r"\['tracer'\].*in-process"):
            build_fleet(
                unit_world, fleet_model, backend="process", ctx=FleetContext(tracer=object())
            )

    def test_kill_worker_on_the_inprocess_backend_is_a_type_error(
        self, unit_world, fleet_model
    ):
        fleet = build_fleet(
            unit_world, fleet_model, FleetConfig(num_workers=1), backend="inprocess"
        )
        with pytest.raises(TypeError, match="process backend only, not backend='inprocess'"):
            fleet.kill_worker(0)

    def test_attach_shadow_recall_on_the_process_backend_is_a_type_error(
        self, unit_world, fleet_model
    ):
        with build_fleet(
            unit_world, fleet_model, FleetConfig(num_workers=1), backend="process"
        ) as fleet:
            with pytest.raises(TypeError, match="in-process backend only, not backend='process'"):
                fleet.attach_shadow_recall(ShadowRecallMonitor(rate=1.0))
            assert fleet.ctx.shadow_recall is None

    def test_process_fleet_matches_inprocess_bitwise(self, unit_world, fleet_model):
        config = FleetConfig(num_workers=3, seed=11)
        traffic = _traffic(unit_world, 30)
        inproc = build_fleet(unit_world, fleet_model, config, backend="inprocess")
        expected = _key(_drain(inproc, traffic))
        fleet = build_fleet(unit_world, fleet_model, config, backend="process")
        try:
            got = _key(_drain(fleet, traffic))
        finally:
            fleet.stop()
        assert got[0] == expected[0]
        np.testing.assert_array_equal(got[1], expected[1])
        np.testing.assert_array_equal(got[2], expected[2])


class TestOneSurface:
    """One fleet class over two transports: the same members answer on both."""

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_public_members_answer_on_both_backends(
        self, backend, unit_world, fleet_model, swap_target, tmp_path
    ):
        events = ZipfLoadGenerator(
            np.random.default_rng(2), world=unit_world
        ).generate(24)
        with build_fleet(
            unit_world,
            fleet_model,
            FleetConfig(num_workers=2, seed=4),
            backend=backend,
            version="v1",
        ) as fleet:
            assert len(replay(fleet, events)) == 24
            assert fleet.model_version == "v1"
            assert fleet.submit(3, 0) == []
            assert fleet.next_flush_due() is None or fleet.next_flush_due() > 0
            assert len(fleet.poll() + fleet.flush()) == 1
            fleet.refresh_reports()
            assert fleet.merged_metrics().queries == 25
            assert fleet.open_breakers == 0
            assert [row["state"] for row in fleet.breaker_status()] == ["closed"] * 2
            assert [row["state"] for row in fleet.worker_status()] == ["healthy"] * 2
            assert fleet.restarts_total == 0
            assert fleet.telemetry_extra()["slab_bytes"] >= 0
            assert fleet.telemetry_extra()["workers_available"] == 2.0
            # Collaborators nobody passed read as None / the null tracer.
            ctx = fleet.ctx
            assert ctx.slo is ctx.drift is ctx.alerts is ctx.shadow_recall is None
            assert not ctx.tracer.enabled
            summary = fleet.summary()
            assert summary["backend"] == backend
            assert sum(shard["queries"] for shard in summary["shards"]) == 25
            html = tmp_path / "fleet.html"
            report = fleet.fleet_report(dashboard_path=str(html))
            assert "fleet — 2 shard(s), model v1" in report
            assert "p95 ms" in report and "degradation ladder" in report
            if backend == "process":
                assert f"KiB in {summary['slab']['arrays']} arrays" in report
            assert f"dashboard: {html}" in report and html.stat().st_size > 0
            assert fleet.dashboard(str(html)) == str(html)
            fleet.swap_model(swap_target, "v2")
            assert fleet.model_version == "v2" and fleet.generation == 1
            assert fleet.control.events.counts()["hot_swap"] == 1
            fleet.stop()  # idempotent: the ``with`` exit stops again

    def test_inprocess_summary_keys_are_a_subset_of_the_process_keys(
        self, unit_world, fleet_model
    ):
        keys = {}
        for backend in ("inprocess", "process"):
            with build_fleet(unit_world, fleet_model, backend=backend) as fleet:
                _drain(fleet, _traffic(unit_world, 6))
                keys[backend] = set(fleet.summary())
        assert keys["inprocess"] <= keys["process"]
        assert {"slab", "recovered_segments"} <= keys["process"] - keys["inprocess"]

    def test_last_resort_is_one_popularity_floor(self, unit_world, fleet_model):
        # Every shard refuses (its batcher crashes on every submit): both
        # backends must give the answer SearchEngine.degraded_ranking gives.
        plan = FaultPlan(
            seed=0, specs=(FaultSpec("batcher.submit", "crash", times=None),)
        )
        user = 3
        category = int(np.argmax(unit_world.user_interests[user]))
        engine = SearchEngine(unit_world, fleet_model, np.random.default_rng(0))
        items, scores, tier = engine.degraded_ranking(user, category, TIER_POPULARITY)
        for backend in ("inprocess", "process"):
            with build_fleet(
                unit_world,
                fleet_model,
                FleetConfig(num_workers=2),
                backend=backend,
                version="v1",
                ctx=FleetContext(fault_plan=plan),
            ) as fleet:
                # A process worker refuses a buffered request when its batch
                # is sent, so the answer may come from the flush.
                (answer,) = fleet.submit(user, category) + fleet.flush()
                shed = fleet.control.events.events("load_shed")
                assert fleet.merged_metrics().shed == 1
            assert (answer.tier, answer.model_version) == (tier, "v1")
            np.testing.assert_array_equal(answer.items, items)
            np.testing.assert_array_equal(answer.scores, scores)
            assert answer.scores.dtype == np.float32
            assert [event.attrs for event in shed] == [
                {"user": user, "reason": "all_shards_unavailable"}
            ]


def _homed_on(world, shard, num_shards, count):
    users = [
        u for u in range(world.config.num_users) if shard_for_user(u, num_shards) == shard
    ][:count]
    return [(u, int(np.argmax(world.user_interests[u]))) for u in users]


class TestBatchedExchange:
    """The process backend sends each worker one message per batch."""

    def test_one_submit_exchange_per_full_batch(self, unit_world, fleet_model, monkeypatch):
        ops = []
        call = pipe.PipeTransport._call

        def counting(self, handle, op, *args, **kwargs):
            ops.append(op)
            return call(self, handle, op, *args, **kwargs)

        monkeypatch.setattr(pipe.PipeTransport, "_call", counting)
        config = FleetConfig(num_workers=1, max_batch_size=8)
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            answers = [fleet.submit(user, category) for user, category in _traffic(unit_world, 24)]
            assert ops.count("submit") == 3
            assert [len(got) for got in answers] == [0] * 7 + [8] + [0] * 7 + [8] + [0] * 7 + [8]
            assert fleet.flush() == [] and ops.count("submit") == 3

    def test_refusal_inside_a_buffered_batch_fails_over_like_inprocess(
        self, unit_world, fleet_model
    ):
        traffic = _homed_on(unit_world, 0, 2, 5)
        user = traffic[2][0]
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec("batcher.submit", "crash", match={"user": user, "shard": 0}),),
        )
        seen = {}
        for backend in ("inprocess", "process"):
            with build_fleet(
                unit_world, fleet_model, FleetConfig(num_workers=2), backend=backend,
                ctx=FleetContext(fault_plan=plan),
            ) as fleet:
                answers = [r for r in _drain(fleet, traffic) if r.user == user]
                failovers = fleet.control.events.events("shard_failover")
            (answer,) = answers
            seen[backend] = (answer, [event.attrs for event in failovers])
        (inproc, inproc_events), (answer, events) = seen["inprocess"], seen["process"]
        assert events == inproc_events == [{"shard": 0, "user": user}]
        assert (answer.tier, answer.model_version) == (inproc.tier, inproc.model_version)
        np.testing.assert_array_equal(answer.items, inproc.items)
        np.testing.assert_array_equal(answer.scores, inproc.scores)

    def test_killed_worker_buffer_is_answered_exactly_once(self, unit_world, fleet_model):
        traffic = _homed_on(unit_world, 0, 2, 3)
        config = FleetConfig(num_workers=2, restart_backoff_s=5.0)
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            before = time.monotonic()
            for user, category in traffic:
                assert fleet.submit(user, category) == []
            after = time.monotonic()
            assert before <= fleet.next_flush_due() <= after
            assert fleet.kill_worker(0) is not None
            results = fleet.flush()
            assert fleet.next_flush_due() is None
            (died,) = fleet.control.events.events("worker_died")
            assert died.attrs["outstanding"] == 3
        assert sorted((r.user, r.query_category) for r in results) == sorted(traffic)
        assert {r.tier for r in results} == {"full"}


class TestSupervision:
    def test_sigkill_worker_restarts_and_drops_nothing(
        self, unit_world, fleet_model
    ):
        config = FleetConfig(num_workers=2, restart_backoff_s=0.01)
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            traffic = _traffic(unit_world, 24)
            results = []
            for index, (user, category) in enumerate(traffic):
                if index == 8:
                    assert fleet.kill_worker(0) is not None
                results.extend(fleet.submit(user, category))
            results.extend(fleet.flush())
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                fleet.poll()
                if fleet.workers[0].state == "healthy":
                    break
                time.sleep(0.01)
            assert len(results) >= len(traffic)  # at-least-once, never dropped
            assert fleet.restarts_total >= 1
            counts = fleet.control.events.counts()
            assert counts.get("worker_died", 0) >= 1
            assert counts.get("worker_restarted", 0) >= 1

    def test_hung_worker_is_killed_with_beats_missed_accounting(
        self, unit_world, fleet_model
    ):
        # Worker 0's heartbeats are all lost: the supervisor must declare it
        # hung once the deadline lapses, not wait on a process exit.
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    "worker.heartbeat", "crash", times=None, match={"worker": 0}
                ),
            ),
        )
        config = FleetConfig(
            num_workers=2,
            heartbeat_interval_s=0.02,
            heartbeat_deadline_s=0.15,
            restart_backoff_s=5.0,  # keep it down so the death is observable
        )
        with build_fleet(
            unit_world, fleet_model, config, backend="process",
            ctx=FleetContext(fault_plan=plan),
        ) as fleet:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                fleet.poll()
                if fleet.control.events.counts().get("worker_died", 0):
                    break
                time.sleep(0.02)
            died = fleet.control.events.events("worker_died")
            assert died, "hung worker was never declared dead"
            assert died[0].attrs["reason"] == "hung"
            assert died[0].attrs["beats_missed"] >= 1

    def test_flapping_worker_is_quarantined_and_traffic_reroutes(
        self, unit_world, fleet_model, monkeypatch
    ):
        # Two deaths inside the window with MAX_RESTARTS = 1: quarantine.
        monkeypatch.setattr(pipe, "MAX_RESTARTS", 1)
        config = FleetConfig(num_workers=2, restart_backoff_s=0.01)
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            victim = next(
                u for u in range(unit_world.config.num_users)
                if shard_for_user(u, fleet.num_shards) == 0
            )
            for _ in range(2):
                fleet.kill_worker(0)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    fleet.poll()
                    state = fleet.workers[0].state
                    if state in ("healthy", "quarantined"):
                        break
                    time.sleep(0.01)
                if fleet.workers[0].state == "quarantined":
                    break
            assert fleet.quarantined_workers == 1
            assert fleet.control.events.counts().get("worker_quarantined", 0) == 1
            category = int(np.argmax(unit_world.user_interests[victim]))
            results = fleet.submit(victim, category)
            results.extend(fleet.flush())
            assert any(r.user == victim for r in results)  # sibling answered

    def test_all_workers_down_falls_back_to_popularity_floor(
        self, unit_world, fleet_model
    ):
        # The sole worker is dead and still backing off: the supervisor's
        # popularity floor answers rather than dropping.
        config = FleetConfig(num_workers=1, restart_backoff_s=5.0)
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            fleet.kill_worker(0)
            category = int(np.argmax(unit_world.user_interests[3]))
            results = fleet.submit(3, category)
            assert len(results) == 1
            assert results[0].tier == "popularity"
            assert np.all(unit_world.item_category[results[0].items] == category)
            assert fleet.merged_metrics().shed >= 1

    def test_dead_worker_telemetry_is_not_lost(self, unit_world, fleet_model):
        config = FleetConfig(
            num_workers=2, heartbeat_interval_s=0.02, restart_backoff_s=5.0
        )
        with build_fleet(unit_world, fleet_model, config, backend="process") as fleet:
            traffic = _traffic(unit_world, 16)
            for user, category in traffic:
                fleet.submit(user, category)
            fleet.flush()
            # Pull a fresh cumulative snapshot from every worker.
            fleet.refresh_reports()
            before = fleet.merged_metrics().queries
            assert before == len(traffic)
            fleet.kill_worker(1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                fleet.poll()
                if fleet.control.events.counts().get("worker_died", 0):
                    break
                time.sleep(0.01)
            died = fleet.control.events.events("worker_died")
            assert died and died[0].attrs["exit_code"] is not None
            # The last-flushed snapshot was retired, not dropped.
            assert fleet.merged_metrics().queries == before


class TestSwap:
    def test_generation_flip_is_atomic_and_unlinks_old_slab(
        self, unit_world, fleet_model, swap_target
    ):
        config = FleetConfig(num_workers=2)
        with build_fleet(
            unit_world, fleet_model, config, backend="process", version="v1"
        ) as fleet:
            pre_swap = _traffic(unit_world, 8)
            for user, category in pre_swap:
                fleet.submit(user, category)
            old_name = fleet.transport.slab.name
            drained = fleet.swap_model(swap_target, version="v2")
            # Requests accepted before the flip complete on the old model.
            assert {r.model_version for r in drained} <= {"v1"}
            assert fleet.generation == 1
            assert not SnapshotSlab.exists(old_name)
            post = _drain(fleet, _traffic(unit_world, 8))
            # No mixed generations: everything after the flip is new-model.
            assert {r.model_version for r in post} == {"v2"}
            assert all(
                row["generation"] == 1
                for row in fleet.worker_status()
                if row["state"] == "healthy"
            )
            counts = fleet.control.events.counts()
            assert counts.get("slab_published") == 2
            assert counts.get("slab_unlinked") == 1
            assert counts.get("cache_invalidation") == 1

    def test_torn_publish_is_retried_under_a_fresh_name(
        self, unit_world, fleet_model, swap_target
    ):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec("slab.publish", "torn_write", after=1, times=1),),
        )
        config = FleetConfig(num_workers=2)
        with build_fleet(
            unit_world, fleet_model, config, backend="process",
            ctx=FleetContext(fault_plan=plan),
        ) as fleet:
            fleet.swap_model(swap_target, version="v2")
            counts = fleet.control.events.counts()
            # Bootstrap publish + torn attempt's unlink + successful retry.
            assert counts.get("slab_published") == 2
            unlinked = fleet.control.events.events("slab_unlinked")
            assert any(e.attrs["reason"] == "torn_publish" for e in unlinked)
            assert fleet.generation == 1
            results = _drain(fleet, _traffic(unit_world, 6))
            assert {r.model_version for r in results} == {"v2"}

    def test_stop_leaves_no_segments_behind(self, unit_world, fleet_model):
        config = FleetConfig(num_workers=2)
        fleet = build_fleet(unit_world, fleet_model, config, backend="process")
        name = fleet.transport.slab.name
        _drain(fleet, _traffic(unit_world, 6))
        fleet.stop()
        assert not SnapshotSlab.exists(name)
        assert fleet.workers_available == 0


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_workers=0)
        with pytest.raises(ValueError):
            FleetConfig(heartbeat_deadline_s=0.01, heartbeat_interval_s=0.05)

    def test_fleet_config_overrides(self):
        config = FleetConfig(num_workers=5, seed=3)
        assert config.num_workers == 5
        assert config.seed == 3
        assert config.max_batch_size == FleetConfig().max_batch_size

    def test_injector_context_reaches_workers(self, unit_world, fleet_model):
        # A spawn-time transient on worker 0's restart path only: the
        # bootstrap spawn is spared (`after` counts matching visits).
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    "worker.spawn", "transient", after=1, times=1,
                    match={"worker": 0},
                ),
            ),
        )
        config = FleetConfig(num_workers=2, restart_backoff_s=0.01)
        with build_fleet(
            unit_world, fleet_model, config, backend="process",
            ctx=FleetContext(fault_plan=plan),
        ) as fleet:
            assert fleet.workers_available == 2  # bootstrap unaffected
            fleet.kill_worker(0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                fleet.poll()
                if fleet.workers[0].state == "healthy":
                    break
                time.sleep(0.01)
            assert fleet.workers[0].state == "healthy"
            # One extra backoff cycle: death + failed spawn both count.
            assert fleet.workers[0].restarts >= 2

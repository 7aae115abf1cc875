"""Shard failover: breaker-gated rerouting and the last-resort tier."""

from repro.faults import CircuitBreaker, FaultInjector, FaultPlan, FaultSpec
from repro.serving import (
    TIER_POPULARITY,
    FleetConfig,
    FleetContext,
    ManualClock,
    build_fleet,
    shard_for_user,
)


def _users_on_shard(shard, num_shards, count=8):
    users = [u for u in range(200) if shard_for_user(u, num_shards) == shard]
    assert len(users) >= count
    return users[:count]


def _cluster(world, model, clock, injector, num_shards=2, **kwargs):
    kwargs.setdefault("max_batch_size", 100)
    kwargs.setdefault("flush_deadline_ms", 1e6)
    return build_fleet(
        world,
        model,
        FleetConfig(num_workers=num_shards, seed=0, **kwargs),
        backend="inprocess",
        ctx=FleetContext(clock=clock.now, injector=injector),
    )


class TestFailover:
    def test_crashing_shard_reroutes_and_trips_its_breaker(
        self, unit_world, make_model
    ):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("batcher.submit", "crash", times=3, match={"shard": 0})
                ]
            )
        )
        cluster = _cluster(unit_world, make_model(), clock, inj)
        users = _users_on_shard(0, 2, count=4)
        for user in users[:3]:
            cluster.submit(user, 0)  # crash on shard 0, rerouted to shard 1
        counts = cluster.control.events.counts()
        assert counts.get("shard_failover") == 3
        assert counts.get("circuit_open") == 1
        assert cluster.open_breakers == 1
        assert cluster.workers[0].breaker.state == CircuitBreaker.OPEN
        # The rerouted queries actually landed on the sibling's queue.
        assert cluster.workers[1].batcher.pending == 3
        assert cluster.workers[0].batcher.pending == 0
        # While open, shard 0 is skipped without an attempt: the injector
        # (already spent anyway) sees no new visit.
        visits_before = inj.fired()
        cluster.submit(users[3], 0)
        assert inj.fired() == visits_before
        assert cluster.workers[1].batcher.pending == 4

    def test_breaker_closes_after_cooldown(self, unit_world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("batcher.submit", "crash", times=3, match={"shard": 0})
                ]
            )
        )
        cluster = _cluster(unit_world, make_model(), clock, inj)
        users = _users_on_shard(0, 2, count=4)
        for user in users[:3]:
            cluster.submit(user, 0)
        assert cluster.open_breakers == 1
        clock.advance(0.06)  # past the 50 ms cooldown
        cluster.submit(users[3], 0)  # half-open trial; fault spent -> success
        assert cluster.open_breakers == 0
        assert cluster.workers[0].breaker.state == CircuitBreaker.CLOSED
        assert cluster.control.events.counts().get("circuit_closed") == 1
        assert cluster.workers[0].batcher.pending == 1  # served at home again

    def test_rerouting_is_deterministic(self, unit_world, make_model):
        def run():
            clock = ManualClock()
            inj = FaultInjector(
                FaultPlan(
                    specs=[
                        FaultSpec(
                            "batcher.submit", "crash", times=None, match={"shard": 1}
                        )
                    ]
                )
            )
            cluster = _cluster(unit_world, make_model(), clock, inj, num_shards=3)
            for user in range(30):
                cluster.submit(user, user % 3)
            return [
                (worker.shard_id, [q.user for q in worker.batcher._pending])
                for worker in cluster.workers
            ]

        assert run() == run()

    def test_failing_flushes_open_the_breaker(self, unit_world, make_model):
        """A shard whose every flush crashes stops being routed to: the clean
        enqueues between the failed flushes are not successes."""
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(specs=[FaultSpec("batcher.flush", "crash", times=None)])
        )
        cluster = _cluster(
            unit_world, make_model(), clock, inj, num_shards=1, flush_deadline_ms=5.0
        )
        for user in range(3):
            assert cluster.submit(user, 0) == []  # queued; the flush is what fails
            clock.advance(0.01)
            (answer,) = cluster.poll()  # deadline flush crashes: one tier down
            assert answer.tier == TIER_POPULARITY
        breaker = cluster.workers[0].breaker
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.failures_total, breaker.successes_total, breaker.opens) == (3, 0, 1)
        (opened,) = cluster.control.events.events("circuit_open")
        assert opened.attrs == {"shard": 0, "failures": 3}
        # Open: the shard is skipped without an attempt; the fleet answers.
        (answer,) = cluster.submit(3, 0)
        assert answer.tier == TIER_POPULARITY
        assert cluster.workers[0].batcher.pending == 0
        assert cluster.control.events.counts().get("load_shed") == 1

    def test_all_shards_down_still_answers(self, unit_world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(specs=[FaultSpec("batcher.submit", "crash", times=None)])
        )
        cluster = _cluster(unit_world, make_model(), clock, inj, num_shards=1)
        submitted = 6
        answered = []
        for user in range(submitted):
            answered.extend(cluster.submit(user, 0))
        # Zero dropped: every submit produced a (last-resort) response.
        assert len(answered) == submitted
        assert all(r.tier == TIER_POPULARITY for r in answered)
        assert all(r.items.size > 0 for r in answered)
        shed_events = cluster.control.events.events("load_shed")
        assert {e.attrs["reason"] for e in shed_events} == {"all_shards_unavailable"}
        merged = cluster.merged_metrics().summary()["degradation"]
        # First 3 submits crash-then-reroute until the breaker opens; all 6
        # are answered and counted as shed popularity responses.
        assert merged["shed"] == submitted
        assert merged["tiers"][TIER_POPULARITY] == submitted

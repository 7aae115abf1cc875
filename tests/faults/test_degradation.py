"""Degradation ladder: shedding, deadline budget, tier fallbacks, identity."""

import numpy as np
import pytest

from repro.faults import NULL_INJECTOR, FaultInjector, FaultPlan, FaultSpec
from repro.retrieval import CascadeConfig
from repro.serving import (
    TIER_FULL,
    TIER_POPULARITY,
    TIER_PREFILTER,
    DegradationPolicy,
    FleetConfig,
    FleetContext,
    ManualClock,
    build_fleet,
)


def _cluster(world, model, clock, policy=None, injector=NULL_INJECTOR, **kwargs):
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("flush_deadline_ms", 1e6)
    return build_fleet(
        world,
        model,
        FleetConfig(seed=0, policy=policy, **kwargs),
        backend="inprocess",
        ctx=FleetContext(clock=clock.now, injector=injector),
    )


@pytest.fixture()
def world(unit_world):
    return unit_world


class TestAdmissionControl:
    def test_bounded_queue_sheds(self, world, make_model):
        clock = ManualClock()
        policy = DegradationPolicy(deadline_ms=1e6, max_queue=2)
        cluster = _cluster(world, make_model(), clock, policy=policy)
        assert cluster.submit(0, 0) == []
        assert cluster.submit(1, 0) == []
        shed = cluster.submit(2, 0)  # queue full: answered immediately
        assert len(shed) == 1
        assert shed[0].tier == TIER_POPULARITY
        assert shed[0].items.size > 0
        full = cluster.flush()
        assert [r.tier for r in full] == [TIER_FULL, TIER_FULL]
        worker = cluster.workers[0]
        assert worker.metrics.summary()["degradation"]["shed"] == 1
        assert worker.metrics.events.counts().get("load_shed") == 1
        # Nothing dropped: 3 submitted, 3 answered.
        assert worker.metrics.summary()["queries"] == 3

    def test_stale_queue_sheds(self, world, make_model):
        clock = ManualClock()
        policy = DegradationPolicy(deadline_ms=50.0)
        cluster = _cluster(world, make_model(), clock, policy=policy)
        cluster.submit(0, 0)
        clock.advance(0.1)  # oldest pending is now 100 ms stale
        shed = cluster.submit(1, 0)
        assert len(shed) == 1 and shed[0].tier == TIER_POPULARITY

    def test_popularity_ranking_is_deterministic(self, world, make_model):
        clock = ManualClock()
        cluster = _cluster(world, make_model(), clock)
        engine = cluster.workers[0].engine
        first = engine.degraded_ranking(0, 0, TIER_POPULARITY)
        second = engine.degraded_ranking(0, 0, TIER_POPULARITY)
        assert first[2] == TIER_POPULARITY
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestDeadlineBudget:
    def test_slow_retrieval_drops_a_tier(self, world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("engine.retrieve", "latency", latency_ms=100.0, times=1)
                ]
            ),
            sleeper=clock.advance,
        )
        policy = DegradationPolicy(deadline_ms=50.0)  # budget: 25 ms
        cluster = _cluster(world, make_model(), clock, policy=policy, injector=inj)
        degraded = cluster.submit(0, 0)
        assert len(degraded) == 1
        # No cascade on this fleet, so the prefilter request lands one tier
        # further down; the reason still records why it degraded.
        assert degraded[0].tier == TIER_POPULARITY
        events = cluster.workers[0].metrics.events.events("degraded")
        assert events[0].attrs["reason"] == "deadline_budget"
        # The fault is spent: the next submit queues for the full tier.
        assert cluster.submit(1, 0) == []

    def test_budget_degrade_serves_prefilter_with_cascade(self, world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("engine.retrieve", "latency", latency_ms=100.0, times=1)
                ]
            ),
            sleeper=clock.advance,
        )
        policy = DegradationPolicy(deadline_ms=50.0)
        cluster = _cluster(
            world,
            make_model(trained=True),
            clock,
            policy=policy,
            injector=inj,
            cascade=CascadeConfig(retrieve_n=32, prune=8, nprobe=2),
        )
        degraded = cluster.submit(0, 0)
        assert len(degraded) == 1
        assert degraded[0].tier == TIER_PREFILTER
        assert degraded[0].items.size > 0


class TestFaultFallbacks:
    def test_retrieval_crash_answers_from_popularity(self, world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(specs=[FaultSpec("engine.retrieve", "crash", times=1)])
        )
        cluster = _cluster(
            world, make_model(), clock, policy=DegradationPolicy(), injector=inj
        )
        result = cluster.submit(0, 0)
        assert len(result) == 1 and result[0].tier == TIER_POPULARITY
        events = cluster.workers[0].metrics.events.events("degraded")
        assert events[0].attrs["reason"] == "retrieve_failure"

    def test_flush_failure_degrades_the_whole_batch(self, world, make_model):
        clock = ManualClock()
        inj = FaultInjector(
            FaultPlan(specs=[FaultSpec("batcher.flush", "crash", times=1)])
        )
        cluster = _cluster(
            world,
            make_model(),
            clock,
            policy=DegradationPolicy(),
            injector=inj,
            max_batch_size=2,
        )
        cluster.submit(0, 0)
        results = cluster.submit(1, 0)  # size trigger -> flush -> injected crash
        assert len(results) == 2  # flush never raises; both queries answered
        assert all(r.tier == TIER_POPULARITY for r in results)
        reasons = {
            e.attrs["reason"]
            for e in cluster.workers[0].metrics.events.events("degraded")
        }
        assert reasons == {"flush:CrashFault"}
        assert cluster.workers[0].breaker.failures_total == 1
        # Next batch is healthy again and the breaker heals.
        cluster.submit(2, 0)
        full = cluster.submit(3, 0)
        assert [r.tier for r in full] == [TIER_FULL, TIER_FULL]


class TestDegradedTiersRedoNoSubmitWork:
    """The budget and failed-flush tiers answer from what submit prepared:
    the request's ``UserState`` and its resolved session gate."""

    CASCADE = CascadeConfig(retrieve_n=32, prune=8, nprobe=2)

    def _counted_cluster(self, world, model, monkeypatch, spec, **kwargs):
        """A cascade fleet under ``spec``, plus one ``{"states", "gates"}``
        count of ``UserState`` constructions and gate-plan runs per degraded
        response (taken around ``_respond_degraded``, so submit's own
        preparation is outside it)."""
        import repro.data.features as features

        clock = ManualClock()
        inj = FaultInjector(FaultPlan(specs=[spec]), sleeper=clock.advance)
        cluster = _cluster(
            world, model, clock, policy=DegradationPolicy(deadline_ms=50.0),
            injector=inj, cascade=self.CASCADE, **kwargs,
        )
        worker = cluster.workers[0]
        counts = {"states": 0, "gates": 0}
        init = features.UserState.__init__
        gate_plan = worker.engine.compiled_model.gate_plan
        run = gate_plan.run

        def counting_init(state, *args, **kw):
            counts["states"] += 1
            init(state, *args, **kw)

        def counting_run(*args, **kw):
            counts["gates"] += 1
            return run(*args, **kw)

        monkeypatch.setattr(features.UserState, "__init__", counting_init)
        monkeypatch.setattr(gate_plan, "run", counting_run)
        respond = worker.batcher._respond_degraded
        inside = []

        def bracketed(*args, **kw):
            assert kw["gate"] is not None and kw["state"] is not None
            before = dict(counts)
            response = respond(*args, **kw)
            inside.append({key: counts[key] - before[key] for key in counts})
            return response

        monkeypatch.setattr(worker.batcher, "_respond_degraded", bracketed)
        return cluster, counts, inside

    def _assert_is_the_fresh_ranking(self, engine, response):
        """Same items, scores and tier as ranking the shortlist from scratch."""
        items, scores, tier = engine.degraded_ranking(
            response.user, response.query_category, TIER_PREFILTER,
            candidates=np.sort(response.items),
        )
        assert response.tier == tier == TIER_PREFILTER
        np.testing.assert_array_equal(response.items, items)
        np.testing.assert_allclose(response.scores, scores, rtol=1e-6)

    def test_deadline_budget_response(self, world, make_model, monkeypatch):
        cluster, counts, inside = self._counted_cluster(
            world, make_model(trained=True), monkeypatch,
            FaultSpec("engine.retrieve", "latency", latency_ms=100.0, times=1),
        )
        (degraded,) = cluster.submit(3, 1)
        assert counts == {"states": 1, "gates": 1}  # submit's own preparation
        assert inside == [{"states": 0, "gates": 0}]
        events = cluster.workers[0].metrics.events.events("degraded")
        assert events[0].attrs["reason"] == "deadline_budget"
        self._assert_is_the_fresh_ranking(cluster.workers[0].engine, degraded)

    def test_failed_flush_responses(self, world, make_model, monkeypatch):
        cluster, counts, inside = self._counted_cluster(
            world, make_model(trained=True), monkeypatch,
            FaultSpec("batcher.flush", "crash", times=1), max_batch_size=2,
        )
        cluster.submit(3, 1)
        results = cluster.submit(5, 2)  # size trigger -> flush -> injected crash
        assert counts == {"states": 2, "gates": 2}
        assert inside == [{"states": 0, "gates": 0}] * 2
        reasons = {
            e.attrs["reason"] for e in cluster.workers[0].metrics.events.events("degraded")
        }
        assert reasons == {"flush:CrashFault"}
        for response in results:
            self._assert_is_the_fresh_ranking(cluster.workers[0].engine, response)


class TestDisabledPathIdentity:
    def test_armed_but_empty_injector_is_bitwise_identical(self, world, make_model):
        """No specs + generous policy must reproduce the plain fleet exactly."""

        def run(policy, injector):
            clock = ManualClock()
            cluster = _cluster(
                world,
                make_model(trained=True),
                clock,
                policy=policy,
                injector=injector,
            )
            results = []
            for user in range(12):
                results.extend(cluster.submit(user, user % 3))
                clock.advance(0.001)
            results.extend(cluster.flush())
            return results

        plain = run(policy=None, injector=NULL_INJECTOR)
        armed = run(
            policy=DegradationPolicy(deadline_ms=1e9),
            injector=FaultInjector(FaultPlan()),
        )
        assert len(plain) == len(armed) > 0
        for a, b in zip(plain, armed):
            assert a.user == b.user
            assert a.tier == b.tier == TIER_FULL
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.scores, b.scores)

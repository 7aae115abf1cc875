"""Seeded faulted replay is an identity (ROADMAP item 3d).

Same traffic seed + same :class:`FaultPlan` + :class:`ManualClock` on the
in-process backend, run twice, must give identical answers and a
byte-identical control-plane event log.  Refactors of ``repro.serving`` lean
on this: an in-process path that is "unchanged" replays to the same bytes.
"""

import json

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serving import (
    DegradationPolicy,
    FleetConfig,
    FleetContext,
    ManualClock,
    ZipfLoadGenerator,
    build_fleet,
    replay,
)

NUM_EVENTS = 160

#: Serving-side faults only (no registry / trainer in this replay): slow
#: retrieval drawn per visit from the spec's own seeded stream, a shard-0
#: crash burst long enough to trip its breaker, and one failed flush.
PLAN = FaultPlan(
    seed=5,
    specs=(
        FaultSpec("engine.retrieve", "latency", probability=0.2, times=None, latency_ms=30.0),
        FaultSpec("batcher.submit", "crash", after=10, times=4, match={"shard": 0}),
        FaultSpec("batcher.flush", "crash", after=6, times=1),
    ),
)


@pytest.fixture(scope="module")
def model(test_set):
    return build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))


def _faulted_replay(world, model, traffic_seed):
    clock = ManualClock()
    injector = FaultInjector(PLAN, sleeper=clock.advance, clock=clock.now)
    fleet = build_fleet(
        world,
        model,
        FleetConfig(
            num_workers=2,
            seed=3,
            max_batch_size=4,
            flush_deadline_ms=10.0,
            cache_capacity=64,
            policy=DegradationPolicy(deadline_ms=25.0),
        ),
        backend="inprocess",
        ctx=FleetContext(clock=clock, injector=injector),
    )
    traffic = ZipfLoadGenerator(
        np.random.default_rng(traffic_seed), world=world, zipf_exponent=1.1, target_qps=300.0
    ).generate(NUM_EVENTS)
    results = replay(fleet, traffic, clock=clock)
    # Control-plane events (failover, breakers, injected faults) pooled with
    # every shard's own (degraded, load_shed): the whole incident record.
    events = fleet.merged_metrics().events
    event_dump = "\n".join(json.dumps(event.to_dict(), sort_keys=True) for event in events.events())
    return results, event_dump, events.counts()


def test_same_seed_and_plan_replay_identically(unit_world, model):
    first, first_dump, counts = _faulted_replay(unit_world, model, traffic_seed=17)
    second, second_dump, _ = _faulted_replay(unit_world, model, traffic_seed=17)

    # The plan actually bit: faults fired, a breaker tripped, tiers degraded.
    assert counts.get("fault_injected", 0) > 0
    assert counts.get("shard_failover", 0) > 0
    assert counts.get("degraded", 0) > 0
    assert len(first) == len(second) == NUM_EVENTS
    assert {r.tier for r in first} != {"full"}

    for got, want in zip(second, first):
        assert (got.user, got.query_category, got.tier) == (
            want.user, want.query_category, want.tier
        )
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert got.latency_ms == want.latency_ms
    assert second_dump.encode() == first_dump.encode()


def test_a_different_traffic_seed_changes_the_replay(unit_world, model):
    _, dump_a, _ = _faulted_replay(unit_world, model, traffic_seed=17)
    results_b, dump_b, _ = _faulted_replay(unit_world, model, traffic_seed=18)
    assert len(results_b) == NUM_EVENTS
    assert dump_a != dump_b

"""Transactional hot swap: a mid-drain failure never leaves a mixed fleet."""

import numpy as np
import pytest

from repro.faults import NULL_INJECTOR, FaultInjector, FaultPlan, FaultSpec
from repro.serving import (
    FleetConfig,
    FleetContext,
    ManualClock,
    SwapFailed,
    build_fleet,
    shard_for_user,
)


def _cluster(world, model, injector=NULL_INJECTOR):
    return build_fleet(
        world,
        model,
        FleetConfig(num_workers=2, seed=0, max_batch_size=100, flush_deadline_ms=1e6),
        backend="inprocess",
        ctx=FleetContext(clock=ManualClock().now, injector=injector),
    )


def _one_user_per_shard():
    users = {}
    for user in range(100):
        users.setdefault(shard_for_user(user, 2), user)
        if len(users) == 2:
            return users[0], users[1]
    raise AssertionError("hash did not cover both shards")


@pytest.fixture()
def failing_swap_cluster(unit_world, make_model):
    """Fleet on v0001 with the *next* swap rigged to crash at shard 1.

    ``after=1`` spares the bootstrap swap's visit, so the fault lands on
    the second shard of the v0002 deploy — after shard 0 already swapped.
    """
    inj = FaultInjector(
        FaultPlan(
            specs=[
                FaultSpec("swap.shard", "crash", after=1, times=1, match={"shard": 1})
            ]
        )
    )
    cluster = _cluster(unit_world, make_model(trained=True), injector=inj)
    cluster.swap_model(make_model(trained=True), "v0001")
    return cluster


class TestSwapRollback:
    def test_failed_swap_rolls_every_shard_back(
        self, failing_swap_cluster, make_model
    ):
        cluster = failing_swap_cluster
        with pytest.raises(SwapFailed, match="shard 1"):
            cluster.swap_model(make_model(trained=False), "v0002")
        # Consistent generation: all shards old, never mixed.
        assert cluster.model_version == "v0001"
        assert [w.engine.model_version for w in cluster.workers] == ["v0001", "v0001"]
        assert cluster.control.events.counts().get("rollback") == 1
        event = cluster.control.events.events("rollback")[0]
        assert event.attrs["version"] == "v0002"
        assert event.attrs["swapped_shards"] == 1

    def test_mid_drain_results_are_delivered_from_the_old_model(
        self, failing_swap_cluster, make_model
    ):
        cluster = failing_swap_cluster
        user_a, user_b = _one_user_per_shard()
        cluster.submit(user_a, 0)
        cluster.submit(user_b, 1)
        with pytest.raises(SwapFailed) as excinfo:
            cluster.swap_model(make_model(trained=False), "v0002")
        drained = excinfo.value.drained
        # Both shards' pending queries were flushed before the crash and
        # scored by the old generation — nothing dropped, nothing mixed.
        assert sorted(r.user for r in drained) == sorted([user_a, user_b])
        assert {r.model_version for r in drained} == {"v0001"}
        assert all(w.batcher.pending == 0 for w in cluster.workers)

    def test_post_failure_serving_matches_a_fleet_that_never_swapped(
        self, unit_world, make_model, failing_swap_cluster
    ):
        cluster = failing_swap_cluster
        control = _cluster(unit_world, make_model(trained=True))
        control.swap_model(make_model(trained=True), "v0001")

        with pytest.raises(SwapFailed):
            cluster.swap_model(make_model(trained=False), "v0002")
        control.flush()  # mirror the failed swap's drain (empty here)

        for user in range(10):
            got = cluster.submit(user, user % 3)
            want = control.submit(user, user % 3)
            assert len(got) == len(want)
        got, want = cluster.flush(), control.flush()
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a.user == b.user
            assert a.model_version == b.model_version == "v0001"
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.scores, b.scores)

    def test_retry_after_rollback_succeeds(self, failing_swap_cluster, make_model):
        cluster = failing_swap_cluster
        replacement = make_model(trained=False)
        with pytest.raises(SwapFailed):
            cluster.swap_model(replacement, "v0002")
        cluster.swap_model(replacement, "v0002")  # fault spent: clean swap
        assert [w.engine.model_version for w in cluster.workers] == ["v0002", "v0002"]
        assert cluster.control.events.counts().get("rollback") == 1

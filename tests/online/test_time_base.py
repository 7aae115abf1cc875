"""One time base per control-plane log.

The fleet's control log, an online loop over the fleet and both transports'
fault injectors stamp events from one clock (``Fleet.clock``), so every
entry falls inside a window read from that clock and the log — and the
merged log, which sorts by timestamp — lists events in record order.
"""

import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.infer import shared_memory_available
from repro.obs import DriftMonitor
from repro.online import (
    CanaryGate,
    ClickModelConfig,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import FleetConfig, ZipfLoadGenerator, build_fleet


def _assert_one_time_base(events, start, stop):
    stamps = [event.timestamp for event in events]
    assert stamps, "nothing was recorded"
    assert all(start <= stamp <= stop for stamp in stamps), (start, stop, stamps)
    assert stamps == sorted(stamps), "events are not in record order"


def _subsequence(inner, outer):
    position = iter(outer)
    return all(any(event is other for other in position) for event in inner)


def test_loop_and_inprocess_fleet_share_the_wall_clock(
    tmp_path, unit_world, make_model, online_train_config
):
    """An in-process fleet on its default clock plus a loop with a drift
    monitor: hot swaps, canary verdicts, click-log lag, drift scores and the
    in-process fault plan's ``fault_injected`` events all read
    ``time.perf_counter``."""
    start = time.perf_counter()
    fleet = build_fleet(
        unit_world,
        make_model(trained=False),
        FleetConfig(num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0),
        backend="inprocess",
        fault_plan=FaultPlan(specs=[FaultSpec("engine.retrieve", "latency", times=3)]),
    )
    loop = OnlineLoop(
        world=unit_world,
        cluster=fleet,
        trainer=IncrementalTrainer(make_model(trained=True), online_train_config, seed=5),
        model_factory=lambda: make_model(trained=False),
        registry=ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0),
        canary=CanaryGate(tolerance=1.0),
        click_model=PositionBiasedClickModel(
            unit_world, np.random.default_rng(3), ClickModelConfig()
        ),
        seed=11,
        drift=DriftMonitor(min_samples=1),
    )
    loop.bootstrap()
    traffic = ZipfLoadGenerator(np.random.default_rng(7), world=unit_world, target_qps=500.0)
    for _ in range(2):
        loop.run_cycle(traffic.generate(60))
    stop = time.perf_counter()

    control = fleet.control.events
    _assert_one_time_base(control.events(), start, stop)
    merged = fleet.merged_metrics().events.events()
    _assert_one_time_base(merged, start, stop)
    assert _subsequence(control.events(), merged)
    counts = control.counts()
    for kind in ("hot_swap", "canary_verdict", "click_log_lag", "drift_score", "fault_injected"):
        assert counts.get(kind), kind


@pytest.mark.skipif(not shared_memory_available(), reason="POSIX shared memory unavailable")
def test_process_fleet_fault_events_read_the_monotonic_clock(unit_world, make_model):
    """The supervisor's injector stamps ``fault_injected`` from the same
    ``time.monotonic`` as the worker lifecycle events around it."""
    start = time.monotonic()
    plan = FaultPlan(specs=[FaultSpec("worker.spawn", "latency", times=2)])
    with build_fleet(
        unit_world, make_model(), FleetConfig(num_workers=2), backend="process", fault_plan=plan
    ) as fleet:
        fleet.flush()
        stop = time.monotonic()
        control = fleet.control.events
        _assert_one_time_base(control.events(), start, stop)
        assert control.counts().get("fault_injected") == 2
        assert control.counts().get("worker_spawned") == 2

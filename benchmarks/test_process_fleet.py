"""Process fleet: multi-core serving over shared-memory slabs (PR 9).

Benchmarks the supervised worker-process fleet against the in-process
shard cluster it generalizes:

* **identity** — the process fleet must return bitwise-identical rankings
  to the in-process cluster (same seeds, same per-shard SeedBank streams,
  zero-copy weight slabs notwithstanding);
* **throughput** — one QPS reading each for the in-process cluster and the
  1-worker and N-worker process fleets, recorded in the artifact; the pipe's
  cost is judged by ``benchmarks/perf/run.py`` (``head-process`` against
  ``head-inproc``, ``fleet.*_cpu_ms_per_req``), not here;
* **chaos soak** — :func:`repro.faults.default_fleet_chaos_plan` (worker
  OOM-kill mid-batch, hung-worker heartbeat loss, torn slab publish,
  transient respawn failure) driven through :func:`run_fleet_soak` with a
  hot swap in the middle: zero dropped requests, at least one automatic
  restart, no leaked shared-memory segments.

The whole file runs under an internal wall-clock watchdog (a hung fleet
must fail loudly, not eat the CI job; the CI step adds a hard ``timeout``
on top).  Artifacts (CI-uploaded): ``process_fleet.json`` (the combined
report, with the published slab's ``describe()``: bytes and externalized
array count) and ``fleet_events.jsonl`` (the supervisor's control-plane event
log, one JSON object per line).  ``REPRO_SMOKE=1`` shrinks world and
traffic for CI.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, make_search_datasets
from repro.faults import default_fleet_chaos_plan, run_fleet_soak
from repro.infer import shared_memory_available
from repro.serving import FleetConfig, FleetContext, ZipfLoadGenerator, build_fleet
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"

SEED = 31
NUM_WORKERS = 2 if SMOKE else 3
BENCH_EVENTS = 150 if SMOKE else 600
SOAK_EVENTS = 120 if SMOKE else 300
WATCHDOG_S = 180.0 if SMOKE else 600.0

_ARTIFACTS = Path(__file__).parent / "artifacts"
ARTIFACT = _ARTIFACTS / ("process_fleet_smoke.json" if SMOKE else "process_fleet.json")
EVENTS_LOG = _ARTIFACTS / (
    "fleet_events_smoke.jsonl" if SMOKE else "fleet_events.jsonl"
)
#: Floor on the fraction of scores bitwise equal to the in-process fleet's
#: (readings 0.992-0.9996; the rest differ by one float32 ULP, see the
#: identity block below, where ``atol=1e-6`` bounds every score).
SCORES_EXACT_FLOOR = 0.95

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)

_START = time.monotonic()


def _watchdog(stage: str) -> None:
    elapsed = time.monotonic() - _START
    if elapsed > WATCHDOG_S:
        raise RuntimeError(
            f"fleet benchmark watchdog: {elapsed:.0f}s > {WATCHDOG_S:.0f}s "
            f"budget at stage {stage!r}"
        )


def _build_world_and_models():
    config = WorldConfig.unit() if SMOKE else WorldConfig.small()
    world, warmup_train, _ = make_search_datasets(
        config, 250 if SMOKE else 600, 50, seed=SEED
    )
    model_config = ModelConfig.unit() if SMOKE else ModelConfig.small()
    bank = SeedBank(SEED)
    serve_model = build_model("aw_moe", model_config, warmup_train.meta, bank.child("serve"))
    train_model(
        serve_model,
        warmup_train,
        TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3),
        seed=77,
    )
    swap_model = build_model("aw_moe", model_config, warmup_train.meta, bank.child("swap"))
    return world, serve_model, swap_model, bank


def _drive(fleet, traffic):
    results = []
    start = time.perf_counter()
    for event in traffic:
        results.extend(fleet.submit(event.user, event.query_category))
    results.extend(fleet.flush())
    elapsed = time.perf_counter() - start
    return results, elapsed


def _identity_key(results):
    ordered = sorted(results, key=lambda r: (r.user, r.query_category))
    return (
        [(r.user, r.query_category) for r in ordered],
        np.concatenate([r.items for r in ordered]),
        np.concatenate([r.scores for r in ordered]),
    )


def test_process_fleet():
    world, serve_model, swap_model, bank = _build_world_and_models()
    generator = ZipfLoadGenerator(
        bank.child("traffic"), world=world, zipf_exponent=1.1, target_qps=300.0
    )
    traffic = generator.generate(BENCH_EVENTS)
    config = FleetConfig(num_workers=NUM_WORKERS, seed=SEED)

    # -- identity + in-process baseline ---------------------------------
    inproc = build_fleet(world, serve_model, config, backend="inprocess")
    inproc_results, inproc_s = _drive(inproc, traffic)
    expected = _identity_key(inproc_results)
    _watchdog("inprocess")

    fleet = build_fleet(world, serve_model, config, backend="process")
    fleet_results, multi_s = _drive(fleet, traffic)
    got = _identity_key(fleet_results)
    slab = fleet.summary()["slab"]
    fleet.stop()
    # Same requests, same routing, same ranking order.  Scores are allowed
    # 1-ULP float32 jitter: zero-copy slab views sit at different addresses
    # than fresh allocations, and BLAS small-gemm kernels peel loops by
    # alignment, so a fraction of a percent of scores can differ in the
    # last bit (the ranking itself must not move).
    assert got[0] == expected[0]
    np.testing.assert_array_equal(got[1], expected[1])
    np.testing.assert_allclose(got[2], expected[2], rtol=0, atol=1e-6)
    score_exact = float(np.mean(got[2] == expected[2]))
    assert score_exact >= SCORES_EXACT_FLOOR, (
        f"only {score_exact:.4f} of scores bitwise equal in-process (floor {SCORES_EXACT_FLOOR})"
    )
    _watchdog("process-multi")

    single = build_fleet(
        world, serve_model, FleetConfig(num_workers=1, seed=SEED), backend="process"
    )
    single_results, single_s = _drive(single, traffic)
    single.stop()
    assert len(single_results) == len(traffic)
    _watchdog("process-single")

    cores = os.cpu_count() or 1
    qps = {
        "inprocess": len(traffic) / inproc_s,
        "process_1_worker": len(traffic) / single_s,
        f"process_{NUM_WORKERS}_workers": len(traffic) / multi_s,
    }

    # -- chaos soak ------------------------------------------------------
    plan = default_fleet_chaos_plan(seed=SEED, workers=NUM_WORKERS)
    soak_fleet = build_fleet(
        world,
        serve_model,
        FleetConfig(
            num_workers=NUM_WORKERS,
            seed=SEED,
            heartbeat_interval_s=0.02,
            heartbeat_deadline_s=0.25,
            restart_backoff_s=0.02,
        ),
        backend="process",
        version="v1",
        ctx=FleetContext(fault_plan=plan),
    )
    try:
        soak = run_fleet_soak(
            soak_fleet,
            generator,
            events=SOAK_EVENTS,
            swap_models=[(swap_model, "v2")],
            settle_s=0.5,
        )
        supervisor_events = [
            event.to_dict() for event in soak_fleet.control.events.events()
        ]
    finally:
        soak_fleet.stop()
    _watchdog("soak")

    assert soak["dropped"] <= 0, "zero drops: every request must be answered"
    assert soak["restarts"] >= 1, "the chaos plan must force a restart"
    assert soak["swaps"] == 1 and soak["generation"] == 1
    leaked = [n for n in os.listdir("/dev/shm") if n.startswith("repro_slab_")]
    assert not leaked, f"leaked shared-memory segments: {leaked}"

    # -- artifacts -------------------------------------------------------
    _ARTIFACTS.mkdir(parents=True, exist_ok=True)
    report = {
        "smoke": SMOKE,
        "seed": SEED,
        "cpu_count": cores,
        "num_workers": NUM_WORKERS,
        "events": len(traffic),
        "identity": {
            "ranking_order_exact": True,
            "scores_exact_fraction": score_exact,
            "score_atol": 1e-6,
        },
        "qps": qps,
        "slab": slab,
        "soak": soak,
        "elapsed_s": time.monotonic() - _START,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2))
    with EVENTS_LOG.open("w", encoding="utf-8") as handle:
        for record in supervisor_events:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    print_table(
        ["Metric", "Value"],
        [
            ["cpu cores", str(cores)],
            ["inprocess qps", f"{qps['inprocess']:.0f}"],
            ["1-worker qps", f"{qps['process_1_worker']:.0f}"],
            [
                f"{NUM_WORKERS}-worker qps",
                f"{qps[f'process_{NUM_WORKERS}_workers']:.0f}",
            ],
            ["slab KiB", f"{slab['nbytes'] / 1024:.0f}"],
            ["slab arrays", str(slab["arrays"])],
            ["soak submitted", str(soak["submitted"])],
            ["soak answered", str(soak["answered"])],
            ["soak restarts", str(soak["restarts"])],
            ["soak faults (supervisor)", str(soak["faults_fired_supervisor"])],
            ["recovered segments", str(len(soak["recovered_segments"]))],
        ],
        title=f"process fleet — {NUM_WORKERS} workers, {len(traffic)} events",
    )

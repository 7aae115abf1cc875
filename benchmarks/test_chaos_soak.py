"""Chaos soak: the online loop under the default fault schedule (PR 8).

Drives the full serve → learn → deploy loop through
:func:`repro.faults.default_chaos_plan` — injected retrieval latency, a
shard crash burst, torn registry-index and click-log writes, a corrupted
checkpoint, transient train/canary failures, and a crash mid-hot-swap —
and audits the robustness contract:

* **zero dropped requests**: every submitted query is answered from some
  tier of the degradation ladder (full / prefilter / popularity), and the
  ladder is actually taken — the policy's submit-side budget sits below the
  plan's injected retrieval latency, so slow requests answer degraded;
* at least one automatic **rollback** fires (the corrupted candidate is
  quarantined, the torn swap is rolled back) and the loop keeps promoting
  afterwards;
* both persistence surfaces (registry index, click log) **restart clean**
  after the beating.

A second benchmark checks that the fault layer is invisible when it has
nothing to do: an *armed-but-empty* injector plus a generous policy must
produce bitwise-identical rankings to the path with neither (the acceptance
criterion of the PR).  Its seconds column is one reading per configuration;
the disabled layer's cost sits under ``qps_saturated`` on ``head-inproc`` in
``benchmarks/perf/run.py``.

Artifacts (CI-uploaded): ``chaos_soak.json`` (the soak report),
``fault_events.jsonl`` (every injected fault, one JSON line each), and
``chaos_dashboard.html`` (the fleet dashboard rendered after the soak —
degradation tiers, breaker states, rollback events on the deployment
timeline).  ``REPRO_SMOKE=1`` shrinks cycles and traffic for CI.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _helpers import assert_same_rankings
from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, make_search_datasets
from repro.faults import (
    FaultInjector,
    FaultPlan,
    default_chaos_plan,
    default_fault_alert_rules,
    run_chaos_soak,
)
from repro.obs import AlertManager
from repro.online import (
    CanaryGate,
    ClickLog,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import (
    DegradationPolicy,
    FleetConfig,
    ManualClock,
    MicroBatcher,
    SearchEngine,
    SessionCache,
    ZipfLoadGenerator,
    build_fleet,
    replay,
)
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"

SEED = 29
NUM_SHARDS = 2
#: Per-request deadline: ``degrade_after_ms`` (half of it, 15 ms) sits below
#: the 20 ms retrieval latency ``default_chaos_plan`` injects, so every slow
#: retrieval crosses the submit-side budget and answers below the full tier.
DEADLINE_MS = 30.0
NUM_CYCLES = 3 if SMOKE else 4
QUERIES_PER_CYCLE = 80 if SMOKE else 200
WARMUP_SESSIONS = 250 if SMOKE else 600
OVERHEAD_QUERIES = 80 if SMOKE else 400

_ARTIFACTS = Path(__file__).parent / "artifacts"
ARTIFACT = _ARTIFACTS / "chaos_soak.json"
FAULT_EVENTS = _ARTIFACTS / "fault_events.jsonl"
DASHBOARD = _ARTIFACTS / "chaos_dashboard.html"


def _build_world_and_model():
    config = WorldConfig.unit() if SMOKE else WorldConfig.small()
    world, warmup_train, _ = make_search_datasets(
        config, WARMUP_SESSIONS, 50, seed=SEED
    )
    model_config = ModelConfig.unit() if SMOKE else ModelConfig.small()
    bank = SeedBank(SEED)

    def factory(tag="candidate"):
        return build_model("aw_moe", model_config, warmup_train.meta, bank.child(tag))

    seed_model = factory("seed")
    train_model(
        seed_model,
        warmup_train,
        TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3),
        seed=77,
    )
    return world, seed_model, factory, bank


def test_chaos_soak(tmp_path):
    world, seed_model, factory, bank = _build_world_and_model()
    clock = ManualClock()
    injector = FaultInjector(
        default_chaos_plan(seed=SEED, shards=NUM_SHARDS),
        sleeper=clock.advance,
        clock=clock.now,
    )
    alerts = AlertManager(default_fault_alert_rules())
    cluster = build_fleet(
        world,
        seed_model,
        FleetConfig(
            num_workers=NUM_SHARDS,
            seed=SEED,
            max_batch_size=8,
            flush_deadline_ms=10.0,
            cache_capacity=1024,
            policy=DegradationPolicy(deadline_ms=DEADLINE_MS),
        ),
        backend="inprocess",
        clock=clock,
        injector=injector,
        alerts=alerts,
    )
    injector.events = cluster.control.events
    loop = OnlineLoop(
        world=world,
        cluster=cluster,
        trainer=IncrementalTrainer(
            seed_model,
            TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3),
            seed=SEED,
            injector=injector,
        ),
        model_factory=factory,
        registry=ModelRegistry(
            str(tmp_path / "registry"), clock=clock.now, injector=injector
        ),
        canary=CanaryGate(tolerance=1.0, injector=injector),
        click_model=PositionBiasedClickModel(world, bank.child("clicks")),
        click_log=ClickLog(path=str(tmp_path / "clicks.jsonl"), injector=injector),
        seed=SEED,
        alerts=alerts,
        watch_cycles=2,
    )
    generator = ZipfLoadGenerator(
        bank.child("traffic"), world=world, zipf_exponent=1.1, target_qps=300.0
    )
    result = run_chaos_soak(
        loop,
        generator,
        cycles=NUM_CYCLES,
        events_per_cycle=QUERIES_PER_CYCLE,
        injector=injector,
    )

    # -- the robustness contract ----------------------------------------
    assert result["dropped"] == 0, "every submitted request must be answered"
    assert result["faults_fired"] > 0, "the chaos plan must actually fire"
    tiers = result["degradation"]["tiers"]
    degraded = sum(count for tier, count in tiers.items() if tier != "full")
    assert degraded > 0, f"the slow retrievals must take the degradation ladder: {tiers}"
    assert result["rollbacks"] >= 1, "the corrupted candidate must roll back"
    assert result["event_counts"].get("rollback", 0) >= 1
    assert result["event_counts"].get("quarantine", 0) >= 1
    # The loop keeps working after its incidents: something promoted.
    assert loop.production_version is not None
    assert any(report["promoted"] for report in result["reports"])
    # Persistence restarts clean after torn writes and a corrupt checkpoint.
    reloaded = ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0)
    assert reloaded.recovery is None
    assert reloaded.production.version == loop.production_version
    recovered = ClickLog(path=str(tmp_path / "clicks.jsonl"))
    assert recovered.dropped_records == 2  # the two torn appends
    assert len(recovered) == result["submitted"] - 2

    # -- artifacts --------------------------------------------------------
    _ARTIFACTS.mkdir(parents=True, exist_ok=True)
    report = {
        "smoke": SMOKE,
        "seed": SEED,
        "soak": result,
        "restart": {
            "registry_clean": reloaded.recovery is None,
            "click_sessions_recovered": recovered.recovered_sessions,
            "click_records_dropped": recovered.dropped_records,
        },
    }
    ARTIFACT.write_text(json.dumps(report, indent=2))
    injector.to_jsonl(str(FAULT_EVENTS))
    cluster.dashboard(str(DASHBOARD))

    degradation = result["degradation"]
    print_table(
        ["Metric", "Value"],
        [
            ["submitted", str(result["submitted"])],
            ["answered", str(result["answered"])],
            ["dropped", str(result["dropped"])],
            ["faults fired", str(result["faults_fired"])],
            ["rollbacks", str(result["rollbacks"])],
            ["shed", str(degradation["shed"])],
            ["degraded share", f"{degradation['degraded_share']:.2%}"],
            ["open breakers", str(result["open_breakers"])],
        ],
        title=f"Chaos soak — {NUM_CYCLES} cycles x {QUERIES_PER_CYCLE} queries "
        f"(artifact: {ARTIFACT.name})",
    )


def test_fault_layer_overhead():
    """The fault layer must be invisible when empty.

    Two configurations replay identical Zipf traffic through the
    micro-batched serving path:

    * ``baseline`` — no injector, no policy (``NULL_INJECTOR``, the
      pre-fault-layer hot path);
    * ``armed-empty`` — a real :class:`FaultInjector` with an empty plan
      plus a generous :class:`DegradationPolicy`: pays the per-point visit
      scan and the budget clock reads, must still rank identically.
    """
    config = WorldConfig.unit() if SMOKE else WorldConfig.small()
    world, warmup_train, _ = make_search_datasets(config, WARMUP_SESSIONS, 50, seed=SEED)
    model = build_model(
        "aw_moe",
        ModelConfig.unit() if SMOKE else ModelConfig.small(),
        warmup_train.meta,
        np.random.default_rng(SEED),
    )
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(OVERHEAD_QUERIES)

    def run_once(injector, policy):
        engine = SearchEngine(
            world, model, np.random.default_rng(7), injector=injector
        )
        batcher = MicroBatcher(
            engine,
            max_batch_size=16,
            flush_deadline_ms=50.0,
            cache=SessionCache(2048),
            injector=injector,
            policy=policy,
        )
        start = time.perf_counter()
        results = replay(batcher, events)
        seconds = time.perf_counter() - start
        assert len(results) == OVERHEAD_QUERIES
        return results, seconds

    baseline, baseline_seconds = run_once(None, None)
    armed, armed_seconds = run_once(
        FaultInjector(FaultPlan()), DegradationPolicy(deadline_ms=1e9)
    )

    # Bitwise identity: armed-empty matches the baseline exactly.
    assert all(result.tier == "full" for result in baseline)
    assert_same_rankings(armed, baseline)

    print_table(
        ["Config", "Seconds"],
        [
            ["baseline", f"{baseline_seconds:.4f}"],
            ["armed-empty", f"{armed_seconds:.4f}"],
        ],
        title="Fault layer, armed but empty (identical rankings asserted)",
    )

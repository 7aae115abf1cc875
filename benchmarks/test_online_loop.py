"""Online-loop benchmark: the serve → learn → deploy cycle under drift.

Runs the full closed loop of :mod:`repro.online` over PR 1's sharded
serving fleet on *drifting* synthetic traffic:

1. an AW-MoE is trained offline on a deliberately small warm-up log (an
   undertrained seed, as a freshly launched ranker would be);
2. each refresh cycle replays Zipf traffic through the cluster, simulates
   position-biased clicks on the served rankings, appends them to the click
   log, warm-start-trains a candidate on the new window, registers it,
   canaries it against production on held-out sessions, and hot-swaps it in
   on a pass;
3. between cycles the world drifts (user interests and category effect
   weights shift), so standing still loses accuracy — the loop has to keep
   up.

Asserted — the loop's mechanics: every cycle registers a new version; a
deliberately corrupted candidate is blocked by the canary gate; every
promotion is one hot swap (``swaps == promotions + 1``, the bootstrap swap
included); and the registry's lineage holds every version, the corrupted
one rejected.

Recorded, not asserted — the outcome, which depends on the seed: the
number of promotions and the final production model's NDCG / AUC lift over
the frozen offline seed on post-drift evaluation traffic land in the
artifact (``promotions``, ``final_eval``).  Measured at full size over
seeds 23–32 (promotions of 4 cycles, NDCG lift, AUC lift):

====  ============================  ============================
seed  successive ``choice`` draw    exponential race (serving now)
====  ============================  ============================
23    3   +0.0016   +0.0005         4   +0.0154   +0.0144
24    4   +0.0048   +0.0071         4   +0.0068   +0.0103
25    3   +0.0041   +0.0013         1   +0.0018   +0.0077
26    4   +0.0074   +0.0117         3   +0.0023   +0.0067
27    3   -0.0013   -0.0056         4   +0.0062   +0.0108
28    4   -0.0162   -0.0168         2   -0.0117   -0.0137
29    2   +0.0003   +0.0114         3   +0.0163   +0.0372
30    1   +0.0035   +0.0012         2   +0.0134   +0.0059
31    1   -0.0036   -0.0129         0   +0.0000   +0.0000
32    4   -0.0004   -0.0089         3   +0.0146   -0.0004
====  ============================  ============================

The two columns are the serving draw streams before and after candidate
sampling became an exponential race: 29/40 vs 26/40 promotions, NDCG lift
< 0 on 4/10 vs ≤ 0 on 2/10 seeds, mean NDCG lift +0.0002 vs +0.0065.  No
seed is special, so none is asserted on.  With no promotion there is no
``swap`` span and no drift reference, and the test checks exactly that.

The loop runs fully observed: a 100%-sampling tracer exports one
refresh-cycle span tree per cycle to ``refresh_trace.jsonl``, the trainer
streams per-step loss/grad-norm/timing into a metrics registry, a drift
monitor scores each cycle's live window against the promoted model's
training reference, an alert manager watches the merged telemetry, and the
run closes by rendering the self-contained ``dashboard.html`` — the two
files CI uploads as artifacts.

Writes ``benchmarks/artifacts/online_loop.json``.  Set ``REPRO_SMOKE=1``
for the CI smoke configuration (fewer sessions/cycles, same assertions).
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, drift_world, make_search_datasets
from repro.data.synthetic import build_test_dataset, simulate_search_log
from repro.obs import (
    AlertManager,
    DriftMonitor,
    JsonlTraceExporter,
    MetricsRegistry,
    SloTracker,
    Tracer,
)
from repro.online import (
    CanaryGate,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import (
    FleetConfig,
    FleetContext,
    ManualClock,
    ZipfLoadGenerator,
    build_fleet,
    compare_gate_strategies,
)
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"

SEED = 23
NUM_CYCLES = 3 if SMOKE else 4
QUERIES_PER_CYCLE = 150 if SMOKE else 500
WARMUP_SESSIONS = 250 if SMOKE else 600
EVAL_SESSIONS = 150 if SMOKE else 300
NUM_SHARDS = 2
_ARTIFACTS = Path(__file__).parent / "artifacts"
ARTIFACT = _ARTIFACTS / "online_loop.json"
#: CI-uploaded observability artifacts (same names in smoke and full mode —
#: the online-loop benchmark runs once per job).
REFRESH_TRACE = _ARTIFACTS / "refresh_trace.jsonl"
DASHBOARD = _ARTIFACTS / "dashboard.html"
#: Demonstrative alert rules over the loop's merged telemetry.  Whether
#: they fire depends on how hard the worlds drifts; transitions are
#: recorded in the artifact, not asserted (the deterministic alert-path
#: assertion lives in ``tests/online/test_loop_observability.py``).
ALERT_RULES = (
    "drift-worst: drift_psi_worst > 0.25 for 1",
    "log-lag: click_log_lag > 10000 for 1 severity critical",
)


def _evaluate(model, dataset):
    from repro.eval import evaluate_ranking

    metrics = evaluate_ranking(model, dataset)
    return {"auc": metrics["auc"], "ndcg": metrics["ndcg"]}


def test_online_loop(tmp_path_factory):
    bank = SeedBank(SEED)
    config = WorldConfig.unit() if SMOKE else WorldConfig.small()
    world, warmup_train, _ = make_search_datasets(
        config, WARMUP_SESSIONS, max(EVAL_SESSIONS // 2, 50), seed=SEED
    )
    model_config = ModelConfig.unit() if SMOKE else ModelConfig.small()
    train_config = TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3)
    # Refresh cycles take two passes over each (small) click window; the
    # category-level drift signal lives in few parameters, so the extra
    # pass pays off without overfitting the static structure.
    refresh_config = replace(train_config, epochs=2)

    def factory(seed=1):
        return build_model("aw_moe", model_config, warmup_train.meta, bank.child(f"model-{seed}"))

    # Offline seed: deliberately light training — the loop must improve it.
    seed_model = factory(0)
    train_model(seed_model, warmup_train, train_config, seed=77)
    frozen_offline = factory("frozen")
    frozen_offline.load_state_dict(seed_model.state_dict())

    clock = ManualClock()
    train_metrics = MetricsRegistry()
    drift = DriftMonitor(min_samples=10)
    alerts = AlertManager(ALERT_RULES)
    cluster = build_fleet(
        world,
        seed_model,
        FleetConfig(
            num_workers=NUM_SHARDS,
            seed=SEED,
            max_batch_size=8,
            flush_deadline_ms=10.0,
            cache_capacity=1024,
        ),
        backend="inprocess",
        ctx=FleetContext(
            clock=clock, slo=SloTracker(latency_slo_ms=250.0), drift=drift, alerts=alerts
        ),
    )
    cluster.control.record_cost_model(
        compare_gate_strategies(
            model_config, world.meta(), world.config.items_per_session, world.config.max_seq_len
        )
    )
    registry = ModelRegistry(
        str(tmp_path_factory.mktemp("registry")), clock=lambda: clock.now()
    )
    REFRESH_TRACE.parent.mkdir(parents=True, exist_ok=True)
    trace_exporter = JsonlTraceExporter(str(REFRESH_TRACE), max_bytes=4_000_000, keep=2)
    loop = OnlineLoop(
        world=world,
        cluster=cluster,
        trainer=IncrementalTrainer(
            seed_model, refresh_config, seed=SEED, metrics=train_metrics
        ),
        model_factory=factory,
        registry=registry,
        canary=CanaryGate(tolerance=0.02),
        click_model=PositionBiasedClickModel(world, bank.child("clicks")),
        seed=SEED,
        tracer=Tracer(sample_rate=1.0, exporter=trace_exporter, clock=clock.now),
    )
    loop.bootstrap()

    # -- refresh cycles on drifting traffic -----------------------------
    drift_rng = bank.child("drift")
    cycle_rows = []
    for cycle in range(NUM_CYCLES):
        if cycle > 0:
            drift_world(world, drift_rng, interest_drift=0.1, trend_drift=0.3)
        events = ZipfLoadGenerator(
            bank.child(f"traffic-{cycle}"), world=world, zipf_exponent=1.1, target_qps=300.0
        ).generate(QUERIES_PER_CYCLE)
        report = loop.run_cycle(events)
        cycle_rows.append(report)
        assert report.sessions_logged == QUERIES_PER_CYCLE
        assert report.candidate_version is not None, "every cycle must produce a candidate"

    # -- canary sanity check: corrupted candidates are blocked ----------
    corrupted = factory("corrupted")
    corrupted.load_state_dict(loop.trainer.model.state_dict())
    noise_rng = bank.child("corruption")
    for param in corrupted.parameters():
        param.data += noise_rng.normal(0, 1.0, size=param.data.shape).astype(param.data.dtype)
    holdout = build_test_dataset(
        simulate_search_log(world, EVAL_SESSIONS, bank.child("canary-holdout"))
    )
    corrupted_entry = registry.register(corrupted, parent=loop.production_version)
    corrupted_report = loop.canary.judge(corrupted, loop.production_model, holdout)
    assert not corrupted_report.passed, "canary must block a corrupted candidate"
    registry.reject(corrupted_entry.version, metrics=corrupted_report.candidate)
    cluster.control.record_canary(False)

    # -- final evaluation on post-drift traffic -------------------------
    final_eval = build_test_dataset(
        simulate_search_log(world, EVAL_SESSIONS, bank.child("final-eval"))
    )
    offline_metrics = _evaluate(frozen_offline, final_eval)
    online_metrics = _evaluate(loop.production_model, final_eval)

    # -- observability artifacts: refresh traces + dashboard -------------
    trace_exporter.close()
    fleet = cluster.summary()
    promotions = sum(1 for row in cycle_rows if row.promoted)
    report = {
        "smoke": SMOKE,
        "seed": SEED,
        "promotions": promotions,
        "cycles": [row.summary() for row in cycle_rows],
        "alerts": alerts.status(),
        "drift": drift.to_dict(),
        "train_metrics": train_metrics.to_json(),
        "registry": [
            {
                "version": entry.version,
                "status": entry.status,
                "parent": entry.parent,
                "window": list(entry.window),
                "metrics": entry.metrics,
            }
            for entry in registry.versions
        ],
        "final_eval": {
            "sessions": int(final_eval.num_sessions()),
            "frozen_offline": offline_metrics,
            "online_loop": online_metrics,
            "ndcg_lift": online_metrics["ndcg"] - offline_metrics["ndcg"],
            "auc_lift": online_metrics["auc"] - offline_metrics["auc"],
        },
        "fleet": {
            "queries": fleet["queries"],
            "online": fleet["online"],
            "cost": fleet["cost"],
            "cache_hit_rate": fleet["cache"]["hit_rate"],
        },
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Cycle", "Clicks", "Candidate", "Promoted", "Canary AUC", "Canary NDCG"],
        [
            [
                str(row.cycle),
                str(row.clicks),
                f"v{row.candidate_version:04d}",
                "yes" if row.promoted else "no",
                "-" if row.canary is None else f"{row.canary.candidate['auc']:.4f}",
                "-" if row.canary is None else f"{row.canary.candidate['ndcg']:.4f}",
            ]
            for row in cycle_rows
        ],
        title=f"Online loop — {NUM_CYCLES} refresh cycles on drifting traffic "
        f"(artifact: {ARTIFACT.name})",
    )
    print(
        f"Post-drift eval: offline AUC={offline_metrics['auc']:.4f} "
        f"NDCG={offline_metrics['ndcg']:.4f}  |  online AUC={online_metrics['auc']:.4f} "
        f"NDCG={online_metrics['ndcg']:.4f}"
    )

    print(
        cluster.fleet_report(
            dashboard_path=str(DASHBOARD),
            registry=train_metrics,
            traces=list(loop.tracer.finished),
        )
    )

    # -- acceptance: the loop's mechanics ---------------------------------
    # Promotions and the lift over the frozen seed are seed-dependent
    # outcomes (see the module docstring): recorded above, not asserted.
    assert fleet["online"]["swaps"] == promotions + 1  # + the bootstrap swap
    assert fleet["online"]["canary_failures"] >= 1  # the corrupted candidate
    assert registry.num_rejected >= 1
    assert registry.latest_version == NUM_CYCLES + 2  # seed + cycles + corrupted

    # -- observability acceptance ----------------------------------------
    # One refresh-cycle span tree per cycle, covering every loop stage.
    trace_records = [
        json.loads(line) for line in REFRESH_TRACE.read_text().strip().splitlines()
    ]
    refreshes = [r for r in trace_records if r["name"] == "refresh"]
    assert len(refreshes) == NUM_CYCLES
    span_names = {span["name"] for record in refreshes for span in record["spans"]}
    required_spans = ("serve", "read_new", "train", "epoch", "register", "canary", "replay")
    for required in required_spans + (("swap",) if promotions else ()):
        assert required in span_names, f"span {required!r} missing from refresh trace"
    # Per-step training telemetry streamed into the registry.
    steps = train_metrics.counter("train_steps_total").value
    assert steps > 0
    assert train_metrics.histogram("train_step_ms").count == steps
    assert train_metrics.histogram("train_loss").count == steps
    assert train_metrics.histogram("train_grad_norm").count == steps
    # Each promotion freezes the drift reference: a cycle is scored against
    # it exactly when an earlier cycle promoted.
    assert drift.has_reference == (promotions > 0)
    assert [row.drift is not None for row in cycle_rows] == [
        any(row.promoted for row in cycle_rows[:cycle]) for cycle in range(NUM_CYCLES)
    ]
    # The dashboard artifact rendered with its panels.
    html = DASHBOARD.read_text()
    assert html.startswith("<!DOCTYPE html>")
    for anchor in ("alerts —", "drift vs training reference", "control-plane events",
                   "Sampled traces", "train_step_ms"):
        assert anchor in html, f"dashboard panel anchor {anchor!r} missing"


def test_drift_smoke(tmp_path_factory):
    """Drift-monitor end-to-end sanity: drifted traffic scores higher PSI.

    Two runs of the same two-cycle loop under identical seeds — one
    stationary, one with a hard ``drift_world`` between the cycles — must
    disagree in exactly one way: the drifted run's cycle-2 CTR PSI clearly
    exceeds the stationary baseline.  The refresh uses a near-zero learning
    rate so the promoted model is weight-identical to its predecessor:
    reference and live windows are served by the same scoring function and
    any PSI movement is traffic drift, not a deployment artifact.

    Each cycle serves a 1,000-event window: PSI between two CTR windows has
    a sampling-noise floor that shrinks with the window.  At 250 events the
    stationary PSI ranged 0.001–0.193 over sixteen seeded runs (above 0.04
    in 7).  The ranges at both sizes are in the docstring of
    ``tests/online/test_loop_observability.py::TestEndToEndAlertPath``.
    """
    window = 1000  # events per cycle

    def run(drifted):
        world, warmup, _ = make_search_datasets(WorldConfig.unit(), 400, 100, seed=2)
        model = build_model(
            "aw_moe", ModelConfig.unit(), warmup.meta, np.random.default_rng(0)
        )
        train_model(
            model, warmup,
            TrainConfig(epochs=1, batch_size=64, learning_rate=3e-3), seed=8,
        )
        state = model.state_dict()

        def make_model(trained=False):
            fresh = build_model(
                "aw_moe", ModelConfig.unit(), warmup.meta, np.random.default_rng(1)
            )
            if trained:
                fresh.load_state_dict(state)
            return fresh

        clock = ManualClock()
        drift_monitor = DriftMonitor(min_samples=10)
        cluster = build_fleet(
            world, make_model(trained=True),
            FleetConfig(
                num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
                cache_capacity=128,
            ),
            backend="inprocess", ctx=FleetContext(clock=clock, drift=drift_monitor),
        )
        loop = OnlineLoop(
            world=world,
            cluster=cluster,
            trainer=IncrementalTrainer(
                make_model(trained=True),
                TrainConfig(epochs=1, batch_size=64, learning_rate=1e-7),
                seed=5,
            ),
            model_factory=make_model,
            registry=ModelRegistry(
                str(tmp_path_factory.mktemp("drift-registry")), clock=lambda: 0.0
            ),
            canary=CanaryGate(tolerance=1.0),
            click_model=PositionBiasedClickModel(world, np.random.default_rng(3)),
            seed=11,
        )
        loop.bootstrap()
        gen = ZipfLoadGenerator(
            np.random.default_rng(7), world=world, target_qps=500.0
        )
        loop.run_cycle(gen.generate(window))  # promote + freeze the reference
        if drifted:
            drift_world(
                world, np.random.default_rng(9), interest_drift=1.0, trend_drift=0.8
            )
        report = loop.run_cycle(gen.generate(window))
        return report.drift["ctr"]["psi"]

    stationary = run(drifted=False)
    drifted = run(drifted=True)
    print(f"drift smoke: stationary ctr PSI={stationary:.4f}, "
          f"drifted ctr PSI={drifted:.4f}")
    # The asserted gap (2x, plus an absolute floor) never passes on a dead
    # monitor; see the docstring for how far apart the two cases measure.
    assert stationary < 0.04, "stationary traffic must stay near the noise floor"
    assert drifted > 0.04, "drift_world traffic must raise PSI above the alarm line"
    assert drifted > 2.0 * stationary

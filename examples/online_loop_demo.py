"""Online learning loop demo: serve → click log → retrain → canary → hot-swap.

Walks the full feedback loop the deployed AW-MoE lives in (§III-F): an
offline-trained seed model is registered and deployed to a sharded serving
fleet; Zipf traffic is replayed through it; a position-biased click model
simulates user feedback on the served rankings; the click log is consumed by
a warm-start incremental trainer; every refreshed candidate is canaried
against production on held-out sessions; and promoted versions are
hot-swapped into the fleet between micro-batches — with the session gate
cache invalidated so no stale gate vector survives a version switch.

The world drifts between cycles, so the frozen seed decays while the loop
keeps up.  At the end, a deliberately corrupted candidate demonstrates the
canary gate blocking a bad deployment.

Run:  python examples/online_loop_demo.py
"""

import tempfile
from dataclasses import replace


from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, drift_world, make_search_datasets
from repro.data.synthetic import build_test_dataset, simulate_search_log
from repro.eval import evaluate_ranking
from repro.online import (
    CanaryGate,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import FleetConfig, ManualClock, ZipfLoadGenerator, build_fleet
from repro.utils import SeedBank, print_table

NUM_CYCLES = 3
QUERIES_PER_CYCLE = 500
SEED = 31


def main() -> None:
    bank = SeedBank(SEED)
    print("Generating world and training the offline seed model ...")
    world, warmup_train, _ = make_search_datasets(
        WorldConfig.small(), num_train_sessions=600, num_test_sessions=100, seed=SEED
    )
    model_config = ModelConfig.small()
    train_config = TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3)
    refresh_config = replace(train_config, epochs=2)  # two passes per click window

    def factory(tag="serving"):
        return build_model("aw_moe", model_config, warmup_train.meta, bank.child(f"model-{tag}"))

    seed_model = factory("seed")
    train_model(seed_model, warmup_train, train_config, seed=7)
    frozen = factory("frozen")
    frozen.load_state_dict(seed_model.state_dict())

    # --- assemble the loop --------------------------------------------
    clock = ManualClock()
    cluster = build_fleet(
        world, seed_model,
        FleetConfig(
            num_workers=2, seed=SEED, max_batch_size=8, flush_deadline_ms=10.0,
            cache_capacity=1024,
        ),
        backend="inprocess", clock=clock,
    )
    registry_dir = tempfile.mkdtemp(prefix="awmoe-registry-")
    loop = OnlineLoop(
        world=world,
        cluster=cluster,
        trainer=IncrementalTrainer(seed_model, refresh_config, seed=SEED),
        model_factory=factory,
        registry=ModelRegistry(registry_dir, clock=clock),
        canary=CanaryGate(tolerance=0.02),
        click_model=PositionBiasedClickModel(world, bank.child("clicks")),
        seed=SEED,
    )
    version = loop.bootstrap()
    print(f"Bootstrapped: registered + deployed v{version:04d} "
          f"(registry at {registry_dir})")

    # --- refresh cycles under drift ------------------------------------
    drift_rng = bank.child("drift")
    rows = []
    for cycle in range(NUM_CYCLES):
        if cycle > 0:
            drift_world(world, drift_rng, interest_drift=0.1, trend_drift=0.3)
        events = ZipfLoadGenerator(
            bank.child(f"traffic-{cycle}"), world=world, target_qps=300.0
        ).generate(QUERIES_PER_CYCLE)
        report = loop.run_cycle(events)
        canary = report.canary
        rows.append([
            str(report.cycle),
            str(report.queries_served),
            str(report.clicks),
            f"v{report.candidate_version:04d}",
            "-" if canary is None else f"{canary.candidate['auc']:.4f}",
            "promoted + hot-swapped" if report.promoted else "rejected by canary",
        ])
    print_table(
        ["Cycle", "Queries", "Clicks", "Candidate", "Canary AUC", "Outcome"],
        rows,
        title="Refresh cycles (drifting world)",
    )

    # --- canary blocks a corrupted candidate ---------------------------
    corrupted = factory("corrupted")
    corrupted.load_state_dict(loop.trainer.model.state_dict())
    rng = bank.child("noise")
    for param in corrupted.parameters():
        param.data += rng.normal(0, 1.0, size=param.data.shape).astype(param.data.dtype)
    holdout = build_test_dataset(simulate_search_log(world, 150, bank.child("holdout")))
    verdict = loop.canary.judge(corrupted, loop.production_model, holdout)
    print(f"\nCorrupted candidate vs production: {verdict}")
    assert not verdict.passed

    # --- final comparison ----------------------------------------------
    final_eval = build_test_dataset(simulate_search_log(world, 200, bank.child("eval")))
    frozen_metrics = evaluate_ranking(frozen, final_eval)
    online_metrics = evaluate_ranking(loop.production_model, final_eval)
    print_table(
        ["Model", "AUC", "NDCG"],
        [
            ["frozen offline seed", f"{frozen_metrics['auc']:.4f}", f"{frozen_metrics['ndcg']:.4f}"],
            [f"online loop ({cluster.model_version})",
             f"{online_metrics['auc']:.4f}", f"{online_metrics['ndcg']:.4f}"],
        ],
        title="Post-drift evaluation",
    )
    fleet = cluster.summary()
    print(f"\nFleet: {fleet['queries']} queries, "
          f"{fleet['online']['swaps']} hot swaps, "
          f"{fleet['online']['canary_passes']} canary passes / "
          f"{fleet['online']['canary_failures']} failures, "
          f"gate-cache hit rate {fleet['cache']['hit_rate']:.1%}")
    print("Registry audit trail:")
    for entry in loop.registry.versions:
        print(f"  v{entry.version:04d}  parent={entry.parent}  "
              f"window={entry.window}  status={entry.status}")


if __name__ == "__main__":
    main()

"""Serving demo: the online system of Fig. 6 and the §III-F optimization.

Builds the retrieval + ranking engine over a trained AW-MoE, serves live
queries, reports latency, prints the gate-cost comparison between the
initial (gate-per-item) and deployed (gate-per-session) designs, drives the
high-throughput stack (Zipf traffic → sharded workers → micro-batching →
cached session gates) with full observability — request tracing, a fleet
SLO, and the ``fleet_report()`` dashboard — and runs a small A/B test of
AW-MoE against Category-MoE.

Run:  python examples/serving_demo.py
"""

import numpy as np

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, make_search_datasets
from repro.obs import SloTracker, Tracer
from repro.serving import (
    FleetConfig,
    FleetContext,
    SearchEngine,
    ZipfLoadGenerator,
    build_fleet,
    compare_gate_strategies,
    replay,
    run_ab_test,
)
from repro.utils import SeedBank, print_table


def main() -> None:
    print("Generating world and training rankers ...")
    world, train, test = make_search_datasets(
        WorldConfig.small(), num_train_sessions=2000, num_test_sessions=300, seed=5
    )
    bank = SeedBank(47)
    config = TrainConfig(epochs=2, batch_size=256, learning_rate=1.5e-3)

    category_moe = build_model("category_moe", ModelConfig.small(), train.meta, bank.child("cat"))
    train_model(category_moe, train, config, seed=8)
    aw_moe = build_model("aw_moe", ModelConfig.small(), train.meta, bank.child("aw"))
    train_model(aw_moe, train, config.with_contrastive(), seed=8)

    # --- serve a few live queries -------------------------------------
    engine = SearchEngine(world, aw_moe, np.random.default_rng(1))
    print("\nServing five queries through the engine:")
    for user in range(5):
        category = int(np.argmax(world.user_interests[user]))
        ranking = engine.search(user, category)
        top = ranking.items[:3] + 1
        print(
            f"  user {user} searched category {category}: top items {list(top)}"
            f" ({ranking.latency_ms:.1f} ms)"
        )
    print(f"Mean latency: {engine.avg_latency_ms:.1f} ms/query "
          "(paper: ~20 ms on a production cluster)")

    # --- §III-F gate optimization -------------------------------------
    report = compare_gate_strategies(
        ModelConfig.paper(), test.meta, items_per_session=40, seq_len=1000
    )
    print_table(
        ["Design", "gate evals/session", "gate MFLOPs/session"],
        [
            ["initial (gate per item)", "40", f"{report.gate_flops * 40 / 1e6:.1f}"],
            ["deployed (gate per session)", "1", f"{report.gate_flops / 1e6:.1f}"],
        ],
        title="Gate-network cost (paper layer sizes, 1000-item history)",
    )
    print(f"Gate-resource saving: {report.gate_saving_factor:.0f}x (paper: >10x)")
    print(
        "Behaviour encoder once per session too (session-factored score plan): "
        f"a further {report.behavior_saving_factor:.2f}x of the session's FLOPs"
    )

    # --- high-throughput stack: shards + micro-batching + gate cache ---
    # One tracer samples 10% of requests into bounded in-memory span trees;
    # one SLO tracker watches sliding-window p99 and error-budget burn.
    print("\nReplaying 300 Zipf-distributed queries through a 4-shard cluster ...")
    tracer = Tracer(sample_rate=0.1, seed=3)
    slo = SloTracker(latency_slo_ms=100.0, availability_target=0.99)
    cluster = build_fleet(
        world, aw_moe,
        FleetConfig(num_workers=4, seed=21, max_batch_size=16, flush_deadline_ms=50.0),
        backend="inprocess", ctx=FleetContext(tracer=tracer, slo=slo),
    )
    events = ZipfLoadGenerator(
        np.random.default_rng(13), world=world, zipf_exponent=1.2
    ).generate(300)
    replay(cluster, events)
    print(cluster.fleet_report())
    if tracer.finished:
        last = tracer.finished[-1]
        print(f"\nOne sampled request trace ({last['name']}, "
              f"{last['duration_ms']:.1f} ms):")
        for span in last["spans"]:
            indent = "    " if span["parent"] is not None else "  "
            print(f"{indent}{span['name']:<14} {span['duration_ms']:8.3f} ms")

    # --- §IV-I A/B test -------------------------------------------------
    print("\nRunning simulated A/B test (Category-MoE control vs AW-MoE & CL) ...")
    result = run_ab_test(world, category_moe, aw_moe, num_users=400, seed=9)
    print_table(
        ["Metric", "control", "treatment", "lift", "p-value"],
        [
            ["UCTR", f"{result.uctr_a:.4f}", f"{result.uctr_b:.4f}",
             f"{result.uctr_lift * 100:+.2f}%", f"{result.uctr_p_value:.4f}"],
            ["UCVR", f"{result.ucvr_a:.4f}", f"{result.ucvr_b:.4f}",
             f"{result.ucvr_lift * 100:+.2f}%", f"{result.ucvr_p_value:.4f}"],
        ],
        title="Simulated online A/B test",
    )


if __name__ == "__main__":
    main()

"""§III-F — the deployed gate optimization: > 10x gate-resource saving.

The paper's initial design fed the target item to the gate, forcing one gate
evaluation per candidate; the deployed design uses user/query features only,
so one evaluation serves the whole session.  The benchmark counts FLOPs from
the paper's exact layer sizes (Fig. 4) and also measures wall-clock serving
latency through the engine simulator for both designs.
"""

import numpy as np

from repro.core import ModelConfig
from repro.serving import SearchEngine, compare_gate_strategies
from repro.utils import print_table


def test_serving_gate_optimization(benchmark, search_data, trained_models):
    world, _, test = search_data
    meta = test.meta

    report = benchmark.pedantic(
        lambda: compare_gate_strategies(
            ModelConfig.paper(), meta, items_per_session=40, seq_len=1000
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        ["Gate evaluations / session", "40", "1"],
        ["Gate MFLOPs / session",
         f"{report.gate_flops * 40 / 1e6:.1f}", f"{report.gate_flops / 1e6:.1f}"],
        ["Total MFLOPs / session",
         f"{report.per_item_total / 1e6:.1f}", f"{report.per_session_total / 1e6:.1f}"],
    ]
    print_table(
        ["Quantity", "gate-per-item design", "deployed (per-session)"],
        rows,
        title="§III-F — gate computation strategies (paper layer sizes, M=1000, 40 items)",
    )
    print(f"Gate-resource saving factor: {report.gate_saving_factor:.0f}x (paper: >10x)")
    print(f"End-to-end FLOP saving: {report.total_saving_factor:.2f}x")
    print(
        "Behaviour side (MLP^I over the history + query MLP) once per session too: "
        f"{report.behavior_flops / 1e6:.1f} MFLOPs, a further "
        f"{report.behavior_saving_factor:.2f}x ({report.factored_total / 1e6:.1f} MFLOPs / session)"
    )

    assert report.gate_saving_factor > 10.0, "paper's >10x gate saving must hold"
    assert report.total_saving_factor > 1.0
    assert report.behavior_saving_factor > 1.0

    # Wall-clock sanity on the engine simulator: mean latency per query is
    # finite and small at our scale (the paper reports ~20ms on its cluster).
    model, _ = trained_models["aw_moe"]
    engine = SearchEngine(world, model, np.random.default_rng(0))
    for user in range(10):
        engine.search(user, int(world.item_category[user % world.num_items]))
    print(f"Engine mean latency: {engine.avg_latency_ms:.1f} ms/query (CPU simulator)")
    assert engine.avg_latency_ms < 1000.0

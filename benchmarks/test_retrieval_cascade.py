"""Retrieval-cascade benchmark: sublinear serving on a large catalog.

The paper's deployment (§III-F, Fig. 6) puts the AW-MoE ranker behind a
candidate generator; scoring the whole catalog with the full model is linear
in catalog size.  This benchmark builds a catalog-dominated world
(:meth:`WorldConfig.large_catalog`, ~10k items per category), trains an
AW-MoE on it, and compares:

* **exhaustive** — the full compiled model scores every item of the query
  category (the pre-cascade pipeline with ``candidates_per_query`` opened to
  the whole catalog);
* **cascade** — the two-stage retrieval cascade (:mod:`repro.retrieval`):
  IVF ANN index over the model's item vectors → calibrated linear prefilter
  → full model on the K survivors.

Acceptance: **recall@10 >= 0.95** against the exhaustive oracle's top-10 on
identical Zipf traffic (deterministic given the seed, asserted in every
mode), the fleet within 0.02 of it, the live shadow-recall monitor within
0.02 of the offline probe, and ``CascadeConfig.exhaustive()`` bitwise the
pre-cascade pipeline.  The QPS column is one reading per path for the
artifact: cascade ÷ exhaustive is capped by category size / survivors (7.8x
here) and *falls* whenever the shared ranker gets cheaper per row, so it is
not a gate — ``benchmarks/perf/run.py`` judges cascade speed
(``qps_saturated`` on ``catalog-cascade``, ``retrieval.*_ms_per_req``).

``REPRO_SMOKE=1`` shrinks the catalog and query counts so CI exercises the
whole path on every push (its artifact goes to ``*_smoke.json``).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig
from repro.data.synthetic import build_train_dataset, generate_world, simulate_search_log
from repro.obs import ShadowRecallMonitor
from repro.retrieval import CascadeConfig, RetrievalProbe
from repro.serving import (
    FleetConfig,
    SearchEngine,
    ZipfLoadGenerator,
    build_fleet,
    compare_retrieval_strategies,
    replay,
)
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
_SUFFIX = "_smoke" if SMOKE else ""
ARTIFACT = Path(__file__).parent / "artifacts" / f"retrieval_cascade{_SUFFIX}.json"

#: Catalog scale: >= 100k items in full mode (acceptance floor).  Smoke
#: keeps the same ~10k items-per-category shape and only drops categories.
NUM_ITEMS = 30_000 if SMOKE else 120_000
NUM_CATEGORIES = 3 if SMOKE else 12
#: Training budget: the cascade serves a *converged* ranker (the realistic
#: regime — a half-trained model's catalog-tail ranking is noise no
#: candidate generator could anticipate), so smoke mode keeps the epochs
#: and only slims the catalog and query count.
TRAIN_SESSIONS = 4000 if SMOKE else 8000
NUM_QUERIES = 12 if SMOKE else 40
#: The tuned serving cascade under test.
CASCADE = CascadeConfig(
    retrieve_n=3072,
    prune=1280,
    nprobe=48,
    calibration_queries=256,
    calibration_items=512,
)
RECALL_FLOOR = 0.95


def _recall_at_10(cascade_items: np.ndarray, oracle_top10: np.ndarray) -> float:
    kept = set(cascade_items[:10].tolist())
    return sum(1 for item in oracle_top10.tolist() if item in kept) / oracle_top10.size


def test_retrieval_cascade_speedup_and_recall():
    bank = SeedBank(29)
    world = generate_world(
        WorldConfig.large_catalog(num_items=NUM_ITEMS, num_categories=NUM_CATEGORIES),
        bank.child("world"),
    )
    log = simulate_search_log(world, TRAIN_SESSIONS, bank.child("sessions"))
    train = build_train_dataset(log, bank.child("negatives"))
    model = build_model("aw_moe", ModelConfig.unit(), train.meta, bank.child("model"))
    train_model(
        model, train, TrainConfig(epochs=4, batch_size=256, learning_rate=2e-3), seed=7
    )
    model.eval()
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)

    # -- exhaustive baseline: full model over the whole query category ----
    exhaustive = SearchEngine(
        world, model, np.random.default_rng(7), candidates_per_query=world.num_items + 1
    )
    build_start = time.perf_counter()
    engine = SearchEngine(world, model, np.random.default_rng(7), cascade=CASCADE)
    build_seconds = time.perf_counter() - build_start

    oracle = {}
    start = time.perf_counter()
    for event in events:
        result = exhaustive.search(event.user, event.query_category)
        oracle[(event.user, event.query_category)] = result.items[:10]
    exhaustive_qps = NUM_QUERIES / (time.perf_counter() - start)
    recalls = []
    start = time.perf_counter()
    for event in events:
        result = engine.search(event.user, event.query_category)
        recalls.append(_recall_at_10(result.items, oracle[(event.user, event.query_category)]))
    cascade_qps = NUM_QUERIES / (time.perf_counter() - start)
    recall = float(np.mean(recalls))

    # -- knob sweep: the recall <-> speed trade the cascade exposes -------
    sweep_rows = []
    sweep = [
        ("tight", CascadeConfig(retrieve_n=1024, prune=256, nprobe=8)),
        ("tuned (serving)", CASCADE),
        ("exact stage-1", CASCADE.with_exhaustive_stage1()),
    ]
    sweep_report = []
    for label, config in sweep:
        if config is CASCADE:
            sweep_qps, sweep_recall = cascade_qps, recall
        else:
            swept = SearchEngine(world, model, np.random.default_rng(7), cascade=config)
            swept_recalls = []
            start = time.perf_counter()
            for event in events:
                result = swept.search(event.user, event.query_category)
                swept_recalls.append(
                    _recall_at_10(result.items, oracle[(event.user, event.query_category)])
                )
            sweep_qps = NUM_QUERIES / (time.perf_counter() - start)
            sweep_recall = float(np.mean(swept_recalls))
        sweep_report.append(
            {
                "label": label,
                "nprobe": str(config.nprobe),
                "retrieve_n": config.retrieve_n,
                "prune": config.prune,
                "recall_at_10": sweep_recall,
                "qps": sweep_qps,
            }
        )
        sweep_rows.append(
            [label, str(config.nprobe), str(config.retrieve_n), str(config.prune),
             f"{sweep_recall:.3f}", f"{sweep_qps:.0f}"]
        )

    # -- exhaustive-parity mode: the oracle is bitwise the old pipeline ---
    parity_engine = SearchEngine(
        world,
        model,
        np.random.default_rng(7),
        candidates_per_query=world.num_items + 1,
        cascade=CascadeConfig.exhaustive(),
    )
    probe_event = events[0]
    want = exhaustive.search(probe_event.user, probe_event.query_category)
    got = parity_engine.search(probe_event.user, probe_event.query_category)
    np.testing.assert_array_equal(got.items, want.items)
    np.testing.assert_array_equal(got.scores, want.scores)

    # -- fleet integration: cascade behind the sharded micro-batching stack
    cluster = build_fleet(
        world,
        model,
        FleetConfig(
            num_workers=2,
            seed=5,
            max_batch_size=8,
            flush_deadline_ms=50.0,
            cache_capacity=2048,
            cascade=CASCADE,
        ),
        backend="inprocess",
    )
    start = time.perf_counter()
    fleet_results = replay(cluster, events)
    fleet_qps = NUM_QUERIES / (time.perf_counter() - start)
    assert len(fleet_results) == NUM_QUERIES
    # Each shard's compiled working set (score + gate arenas) after serving
    # every flush size its traffic produced: the arena's high-water mark.
    arena_bytes = [
        sum(worker.engine.compiled_model.stats()[plan]["arena_bytes"] for plan in ("score", "gate"))
        for worker in cluster.workers
    ]
    fleet_recall = float(
        np.mean(
            [
                _recall_at_10(r.items, oracle[(r.user, r.query_category)])
                for r in fleet_results
            ]
        )
    )

    # Shadow-recall acceptance: attach a 100%-rate shadow monitor (after
    # the QPS reading: a full-rate oracle re-run per query would dominate
    # it; production runs at ~0.5%) and replay the same
    # traffic — the live monitor's estimate must agree with the canary
    # RetrievalProbe run offline over the same queries.  Both consult the
    # exhaustive oracle, so any gap is a wiring bug.
    shadow = ShadowRecallMonitor(rate=1.0, k=10)
    cluster.attach_shadow_recall(shadow)
    replay(cluster, events)
    assert shadow.samples == NUM_QUERIES
    probe = RetrievalProbe(
        world,
        CASCADE,
        queries=[(e.user, e.query_category) for e in events],
        k=10,
        min_recall=0.0,
    )
    _, probe_recall = probe.check(model)
    shadow_gap = abs(shadow.recall_at_k - probe_recall)
    assert shadow_gap <= 0.02, (
        f"shadow recall {shadow.recall_at_k:.3f} vs probe {probe_recall:.3f} "
        f"(gap {shadow_gap:.3f} > 0.02)"
    )

    # -- FLOP cost model ---------------------------------------------------
    mean_category = int(np.mean([np.sum(world.item_category == c) for c in range(NUM_CATEGORIES)]))
    cost = compare_retrieval_strategies(
        ModelConfig.unit(),
        train.meta,
        seq_len=world.config.max_seq_len,
        category_size=mean_category,
        cascade=CASCADE,
        vector_dim=engine.cascade.dim,
    )

    report = {
        "smoke": SMOKE,
        "catalog": {
            "num_items": world.num_items,
            "num_categories": NUM_CATEGORIES,
            "mean_category_size": mean_category,
        },
        "queries": NUM_QUERIES,
        "cascade": {
            "config": {
                "retrieve_n": CASCADE.retrieve_n,
                "prune": CASCADE.prune,
                "nprobe": CASCADE.nprobe,
            },
            "qps": cascade_qps,
            "recall_at_10": recall,
            "recall_min": float(np.min(recalls)),
            "index_build_seconds": build_seconds,
            "index": engine.cascade.stats(),
        },
        "exhaustive": {"qps": exhaustive_qps},
        "fleet": {
            "num_shards": 2,
            "qps": fleet_qps,
            "recall_at_10": fleet_recall,
            "arena_bytes": arena_bytes,
        },
        "shadow_recall": {
            "rate": 1.0,
            "samples": shadow.samples,
            "recall_at_10": shadow.recall_at_k,
            "probe_recall_at_10": probe_recall,
            "gap": shadow_gap,
        },
        "sweep": sweep_report,
        "cost_model": cost.as_dict(),
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "nprobe", "N", "K", "recall@10", "QPS"],
        [["exhaustive (oracle)", "-", "-", "-", "1.000", f"{exhaustive_qps:.0f}"]]
        + sweep_rows
        + [["fleet (2 shards + batcher)", str(CASCADE.nprobe), str(CASCADE.retrieve_n),
            str(CASCADE.prune), f"{fleet_recall:.3f}", f"{fleet_qps:.0f}"]],
        title=(
            f"Retrieval cascade — {world.num_items} items, {NUM_QUERIES} Zipf queries "
            f"(artifact: {ARTIFACT.name})"
        ),
    )
    print(
        f"recall@10: {recall:.3f}  index rebuild: {build_seconds:.1f}s  "
        f"cost-model saving: {cost.total_saving_factor:.1f}x"
    )

    # Acceptance: recall is deterministic given the seed, so it is asserted
    # in every mode.
    assert recall >= RECALL_FLOOR, f"recall@10 {recall:.3f} < {RECALL_FLOOR}"
    assert fleet_recall >= RECALL_FLOOR - 0.02

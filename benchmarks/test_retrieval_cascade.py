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

Acceptance: **>= 3.5x end-to-end QPS** with **recall@10 >= 0.95** against the
exhaustive oracle's top-10, on identical Zipf traffic.  The ratio is
exhaustive / (retrieval stages + ranker on the survivors), so it is capped by
category size / survivors (7.8x here) and falls whenever the ranker gets
cheaper per row, which speeds up both paths.  The bar was 5x while the ranker
re-encoded the behaviour sequence per candidate: on one box exhaustive took
34 ms and the cascade 5.1 ms a query (6.3-6.8x), and 5x left the cascade's own
stages (gate + session vector + probe + prefilter) 2.5 ms a query.  With the
session-factored score plan the same box reads 11-12 ms and 2.2-2.4 ms
(4.5-5.1x, after the prefilter's cross counters became lookups and stage 2
started from stage 1's inner products): 5x would leave those stages 0.8 ms,
which is what they cost, so a best-of-2 reading sits on the bar; 3.5x leaves
them 1.7 ms — less than the old bar allowed.  Recall is
deterministic given the seed and is asserted in every mode; the QPS ratio
is hard-asserted on quiet machines (``STRICT_TIMING``) and direction-checked
elsewhere.  The artifact (``retrieval_cascade.json``) feeds the regression
gate against the checked-in reference: **recall hard-gates** (>20% down
warns, >30% fails — ``REPRO_ALLOW_REGRESSION=1`` to override); the
wall-clock speedup ratio is warn-only there, because the acceptance block
below already owns its pass/fail policy per machine class.

``REPRO_SMOKE=1`` shrinks the catalog and query counts so CI exercises the
whole path on every push (its artifact goes to ``*_smoke.json``).
"""

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np

from _helpers import compare_to_artifact
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
STRICT_TIMING = not SMOKE and not os.environ.get("CI")
_SUFFIX = "_smoke" if SMOKE else ""
ARTIFACT = Path(__file__).parent / "artifacts" / f"retrieval_cascade{_SUFFIX}.json"
REFERENCE = Path(__file__).parent / "reference" / "retrieval_cascade.json"

#: Catalog scale: >= 100k items in full mode (acceptance floor).  Smoke
#: keeps the same ~10k items-per-category shape and only drops categories,
#: so the speedup ratio (which is governed by category size / survivors)
#: stays comparable to the full-mode reference artifact the gate reads.
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
#: Quiet-machine bar on cascade QPS / exhaustive QPS (see the module docstring:
#: it bounds the retrieval stages' cost per query, and tighter than 5x once did).
SPEEDUP_FLOOR = 3.5


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

    # Interleaved best-of-2 per path: the speedup is an in-run ratio, but a
    # background hiccup during one short replay can still swamp it; keeping
    # each path's best pass makes the ratio a property of the code.  Recall
    # is deterministic (no RNG in the cascade path) so pass 1's results are
    # the results.
    oracle = {}
    recalls = []
    exhaustive_seconds = cascade_seconds = float("inf")
    for attempt in range(2):
        start = time.perf_counter()
        for event in events:
            result = exhaustive.search(event.user, event.query_category)
            if attempt == 0:
                oracle[(event.user, event.query_category)] = result.items[:10]
        exhaustive_seconds = min(exhaustive_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        for event in events:
            result = engine.search(event.user, event.query_category)
            if attempt == 0:
                recalls.append(
                    _recall_at_10(result.items, oracle[(event.user, event.query_category)])
                )
        cascade_seconds = min(cascade_seconds, time.perf_counter() - start)
    exhaustive_qps = NUM_QUERIES / exhaustive_seconds
    cascade_qps = NUM_QUERIES / cascade_seconds
    recall = float(np.mean(recalls))
    speedup = cascade_qps / exhaustive_qps

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
    # Re-time the exhaustive baseline interleaved with the fleet replay:
    # the fleet-vs-exhaustive gate below compares two wall-clock numbers,
    # and when the suite has been running for minutes the machine drifts —
    # measured minutes apart, that drift can exceed the gate's margin.
    # Interleaved best-of-2 (same rationale as the single-engine section
    # above) makes the ratio a property of the code; the table and speedup
    # still report the earlier numbers.
    adjacent_exhaustive_seconds = fleet_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for event in events:
            exhaustive.search(event.user, event.query_category)
        adjacent_exhaustive_seconds = min(
            adjacent_exhaustive_seconds, time.perf_counter() - start
        )
        start = time.perf_counter()
        fleet_results = replay(cluster, events)
        fleet_seconds = min(fleet_seconds, time.perf_counter() - start)
    adjacent_exhaustive_qps = NUM_QUERIES / adjacent_exhaustive_seconds
    fleet_qps = NUM_QUERIES / fleet_seconds
    assert len(fleet_results) == NUM_QUERIES
    fleet_recall = float(
        np.mean(
            [
                _recall_at_10(r.items, oracle[(r.user, r.query_category)])
                for r in fleet_results
            ]
        )
    )

    # Shadow-recall acceptance: attach a 100%-rate shadow monitor *after*
    # the timed replay (a full-rate oracle re-run per query would dominate
    # the QPS measurement; production runs at ~0.5%) and replay the same
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
            "qps_speedup": speedup,
            "recall_at_10": recall,
            "recall_min": float(np.min(recalls)),
            "index_build_seconds": build_seconds,
            "index": engine.cascade.stats(),
        },
        "exhaustive": {"qps": exhaustive_qps},
        "fleet": {"num_shards": 2, "qps": fleet_qps, "recall_at_10": fleet_recall},
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

    # Recall is deterministic given the seed, so it hard-gates everywhere.
    # The speedup is an in-run wall-clock ratio: the acceptance block below
    # already hard-asserts it on quiet machines and treats off-box dips as
    # warn-only, so the artifact gate must not re-promote those dips to a
    # red build (fail_tolerance=1.0 keeps it a warning).
    regressions = compare_to_artifact(
        report, REFERENCE, [("cascade", "recall_at_10")]
    ) + compare_to_artifact(
        report, REFERENCE, [("cascade", "qps_speedup")], fail_tolerance=1.0
    )

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
        f"Speedup: {speedup:.1f}x  recall@10: {recall:.3f}  "
        f"index rebuild: {build_seconds:.1f}s  "
        f"cost-model saving: {cost.total_saving_factor:.1f}x"
    )
    if regressions:
        print("regression warnings:", *regressions, sep="\n  ")

    # Acceptance: recall is machine-portable and always gated; the wall-clock
    # ratio is hard-gated on quiet machines and direction-checked elsewhere
    # (the artifact gate above still catches regressions on CI).
    assert recall >= RECALL_FLOOR, f"recall@10 {recall:.3f} < {RECALL_FLOOR}"
    assert fleet_recall >= RECALL_FLOOR - 0.02
    if STRICT_TIMING:
        assert speedup >= SPEEDUP_FLOOR, f"cascade speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x"
        assert fleet_qps > adjacent_exhaustive_qps
    else:
        assert speedup > 2.0
        if speedup < SPEEDUP_FLOOR:
            warnings.warn(
                f"cascade speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x off-box "
                "(timing noise or a real regression — see the artifact)",
                stacklevel=2,
            )

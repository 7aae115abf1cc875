"""Serving benchmarks: batching, caching, compiled inference, and the
observability layers — behaviour asserted, wall-clock printed.

Four benchmarks share this module:

* :func:`test_serving_throughput` replays identical Zipf-distributed
  traffic (the repeated-user regime of production search, §III-F) through
  the single-query loop vs the micro-batcher + session cache, writing
  ``benchmarks/artifacts/serving_throughput.json``;
* :func:`test_compiled_inference_speedup` runs the compiled inference path
  (:mod:`repro.infer`) beside the eager ``Tensor`` forward — single-query
  scoring, a mixed micro-batch flush, and a 2-shard fleet on identical
  traffic — writing ``benchmarks/artifacts/compiled_inference.json``, then
  profiles every fused kernel and gates each step's *time share* of its
  plan (:func:`benchmarks._helpers.compare_profile_shares`) against
  :data:`PROFILE_SHARES`;
* :func:`test_tracing_overhead` replays the batched path with no tracer, a
  tracer that samples nothing and a fully sampled one, plus a cascade
  engine with and without its 0%-rate monitors: the answers must be
  identical (``benchmarks/artifacts/observability.json``);
* :func:`test_traced_fleet_artifacts` runs fully sampled traced traffic
  through a cascade-backed fleet and exports the JSONL trace plus metrics
  snapshots (JSON + Prometheus text) as CI artifacts.

The QPS and microsecond columns these print are single readings for the
artifact, not gates: speed is judged by ``benchmarks/perf/run.py`` (compiled
plans, batching and the disabled tracing layer all sit under
``qps_saturated`` on ``head-inproc``; ``driver.tracing_overhead_pct`` is the
tracing cost).  ``REPRO_SMOKE=1`` shrinks query counts so CI can exercise
the compile path on every push.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _helpers import assert_same_rankings, compare_profile_shares
from repro.data import SessionBatch
from repro.infer import PlanProfiler, compile_model
from repro.obs import (
    NULL_TRACER,
    JsonlTraceExporter,
    ShadowRecallMonitor,
    SloTracker,
    Tracer,
)
from repro.retrieval import CascadeConfig
from repro.serving import (
    FleetConfig,
    FleetContext,
    MetricsSink,
    MicroBatcher,
    SearchEngine,
    SessionCache,
    ZipfLoadGenerator,
    build_fleet,
    replay,
)
from repro.utils import print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
NUM_QUERIES = 80 if SMOKE else 400
MAX_BATCH = 16
# Smoke runs write to their own files so a full-fidelity artifact produced
# earlier in the same CI job is never clobbered before upload.
_SUFFIX = "_smoke" if SMOKE else ""
_ARTIFACTS = Path(__file__).parent / "artifacts"
ARTIFACT = _ARTIFACTS / f"serving_throughput{_SUFFIX}.json"
COMPILED_ARTIFACT = _ARTIFACTS / f"compiled_inference{_SUFFIX}.json"
OBSERVABILITY_ARTIFACT = _ARTIFACTS / f"observability{_SUFFIX}.json"
TRACE_ARTIFACT = _ARTIFACTS / f"trace{_SUFFIX}.jsonl"
METRICS_SNAPSHOT = _ARTIFACTS / f"metrics_snapshot{_SUFFIX}.json"
PROMETHEUS_SNAPSHOT = _ARTIFACTS / f"metrics_snapshot{_SUFFIX}.prom"

#: Each fused kernel's share of its plan's wall time on a 16-session,
#: 192-row flush (``ModelConfig.small``, float32), as the plan profiler
#: reads it.  A ratio within one run, so it holds on any machine; a step
#: gaining more than 25 share points on these fails the build.
PROFILE_SHARES = {
    "gate": {
        "gate.behavior_repr": 0.117,
        "gate.h_behavior": 0.195,
        "gate.key_repr": 0.027,
        "gate.h_key": 0.060,
        "gate.counts": 0.058,
        "gate.pairwise": 0.090,
        "gate.item_scores": 0.204,
        "gate.att_weights": 0.175,
        "gate.pool": 0.064,
        "gate.bias": 0.010,
    },
    "score": {
        "input.behavior_repr": 0.018,
        "input.target_repr": 0.013,
        "input.h_target": 0.025,
        "input.h_behavior": 0.035,
        "input.att_weights": 0.613,
        "input.v_user": 0.027,
        "input.h_other": 0.029,
        "input.query_repr": 0.009,
        "input.h_query": 0.012,
        "input.v_imp": 0.023,
        "experts": 0.168,
        "mix": 0.027,
    },
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _mean_seconds(fn, loops: int) -> float:
    """Mean seconds per call over ``loops`` calls (one reading, not a gate)."""
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - start) / loops


def test_serving_throughput(search_data, trained_models):
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)

    # -- single-query baseline ------------------------------------------
    single_engine = SearchEngine(world, model, np.random.default_rng(7))
    single_metrics = MetricsSink()

    def run_single():
        for event in events:
            result = single_engine.search(event.user, event.query_category)
            single_metrics.record_query(result.latency_ms)

    _, single_seconds = _timed(run_single)

    # -- micro-batched + session cache ----------------------------------
    batched_engine = SearchEngine(world, model, np.random.default_rng(7))
    cache = SessionCache(2048)
    batcher = MicroBatcher(
        batched_engine, max_batch_size=MAX_BATCH, flush_deadline_ms=50.0, cache=cache
    )
    results, batched_seconds = _timed(lambda: replay(batcher, events))
    assert len(results) == NUM_QUERIES

    single_qps = NUM_QUERIES / single_seconds
    batched_qps = NUM_QUERIES / batched_seconds
    report = {
        "queries": NUM_QUERIES,
        "single": {
            "qps": single_qps,
            "latency_ms": {
                "p50": single_metrics.percentile(50),
                "p95": single_metrics.percentile(95),
                "p99": single_metrics.percentile(99),
            },
        },
        "batched": {
            "qps": batched_qps,
            "max_batch_size": MAX_BATCH,
            "mean_batch_size": batcher.metrics.mean_batch_size,
            "latency_ms": {
                "p50": batcher.metrics.percentile(50),
                "p95": batcher.metrics.percentile(95),
                "p99": batcher.metrics.percentile(99),
            },
            "cache_hit_rate": cache.gate_hit_rate,
            "batch_size_histogram": {
                str(size): count
                for size, count in batcher.metrics.batch_size_histogram().items()
            },
        },
        "speedup": batched_qps / single_qps,
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "QPS", "p50 ms", "p95 ms", "p99 ms", "gate-cache hits"],
        [
            ["single-query", f"{single_qps:.0f}",
             f"{single_metrics.percentile(50):.2f}",
             f"{single_metrics.percentile(95):.2f}",
             f"{single_metrics.percentile(99):.2f}", "-"],
            ["micro-batched + cache", f"{batched_qps:.0f}",
             f"{batcher.metrics.percentile(50):.2f}",
             f"{batcher.metrics.percentile(95):.2f}",
             f"{batcher.metrics.percentile(99):.2f}",
             f"{cache.gate_hit_rate:.1%}"],
        ],
        title=f"Serving throughput — {NUM_QUERIES} Zipf queries (artifact: {ARTIFACT.name})",
    )
    print(f"Speedup: {report['speedup']:.2f}x")

    # Acceptance: every query answered, skewed traffic actually hits the
    # gate cache, and no flush exceeds the batch bound.
    assert cache.gate_hit_rate > 0.0
    assert batcher.metrics.max_batch_size <= MAX_BATCH


def test_compiled_inference_speedup(search_data, trained_models):
    """Compiled plan beside the eager ``Tensor`` forward, micro to macro.

    Three readings over the same trained AW-MoE:

    * **single-query scoring** — one session's candidate batch, the unit of
      work ``SearchEngine.search`` scores;
    * **flush-sized batch scoring** — ``MAX_BATCH`` concatenated sessions,
      the micro-batcher's forward;
    * **end-to-end fleet QPS** — identical Zipf traffic through two
      2-shard clusters, compiled vs ``compile=False`` (includes retrieval
      and feature assembly).

    The compiled plan scores the session-factored batch the engine builds;
    the eager forward scores its flat rows, expanded outside the timed loop.
    Asserted: both fleets answer every query, and no fused kernel's share of
    its plan grew past the gate.
    """
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    model.eval()
    compiled = compile_model(model)
    loops = 5 if SMOKE else 40

    # -- single-query scoring -------------------------------------------
    assembly_engine = SearchEngine(world, model, np.random.default_rng(11), compile=False)
    candidates = assembly_engine.retrieve(3)
    query_batch = assembly_engine.build_batch(7, 3, candidates)
    compiled.predict_proba(query_batch)  # warm the arena
    query_rows = query_batch.flat()
    eager_single = _mean_seconds(lambda: model.predict_proba(query_rows), loops)
    compiled_single = _mean_seconds(lambda: compiled.predict_proba(query_batch), loops)

    # -- flush-sized mixed batch ----------------------------------------
    rng = np.random.default_rng(13)
    session_batches = []
    for user in range(MAX_BATCH):
        category = int(rng.integers(0, world.config.num_categories))
        session_batches.append(
            assembly_engine.build_batch(user, category, assembly_engine.retrieve(category))
        )
    flush_batch = SessionBatch.concat(session_batches)
    compiled.predict_proba(flush_batch)
    flush_rows = flush_batch.flat()
    eager_flush = _mean_seconds(lambda: model.predict_proba(flush_rows), loops)
    compiled_flush = _mean_seconds(lambda: compiled.predict_proba(flush_batch), loops)

    # -- end-to-end fleet -----------------------------------------------
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)
    fleet_qps = {}
    for label, compile_flag in (("eager", False), ("compiled", True)):
        cluster = build_fleet(
            world,
            model,
            FleetConfig(
                num_workers=2,
                seed=5,
                max_batch_size=8,
                flush_deadline_ms=50.0,
                cache_capacity=2048,
                compile=compile_flag,
            ),
            backend="inprocess",
        )
        results, seconds = _timed(lambda: replay(cluster, events))
        assert len(results) == NUM_QUERIES
        fleet_qps[label] = NUM_QUERIES / seconds

    # -- per-kernel profile ---------------------------------------------
    # Shares (fraction of plan time per fused kernel) are gated: a kernel
    # suddenly eating a much larger slice of the plan is a code regression
    # whatever the machine's absolute speed.
    profiler = PlanProfiler()
    with profiler.profiling(compiled.gate_plan, compiled.score_plan):
        for _ in range(loops):
            compiled.predict_proba(flush_batch)
    profile_table = profiler.report_table(title="AWMoE kernel profile")
    profile_shares = {plan: profiler.shares(plan) for plan in profiler.plans()}

    report = {
        "smoke": SMOKE,
        "queries": NUM_QUERIES,
        "single_query": {
            "rows": query_batch.num_rows,
            "eager_us": eager_single * 1e6,
            "compiled_us": compiled_single * 1e6,
        },
        "flush_batch": {
            "rows": flush_batch.num_rows,
            "eager_us": eager_flush * 1e6,
            "compiled_us": compiled_flush * 1e6,
        },
        "fleet": {
            "num_shards": 2,
            "eager_qps": fleet_qps["eager"],
            "compiled_qps": fleet_qps["compiled"],
        },
        "plan": compiled.stats(),
        "profile": {"loops": loops, "rows": flush_batch.num_rows,
                    "shares": profile_shares},
    }
    COMPILED_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    COMPILED_ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "eager", "compiled"],
        [
            ["single-query scoring", f"{eager_single * 1e6:.0f} us",
             f"{compiled_single * 1e6:.0f} us"],
            ["flush-batch scoring", f"{eager_flush * 1e6:.0f} us",
             f"{compiled_flush * 1e6:.0f} us"],
            ["fleet end-to-end", f"{fleet_qps['eager']:.0f} qps",
             f"{fleet_qps['compiled']:.0f} qps"],
        ],
        title=f"Compiled inference — artifact: {COMPILED_ARTIFACT.name}"
        + (" [smoke]" if SMOKE else ""),
    )
    print(profile_table)

    compare_profile_shares(profile_shares, PROFILE_SHARES)


def test_tracing_overhead(search_data, trained_models):
    """Disabled instrumentation is invisible in the answers.

    Every serving layer calls into the tracer unconditionally; the
    null-object design (``NULL_TRACER``/``NULL_TRACE``) keeps that
    affordable.  This benchmark replays identical Zipf traffic through the
    micro-batched path three ways — no tracer, a tracer that samples
    nothing (pays only the per-request sampling decision), and full
    sampling (every span recorded) — and through a cascade-backed engine
    with and without a 0%-rate shadow-recall monitor plus a 0%-sampling
    tracer.  Every configuration must return the rankings of its
    uninstrumented twin; the QPS column is one reading each for the
    artifact (the harness's ``driver.tracing_overhead_pct`` is the number
    that judges the cost).
    """
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)
    # Shadow recall only exercises the cascade retrieval path, so the
    # monitor pair runs a cascade-backed engine.
    cascade = CascadeConfig(
        retrieve_n=24, prune=12, nprobe=2,
        calibration_queries=32, calibration_items=64,
    )

    def run_once(tracer, cascade=None, shadow=None):
        ctx = FleetContext(tracer=tracer, shadow_recall=shadow)
        engine = SearchEngine(world, model, np.random.default_rng(7), cascade=cascade, ctx=ctx)
        batcher = MicroBatcher(
            engine,
            max_batch_size=MAX_BATCH,
            flush_deadline_ms=50.0,
            cache=SessionCache(2048),
            ctx=ctx,
        )
        results, seconds = _timed(lambda: replay(batcher, events))
        assert len(results) == NUM_QUERIES
        return results, NUM_QUERIES / seconds

    baseline, baseline_qps = run_once(NULL_TRACER)
    disabled, disabled_qps = run_once(Tracer(sample_rate=0.0))
    sampled, sampled_qps = run_once(Tracer(sample_rate=1.0))
    assert_same_rankings(disabled, baseline)
    assert_same_rankings(sampled, baseline)

    cascade_baseline, cascade_qps = run_once(NULL_TRACER, cascade)
    monitored, monitored_qps = run_once(
        Tracer(sample_rate=0.0), cascade, ShadowRecallMonitor(rate=0.0)
    )
    assert_same_rankings(monitored, cascade_baseline)

    report = {
        "smoke": SMOKE,
        "queries": NUM_QUERIES,
        "baseline_qps": baseline_qps,
        "disabled_tracer_qps": disabled_qps,
        "sampled_tracer_qps": sampled_qps,
        "cascade_baseline_qps": cascade_qps,
        "monitors_disabled_qps": monitored_qps,
    }
    OBSERVABILITY_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    OBSERVABILITY_ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "QPS"],
        [
            ["no tracer", f"{baseline_qps:.0f}"],
            ["tracer, sampling off", f"{disabled_qps:.0f}"],
            ["tracer, 100% sampled", f"{sampled_qps:.0f}"],
            ["cascade, no monitors", f"{cascade_qps:.0f}"],
            ["cascade, monitors off", f"{monitored_qps:.0f}"],
        ],
        title=f"Tracing layers — {NUM_QUERIES} Zipf queries "
        f"(artifact: {OBSERVABILITY_ARTIFACT.name})",
    )


def test_traced_fleet_artifacts(search_data, trained_models):
    """Fully sampled traced run: the observability artifacts CI uploads.

    Replays Zipf traffic through a 2-shard cascade-backed fleet with a
    100%-sampling tracer, a fleet SLO, and streaming metrics, then exports:

    * ``trace.jsonl`` — one line per request, spans covering queue-wait,
      gate (cache hit/miss), retrieval sub-stages (ivf-probe), and the
      per-kernel rank steps (the ISSUE's acceptance trace);
    * ``metrics_snapshot.json`` — fleet summary + Prometheus-style registry
      dump + SLO status;
    * ``metrics_snapshot.prom`` — the Prometheus text exposition.
    """
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    num_queries = min(NUM_QUERIES, 120)
    events = ZipfLoadGenerator(
        np.random.default_rng(19), world=world, zipf_exponent=1.2
    ).generate(num_queries)

    TRACE_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    slo = SloTracker(latency_slo_ms=250.0, availability_target=0.99, window_seconds=600.0)
    with JsonlTraceExporter(str(TRACE_ARTIFACT)) as exporter:
        tracer = Tracer(sample_rate=1.0, exporter=exporter)
        cluster = build_fleet(
            world,
            model,
            FleetConfig(
                num_workers=2,
                seed=5,
                max_batch_size=8,
                flush_deadline_ms=50.0,
                cache_capacity=2048,
                cascade=CascadeConfig(
                    retrieve_n=24, prune=12, nprobe=2,
                    calibration_queries=32, calibration_items=64,
                ),
            ),
            backend="inprocess",
            ctx=FleetContext(slo=slo, tracer=tracer),
        )
        results = replay(cluster, events)
        assert len(results) == num_queries
        traces_written = exporter.traces_written

    merged = cluster.merged_metrics()
    snapshot = {
        "queries": num_queries,
        "summary": merged.summary(),
        "registry": merged.to_registry().to_json(),
        "tracer": tracer.stats(),
    }
    METRICS_SNAPSHOT.write_text(json.dumps(snapshot, indent=2))
    PROMETHEUS_SNAPSHOT.write_text(merged.prometheus_text())

    print(cluster.fleet_report())
    print(f"\ntrace artifact: {TRACE_ARTIFACT.name} ({traces_written} traces)")

    # Acceptance: the exported trace covers every stage of the ISSUE's span
    # tree on at least one request.
    assert traces_written == num_queries
    span_names = set()
    with TRACE_ARTIFACT.open() as lines:
        for line in lines:
            span_names.update(span["name"] for span in json.loads(line)["spans"])
    for required in (
        "submit", "queue-wait", "gate", "retrieve", "session-vector",
        "ivf-probe", "flush", "rank", "experts", "mix",
    ):
        assert required in span_names, f"span {required!r} missing from trace"
    # The metrics snapshot is streaming (bounded): no raw latency list, yet
    # percentiles and the SLO verdict are present.
    assert not hasattr(merged, "latencies_ms")
    assert snapshot["summary"]["latency_ms"]["p99"] > 0.0
    assert snapshot["summary"]["slo"]["window_requests"] == num_queries

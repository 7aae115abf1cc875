"""Serving-throughput benchmarks: batching, caching, compiled inference,
and the observability overhead/artifact runs.

Four benchmarks share this module:

* :func:`test_serving_throughput` replays identical Zipf-distributed
  traffic (the repeated-user regime of production search, §III-F) through
  the single-query loop vs the micro-batcher + session cache, writing
  ``benchmarks/artifacts/serving_throughput.json``;
* :func:`test_compiled_inference_speedup` measures the compiled inference
  path (:mod:`repro.infer`) against the eager ``Tensor`` forward — raw
  single-query scoring, a mixed micro-batch flush, and end-to-end fleet
  QPS on identical traffic — writing
  ``benchmarks/artifacts/compiled_inference.json`` and gating the speedup
  ratios (via :func:`benchmarks._helpers.compare_to_artifact`) against the
  checked-in reference artifact: >20% down warns, and a >30% drop of the
  single-query ratio fails the build (``REPRO_ALLOW_REGRESSION=1`` to
  override).  It also profiles every fused kernel and gates each step's
  *time share* against the reference
  (:func:`benchmarks._helpers.compare_profile_shares`);
* :func:`test_tracing_overhead` guards the observability bargain: with no
  tracer sampling, the instrumented batched path must stay within 5% of
  the uninstrumented one (``benchmarks/artifacts/observability.json``);
* :func:`test_traced_fleet_artifacts` runs fully sampled traced traffic
  through a cascade-backed fleet and exports the JSONL trace plus metrics
  snapshots (JSON + Prometheus text) as CI artifacts.

``REPRO_SMOKE=1`` shrinks query counts and timing repeats so CI can
exercise the compile path on every push.
"""

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np

from _helpers import compare_profile_shares, compare_to_artifact
from repro.data import SessionBatch
from repro.infer import PlanProfiler, compile_model
from repro.obs import JsonlTraceExporter, ShadowRecallMonitor, SloTracker, Tracer
from repro.retrieval import CascadeConfig
from repro.serving import (
    FleetConfig,
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
#: Hard speedup gates only run on quiet machines: shared CI runners (GitHub
#: sets ``CI=true``) get direction checks instead, plus the
#: :func:`compare_to_artifact` regression warning — wall-clock ratios there
#: measure the neighbourhood, not the code.
STRICT_TIMING = not SMOKE and not os.environ.get("CI")
NUM_QUERIES = 80 if SMOKE else 400
MAX_BATCH = 16
# Smoke runs write to their own files so a full-fidelity artifact produced
# earlier in the same CI job is never clobbered before upload.
_SUFFIX = "_smoke" if SMOKE else ""
_ARTIFACTS = Path(__file__).parent / "artifacts"
ARTIFACT = _ARTIFACTS / f"serving_throughput{_SUFFIX}.json"
COMPILED_ARTIFACT = _ARTIFACTS / f"compiled_inference{_SUFFIX}.json"
COMPILED_REFERENCE = Path(__file__).parent / "reference" / "compiled_inference.json"
OBSERVABILITY_ARTIFACT = _ARTIFACTS / f"observability{_SUFFIX}.json"
TRACE_ARTIFACT = _ARTIFACTS / f"trace{_SUFFIX}.jsonl"
METRICS_SNAPSHOT = _ARTIFACTS / f"metrics_snapshot{_SUFFIX}.json"
PROMETHEUS_SNAPSHOT = _ARTIFACTS / f"metrics_snapshot{_SUFFIX}.prom"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_seconds(fn, loops: int, repeats: int) -> float:
    """Best-of-``repeats`` mean seconds per call over ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


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

    # Acceptance: batching + session-gate caching must beat the per-query
    # loop on identical traffic, and skewed traffic must actually hit the
    # gate cache.
    assert batched_qps > single_qps
    assert cache.gate_hit_rate > 0.0
    assert batcher.metrics.max_batch_size <= MAX_BATCH


def test_compiled_inference_speedup(search_data, trained_models):
    """Compiled plan vs eager ``Tensor`` forward, micro to macro.

    Three measurements over the same trained AW-MoE:

    * **single-query scoring** — one session's candidate batch, the unit of
      work ``SearchEngine.search`` scores (acceptance: ≥ 2x compiled);
    * **flush-sized batch scoring** — ``MAX_BATCH`` concatenated sessions,
      the micro-batcher's forward;
    * **end-to-end fleet QPS** — identical Zipf traffic through two
      2-shard clusters, compiled vs ``compile=False`` (includes retrieval
      and feature assembly, so the gain is diluted but must stay > 1).

    The compiled plan scores the session-factored batch the engine builds;
    the eager forward scores its flat rows, expanded outside the timed loop.
    """
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    model.eval()
    compiled = compile_model(model)
    loops = 5 if SMOKE else 40
    repeats = 2 if SMOKE else 5

    # -- single-query scoring -------------------------------------------
    assembly_engine = SearchEngine(world, model, np.random.default_rng(11), compile=False)
    candidates = assembly_engine.retrieve(3)
    query_batch = assembly_engine.build_batch(7, 3, candidates)
    compiled.predict_proba(query_batch)  # warm the arena
    query_rows = query_batch.flat()
    eager_single = _best_seconds(lambda: model.predict_proba(query_rows), loops, repeats)
    compiled_single = _best_seconds(lambda: compiled.predict_proba(query_batch), loops, repeats)
    single_speedup = eager_single / compiled_single

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
    eager_flush = _best_seconds(lambda: model.predict_proba(flush_rows), loops, repeats)
    compiled_flush = _best_seconds(lambda: compiled.predict_proba(flush_batch), loops, repeats)
    flush_speedup = eager_flush / compiled_flush

    # -- end-to-end fleet -----------------------------------------------
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)
    fleet = {"eager": {"seconds": float("inf")}, "compiled": {"seconds": float("inf")}}
    # Interleaved best-of-2 per configuration: e2e replays are short enough
    # that a single background hiccup can swamp the margin on shared CI
    # machines; keeping the best run of each makes the ratio a property of
    # the code, not the neighbourhood.
    for _ in range(1 if SMOKE else 2):
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
            if seconds < fleet[label]["seconds"]:
                fleet[label] = {"qps": NUM_QUERIES / seconds, "seconds": seconds}
    fleet_improvement = fleet["compiled"]["qps"] / fleet["eager"]["qps"]

    # -- per-kernel profile ---------------------------------------------
    # Profiled *after* the timing measurements so the per-step clocks never
    # contaminate the speedup ratios.  Shares (fraction of plan time per
    # fused kernel) are gated against the reference: a kernel suddenly
    # eating a much larger slice of the plan is a code regression even when
    # total wall time looks fine on a faster machine.
    profiler = PlanProfiler()
    compiled.attach_profiler(profiler)
    for _ in range(loops):
        compiled.predict_proba(flush_batch)
    profile_table = compiled.profile_report()
    compiled.attach_profiler(None)
    profile_shares = {plan: profiler.shares(plan) for plan in profiler.plans()}

    report = {
        "smoke": SMOKE,
        "queries": NUM_QUERIES,
        "single_query": {
            "rows": query_batch.num_rows,
            "eager_us": eager_single * 1e6,
            "compiled_us": compiled_single * 1e6,
            "speedup": single_speedup,
        },
        "flush_batch": {
            "rows": flush_batch.num_rows,
            "eager_us": eager_flush * 1e6,
            "compiled_us": compiled_flush * 1e6,
            "speedup": flush_speedup,
        },
        "fleet": {
            "num_shards": 2,
            "eager_qps": fleet["eager"]["qps"],
            "compiled_qps": fleet["compiled"]["qps"],
            "qps_improvement": fleet_improvement,
        },
        "plan": compiled.stats(),
        "profile": {"loops": loops, "rows": flush_batch.num_rows,
                    "shares": profile_shares},
    }
    COMPILED_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    COMPILED_ARTIFACT.write_text(json.dumps(report, indent=2))
    # The single-query speedup is a high-margin, machine-portable ratio —
    # it is hard-gated even in smoke mode (>30% down fails the job, see
    # _helpers.compare_to_artifact).  The flush and e2e-fleet ratios ride
    # closer to 1x and breathe with runner noise, so they stay warn-only
    # (fail_tolerance=1.0) and are skipped entirely in smoke mode.
    regressions = compare_to_artifact(
        report, COMPILED_REFERENCE, [("single_query", "speedup")]
    ) + ([] if SMOKE else compare_to_artifact(
        report,
        COMPILED_REFERENCE,
        [("flush_batch", "speedup"), ("fleet", "qps_improvement")],
        fail_tolerance=1.0,
    ))
    # Per-kernel share gate: +10 share points warns, +25 fails.  Shares are
    # ratios within one run, so the gate holds in smoke mode too.
    regressions += compare_profile_shares(report, COMPILED_REFERENCE)

    print_table(
        ["Path", "eager", "compiled", "speedup"],
        [
            ["single-query scoring", f"{eager_single * 1e6:.0f} us",
             f"{compiled_single * 1e6:.0f} us", f"{single_speedup:.2f}x"],
            ["flush-batch scoring", f"{eager_flush * 1e6:.0f} us",
             f"{compiled_flush * 1e6:.0f} us", f"{flush_speedup:.2f}x"],
            ["fleet end-to-end", f"{fleet['eager']['qps']:.0f} qps",
             f"{fleet['compiled']['qps']:.0f} qps", f"{fleet_improvement:.2f}x"],
        ],
        title=f"Compiled inference — artifact: {COMPILED_ARTIFACT.name}"
        + (" [smoke]" if SMOKE else ""),
    )
    print(profile_table)
    if regressions:
        print("regression warnings:", *regressions, sep="\n  ")

    # Acceptance: the compiled plan must at least double raw single-query
    # scoring throughput and win end to end.  The hard gates apply on quiet
    # machines (tier-1 on the dev box); smoke mode and shared CI runners
    # check direction only — regressions there surface as
    # BenchmarkRegressionWarning against the checked-in reference instead
    # of a red build.
    if STRICT_TIMING:
        assert single_speedup >= 2.0
        assert flush_speedup > 1.0
        assert fleet_improvement > 1.0
    else:
        # Only the high-margin ratio is asserted off-box; the e2e fleet
        # ratio is one short wall-clock replay, so on shared runners a bad
        # number warns instead of failing the build.
        assert single_speedup > 1.0
        if fleet_improvement < 0.8:
            warnings.warn(
                f"compiled fleet QPS ratio {fleet_improvement:.2f} < 0.8 "
                "(timing noise or a real regression — see the artifact)",
                stacklevel=2,
            )


def test_tracing_overhead(search_data, trained_models):
    """Disabled-instrumentation guard: tracing must be free when off.

    Every serving layer now calls into the tracer unconditionally; the
    null-object design (``NULL_TRACER``/``NULL_TRACE``) is what keeps that
    affordable.  This benchmark replays identical Zipf traffic through the
    micro-batched path three ways — no tracer, a tracer that samples
    nothing (pays only the per-request sampling decision), and full
    sampling (every span recorded) — and guards the ISSUE acceptance bound:
    the disabled path must regress batched throughput by **less than 5%**.

    The full-sampling column is informational (it is *supposed* to cost
    something); only the disabled ratios are gated, and only on quiet
    machines — smoke/CI runs sanity-check direction and record the artifact.

    A second pair extends the guard to the full monitor stack (ISSUE PR 7):
    a cascade-backed engine with a 0%-rate shadow-recall monitor and a
    0%-sampling tracer attached must also stay within 5% of the same
    engine with no monitors at all.
    """
    world, _, _ = search_data
    model, _ = trained_models["aw_moe"]
    events = ZipfLoadGenerator(
        np.random.default_rng(17), world=world, zipf_exponent=1.2
    ).generate(NUM_QUERIES)
    repeats = 2 if SMOKE else 3

    def run_once(tracer):
        engine = SearchEngine(world, model, np.random.default_rng(7))
        batcher = MicroBatcher(
            engine,
            max_batch_size=MAX_BATCH,
            flush_deadline_ms=50.0,
            cache=SessionCache(2048),
            tracer=tracer,
        )
        results, seconds = _timed(lambda: replay(batcher, events))
        assert len(results) == NUM_QUERIES
        return seconds

    # Round-robin the configurations inside each repeat: when the suite has
    # been running for minutes, machine speed drifts monotonically, and
    # measuring each configuration as one contiguous block lands all of
    # that drift on one side of the ratio.  Interleaving cancels it;
    # best-of-N still discards one-off hiccups.
    configs = {
        "baseline": lambda: None,
        "disabled": lambda: Tracer(sample_rate=0.0),
        "sampled": lambda: Tracer(sample_rate=1.0),
    }
    samples = {name: [] for name in configs}
    for _ in range(repeats):
        for name, make_tracer in configs.items():
            samples[name].append(run_once(make_tracer()))
    baseline, disabled, sampled = (
        min(samples[name]) for name in ("baseline", "disabled", "sampled")
    )
    disabled_overhead = disabled / baseline - 1.0
    sampled_overhead = sampled / baseline - 1.0
    # Measured quietness beats guessing from env vars: if the identical
    # baseline workload doesn't reproduce within 5% run-to-run, a <5%
    # overhead gate compares noise with noise — warn instead of assert.
    baseline_jitter = max(samples["baseline"]) / min(samples["baseline"]) - 1.0
    quiet = baseline_jitter < 0.05

    # -- full monitor stack attached but disabled -----------------------
    # Shadow recall only exercises the cascade retrieval path, so this
    # pair runs a cascade-backed engine: plain versus the same engine with
    # a 0%-sampling shadow-recall monitor and a 0%-sampling tracer.  The
    # monitored path pays only the per-request sampling decisions.
    cascade = CascadeConfig(
        retrieve_n=24, prune=12, nprobe=2,
        calibration_queries=32, calibration_items=64,
    )

    def run_cascade_once(shadow, tracer):
        engine = SearchEngine(
            world,
            model,
            np.random.default_rng(7),
            cascade=cascade,
            shadow_recall=shadow,
        )
        batcher = MicroBatcher(
            engine,
            max_batch_size=MAX_BATCH,
            flush_deadline_ms=50.0,
            cache=SessionCache(2048),
            tracer=tracer,
        )
        results, seconds = _timed(lambda: replay(batcher, events))
        assert len(results) == NUM_QUERIES
        return seconds

    cascade_baseline = monitored = float("inf")
    for _ in range(repeats):  # interleaved, same rationale as above
        cascade_baseline = min(cascade_baseline, run_cascade_once(None, None))
        monitored = min(
            monitored,
            run_cascade_once(ShadowRecallMonitor(rate=0.0), Tracer(sample_rate=0.0)),
        )
    monitors_overhead = monitored / cascade_baseline - 1.0

    report = {
        "smoke": SMOKE,
        "queries": NUM_QUERIES,
        "repeats": repeats,
        "baseline_qps": NUM_QUERIES / baseline,
        "disabled_tracer_qps": NUM_QUERIES / disabled,
        "sampled_tracer_qps": NUM_QUERIES / sampled,
        "disabled_overhead": disabled_overhead,
        "sampled_overhead": sampled_overhead,
        "baseline_jitter": baseline_jitter,
        "cascade_baseline_qps": NUM_QUERIES / cascade_baseline,
        "monitors_disabled_qps": NUM_QUERIES / monitored,
        "monitors_disabled_overhead": monitors_overhead,
    }
    OBSERVABILITY_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    OBSERVABILITY_ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "QPS", "overhead"],
        [
            ["no tracer", f"{NUM_QUERIES / baseline:.0f}", "-"],
            ["tracer, sampling off", f"{NUM_QUERIES / disabled:.0f}",
             f"{disabled_overhead:+.1%}"],
            ["tracer, 100% sampled", f"{NUM_QUERIES / sampled:.0f}",
             f"{sampled_overhead:+.1%}"],
            ["cascade, no monitors", f"{NUM_QUERIES / cascade_baseline:.0f}", "-"],
            ["cascade, monitors off", f"{NUM_QUERIES / monitored:.0f}",
             f"{monitors_overhead:+.1%}"],
        ],
        title=f"Tracing overhead — {NUM_QUERIES} Zipf queries "
        f"(artifact: {OBSERVABILITY_ARTIFACT.name})",
    )

    if STRICT_TIMING and quiet:
        assert disabled_overhead < 0.05
        assert monitors_overhead < 0.05
    else:
        for label, overhead in (
            ("disabled-tracer", disabled_overhead),
            ("monitors-disabled", monitors_overhead),
        ):
            if overhead >= 0.05:
                warnings.warn(
                    f"{label} overhead {overhead:.1%} >= 5% "
                    f"(baseline jitter {baseline_jitter:.1%}; noisy runner "
                    "or a real regression — see the artifact)",
                    stacklevel=2,
                )
    # Any environment: the disabled paths must not be catastrophically slower.
    assert disabled_overhead < 0.5
    assert monitors_overhead < 0.5


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
            slo=slo,
            tracer=tracer,
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

"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root is what the driver reads; the harness
test asserts it lists exactly these, so a metric cannot be renamed in one
place only.  Definitions are in ``benchmarks/perf/README.md``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import stats

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end_metrics"]

#: (name, unit, better) — what a user of the system would see.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("qps_saturated", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("refresh_s", "s", "lower"),
    ("train_rows_per_s", "rows/s", "higher"),
    ("ndcg_at_10", "ratio", "higher"),
    ("recall_at_10", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_fraction", "ratio", "higher"),
]

#: (name, unit, better) — single layers, from the traced run; no bounds.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("driver.offered_rps", "req/s", "higher"),
    ("driver.late_p99_ms", "ms", "lower"),
    ("driver.backlog_end", "count", "lower"),
    ("driver.latency_p99_ms", "ms", "lower"),
    ("driver.cpu_ms_per_req", "ms", "lower"),
    ("driver.calibration_ms", "ms", "lower"),
    ("driver.steal_ticks", "count", "lower"),
    ("driver.round_spread", "ratio", "lower"),
    ("driver.tracing_overhead_pct", "%", "lower"),
    ("driver.budget_coverage", "ratio", "higher"),
    ("driver.duplicates", "count", "lower"),
    ("driver.degraded", "count", "lower"),
    ("cluster.route_self_ms_per_req", "ms", "lower"),
    ("cluster.swap_s", "s", "lower"),
    ("fleet.submit_exchange_ms_p50", "ms", "lower"),
    ("fleet.supervisor_cpu_ms_per_req", "ms", "lower"),
    ("fleet.worker_cpu_ms_per_req", "ms", "lower"),
    ("fleet.wait_ms_per_req", "ms", "lower"),
    ("fleet.mean_batch_size", "count", "higher"),
    ("fleet.spawn_s", "s", "lower"),
    ("fleet.publish_s", "s", "lower"),
    ("fleet.slab_mb", "MiB", "lower"),
    ("fleet.swap_s", "s", "lower"),
    ("fleet.worker_rss_mb", "MiB", "lower"),
    ("fleet.worker_restarts", "count", "lower"),
    ("batcher.queue_wait_ms_p50", "ms", "lower"),
    ("batcher.mean_batch_size", "count", "higher"),
    ("batcher.size_flush_share", "ratio", "higher"),
    ("batcher.flushes_per_kreq", "count", "lower"),
    ("batcher.submit_self_ms_per_req", "ms", "lower"),
    ("batcher.flush_self_ms_per_req", "ms", "lower"),
    ("cache.gate_hit_rate", "ratio", "higher"),
    ("cache.behavior_hit_rate", "ratio", "higher"),
    ("cache.gate_evictions_per_kreq", "count", "lower"),
    ("engine.retrieve_ms_per_req", "ms", "lower"),
    ("engine.score_ms_per_req", "ms", "lower"),
    ("engine.rank_rows_per_req", "count", "lower"),
    ("data.assemble_ms_per_req", "ms", "lower"),
    ("data.encode_behavior_ms_per_req", "ms", "lower"),
    ("infer.gate_plan_ms_per_eval", "ms", "lower"),
    ("infer.gate_evals_per_kreq", "count", "lower"),
    ("infer.score_plan_ms_per_flush", "ms", "lower"),
    ("infer.score_mflops_per_s", "MFLOP/s", "higher"),
    ("infer.compile_s", "s", "lower"),
    ("infer.arena_mb", "MiB", "lower"),
    ("retrieval.resolve_gate_ms_per_req", "ms", "lower"),
    ("retrieval.session_vector_ms_per_req", "ms", "lower"),
    ("retrieval.ivf_probe_ms_per_req", "ms", "lower"),
    ("retrieval.prefilter_ms_per_req", "ms", "lower"),
    ("retrieval.candidates_per_req", "count", "lower"),
    ("retrieval.survivors_per_req", "count", "lower"),
    ("retrieval.build_s", "s", "lower"),
    ("retrieval.index_mb", "MiB", "lower"),
    ("retrieval.recall_min", "ratio", "higher"),
    ("online.serve_log_sessions_per_s", "1/s", "higher"),
    ("online.click_log_ms_per_session", "ms", "lower"),
    ("online.read_build_s", "s", "lower"),
    ("online.train_s", "s", "lower"),
    ("online.register_s", "s", "lower"),
    ("online.canary_s", "s", "lower"),
    ("online.load_s", "s", "lower"),
    ("online.swap_s", "s", "lower"),
    ("online.train_rows", "count", "higher"),
    ("online.promoted_share", "ratio", "higher"),
    ("core.train_step_ms_p50", "ms", "lower"),
    ("core.steps", "count", "higher"),
    ("core.contrastive_share", "ratio", "lower"),
]


def end_to_end_metrics(result) -> Dict[str, float]:
    """The ten end-to-end metrics of one untraced run.

    Each timing is the better-side quartile (:func:`stats.best_quartile`)
    of its per-round samples — for set-up and open-loop latency, of every
    sample (construction, segment) of every round.
    """
    rounds = result.measured
    epochs = result.spec.refresh.epochs
    better = {name: direction for name, _, direction in END_TO_END}

    def over_rounds(name: str) -> float:
        return stats.best_quartile([float(row[name]) for row in rounds], better[name])

    def over_segments(name: str) -> float:
        return stats.best_quartile(
            [float(segment[name]) for row in rounds for segment in row["open"]], better[name]
        )

    failed = len(result.failures)
    return {
        "setup_s": stats.best_quartile([s for row in rounds for s in row["setup_s"]], "lower"),
        "qps_saturated": over_rounds("qps_saturated"),
        "latency_p50_ms": over_segments("latency_p50_ms"),
        "latency_p95_ms": over_segments("latency_p95_ms"),
        "refresh_s": over_rounds("refresh_s"),
        "train_rows_per_s": stats.best_quartile(
            [int(row["train_rows"]) * epochs / float(row["train_s"]) for row in rounds], "higher"
        ),
        "ndcg_at_10": result.quality["ndcg_at_10"],
        "recall_at_10": result.quality["recall_at_10"],
        "peak_rss_mb": result.peak_rss_mb,
        "ok_fraction": (result.attempted - failed) / result.attempted,
    }

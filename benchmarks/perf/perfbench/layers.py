"""Per-layer metrics of the traced run.

Layers are the repo's modules.  Time comes from the recorder's spans (self
time unless a span is a leaf), counts from the program's own counters read
between passes — ``merged_metrics()`` on both backends, ``/proc`` for worker
processes.  ``*_ms_per_req`` divides by the requests of the traced
closed-loop passes; queue wait and flush triggers are read off the traced
open-loop segments, where the deadline matters.

A layer the workload does not exercise reports 0 (``retrieval.*`` without a
cascade, ``fleet.*`` in-process, everything behind the pipe on the process
backend, where only the supervisor's front door is in this process).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core import TrainConfig, build_optimizers, build_strategy, train_step
from repro.data.synthetic import build_train_dataset, simulate_search_log
from repro.infer import compile_model
from repro.nn import GradArena
from repro.obs import MetricsRegistry
from repro.retrieval import RetrievalCascade

from perfbench import env, stats
from perfbench.metrics import PER_LAYER
from perfbench.spans import Recorder, Span
from perfbench.system import System
from perfbench.workloads import Inputs, fresh_model

__all__ = [
    "build_report",
    "counters",
    "counters_delta",
    "layer_metrics",
    "phase",
]

_MIB = float(1 << 20)
CLOSED, OPEN, REFRESH = "driver.closed_pass", "driver.open_segment", "driver.refresh"


@contextmanager
def phase(recorder: Optional[Recorder], name: str, count: int = 1) -> Iterator[None]:
    """A driver root span around one phase of a traced round (no-op when
    the round is untraced); ``count`` is the requests the phase submits."""
    if recorder is None:
        yield
        return
    with recorder.span(name) as record:
        record[-1] = count
        yield


# ----------------------------------------------------------------------
# counters read between passes
# ----------------------------------------------------------------------
def counters(system: System) -> Dict[str, float]:
    """Cumulative counters of the fleet, its workers and this process."""
    fleet = system.fleet
    if system.is_process:
        fleet.refresh_reports()
    sink = fleet.merged_metrics()
    out = {
        "driver_cpu_s": time.process_time(),
        "worker_cpu_s": sum(env.proc_cpu_seconds(pid) for pid in system.worker_pids()),
        "batches": float(sink.batches),
        "batched": float(sum(s * c for s, c in sink.batch_size_histogram().items())),
        "gate_hits": float(sink.cache_stats.hits),
        "gate_misses": float(sink.cache_stats.misses),
        "gate_evictions": float(sink.cache_stats.evictions),
        "behavior_hits": 0.0,
        "behavior_misses": 0.0,
    }
    if not system.is_process:
        for worker in fleet.workers:
            out["behavior_hits"] += worker.cache.behaviors.stats.hits
            out["behavior_misses"] += worker.cache.behaviors.stats.misses
    return out


def counters_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def build_report(system: System, build_start: float) -> Dict[str, float]:
    """Publish / spawn split of the main fleet's construction, from the
    supervisor's own lifecycle events (``time.monotonic`` stamps)."""
    report = {"publish_s": 0.0, "spawn_s": 0.0, "slab_mb": 0.0}
    if system.is_process:
        events = system.fleet.control.events
        published = events.events("slab_published")[0].timestamp
        spawned = events.events("worker_spawned")[-1].timestamp
        report["publish_s"] = published - build_start
        report["spawn_s"] = spawned - published
        report["slab_mb"] = system.fleet.telemetry_extra()["slab_bytes"] / _MIB
    return report


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
class _Table:
    """Spans indexed by (phase, name); a span's phase is its root's name."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_key: Dict[tuple, List[Span]] = defaultdict(list)
        self.phase_of: List[str] = []
        for span in spans:
            root = span.name if span.parent < 0 else self.phase_of[span.parent]
            self.phase_of.append(root)
            self.by_key[(root, span.name)].append(span)

    def get(self, phase_name: str, name: str) -> List[Span]:
        return self.by_key.get((phase_name, name), [])

    def self_s(self, phase_name: str, name: str) -> float:
        return sum(span.self_time for span in self.get(phase_name, name))

    def count(self, phase_name: str, name: str) -> int:
        return sum(span.count for span in self.get(phase_name, name))

    def median_s(self, phase_name: str, name: str) -> float:
        """Median over phases of the summed duration of ``name`` in each."""
        per_root: Dict[int, float] = defaultdict(float)
        for span in self.get(phase_name, name):
            per_root[self._root(span)] += span.duration
        return stats.median(list(per_root.values())) if per_root else 0.0

    def _root(self, span: Span) -> int:
        while span.parent >= 0:
            span = self.spans[span.parent]
        return span.id


def _queue_waits_ms(table: _Table) -> List[float]:
    """Per request of the open-loop segments: batcher submit done → the
    flush that scored it starts (0 for the request whose submit triggers a
    size flush).  Spans are in start order; each flush drains its shard."""
    pending: Dict[int, List[float]] = defaultdict(list)
    waits: List[float] = []
    for span, root in zip(table.spans, table.phase_of):
        if root != OPEN:
            continue
        if span.name == "batcher.submit":
            pending[span.shard].append(span.end)
        elif span.name == "batcher.flush":
            waits.extend(max(0.0, span.start - done) * 1000.0 for done in pending[span.shard])
            pending[span.shard].clear()
    return waits


def _contrastive_share(spec, inputs: Inputs) -> float:
    """Train-step wall time with the contrastive term ÷ without, on one
    fixed batch: median over 5 adjacent (with, without) pairs."""
    world = inputs.world
    log = simulate_search_log(world, 160, np.random.default_rng(5))
    dataset = build_train_dataset(log, np.random.default_rng(6))
    batch = dataset.batch_at(np.arange(min(spec.refresh.batch_size, len(dataset))))
    with_cl: TrainConfig = spec.refresh
    without = TrainConfig(
        epochs=with_cl.epochs, batch_size=with_cl.batch_size,
        learning_rate=with_cl.learning_rate, fast_path=with_cl.fast_path,
    )
    ratios = []
    setups = []
    for config in (with_cl, without):
        model = fresh_model(spec, inputs)
        model.train()
        setups.append(
            (model, config, build_optimizers(model, config), build_strategy(config),
             np.random.default_rng(8), GradArena())
        )
    for pair in range(6):
        elapsed = []
        for model, config, optimizers, strategy, rng, arena in setups:
            start = time.perf_counter()
            train_step(model, batch, config, optimizers, strategy, rng, arena)
            elapsed.append(time.perf_counter() - start)
        if pair:  # the first pair allocates the arenas
            ratios.append(elapsed[0] / elapsed[1])
    return stats.median(ratios)


# ----------------------------------------------------------------------
# the metric table
# ----------------------------------------------------------------------
def layer_metrics(
    result, system: System, inputs: Inputs, train_metrics: MetricsRegistry
) -> Dict[str, float]:
    """Every per-layer metric of ``perfbench.metrics.PER_LAYER``."""
    spec = system.spec
    table = _Table(result.recorder.spans())
    traced = [row for row in result.rounds if row["traced"]]
    untraced = result.measured
    requests = table.count(CLOSED, CLOSED)
    closed_wall = sum(span.duration for span in table.get(CLOSED, CLOSED))
    delta = {
        key: sum(row["counters"][key] for row in traced) for key in traced[0]["counters"]
    }
    fleet = system.fleet
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def per_req_ms(name: str) -> float:
        return table.self_s(CLOSED, name) * 1000.0 / requests

    def med(key: str) -> float:
        return stats.median([float(row[key]) for row in traced])

    def med_open(key: str) -> float:
        return stats.median([float(segment[key]) for row in traced for segment in row["open"]])

    # -- driver: validity of the run, not the program ---------------------
    traced_qps = [float(row["qps_saturated"]) for row in traced]
    untraced_qps = stats.median([float(row["qps_saturated"]) for row in untraced])
    layered = sum(
        span.self_time
        for span, root in zip(table.spans, table.phase_of)
        if root == CLOSED and not span.name.startswith("driver.")
    )
    values.update({
        "driver.offered_rps": med_open("offered_rps"),
        "driver.late_p99_ms": med_open("late_p99_ms"),
        "driver.backlog_end": med_open("backlog_end"),
        "driver.latency_p99_ms": med_open("latency_p99_ms"),
        "driver.cpu_ms_per_req": delta["driver_cpu_s"] * 1000.0 / requests,
        "driver.calibration_ms": med("calibration_ms"),
        "driver.steal_ticks": float(sum(row["steal_ticks"] for row in result.rounds)),
        "driver.round_spread": (max(traced_qps) - min(traced_qps)) / stats.median(traced_qps),
        "driver.tracing_overhead_pct":
            (untraced_qps - stats.median(traced_qps)) / untraced_qps * 100.0,
        "driver.budget_coverage": layered / closed_wall,
        "driver.duplicates": float(result.duplicates),
        "driver.degraded": float(
            sum(n for tier, n in fleet.merged_metrics().tier_counts.items() if tier != "full")
        ),
    })

    # -- the fleet's front door, and (in-process) everything behind it -----
    if system.is_process:
        exchanges = [s.duration * 1000.0 for s in table.get(CLOSED, "fleet.submit")]
        supervisor = delta["driver_cpu_s"] * 1000.0 / requests
        workers = delta["worker_cpu_s"] * 1000.0 / requests
        values.update({
            "fleet.submit_exchange_ms_p50": stats.percentile(exchanges, 50),
            "fleet.supervisor_cpu_ms_per_req": supervisor,
            "fleet.worker_cpu_ms_per_req": workers,
            "fleet.wait_ms_per_req": closed_wall * 1000.0 / requests - supervisor - workers,
            "fleet.mean_batch_size": delta["batched"] / delta["batches"],
            "fleet.spawn_s": result.build["spawn_s"],
            "fleet.publish_s": result.build["publish_s"],
            "fleet.slab_mb": result.build["slab_mb"],
            "fleet.swap_s": table.median_s(REFRESH, "fleet.swap_model"),
            "fleet.worker_rss_mb": sum(
                env.proc_status_mb(pid, "VmRSS") for pid in system.worker_pids()
            ),
            "fleet.worker_restarts": float(fleet.restarts_total),
        })
    else:
        flushes = table.get(CLOSED, "batcher.flush")
        open_flushes = table.get(OPEN, "batcher.flush")
        by_size = sum(
            1 for span in open_flushes if table.spans[span.parent].name == "batcher.submit"
        )
        gate_runs = table.get(CLOSED, "infer.gate_plan_run")
        score_runs = table.get(CLOSED, "infer.score_plan_run")
        score_s = table.self_s(CLOSED, "infer.score_plan_run")
        score_rows = table.count(CLOSED, "infer.score_plan_run")
        flops_per_row = sum(
            step.flops for step in fleet.workers[0].engine.compiled_model.score_plan.steps
        )
        arena_bytes = 0
        for worker in fleet.workers:
            plans = worker.engine.compiled_model.stats()
            arena_bytes += plans["score"]["arena_bytes"] + plans["gate"]["arena_bytes"]
        values.update({
            "cluster.route_self_ms_per_req": per_req_ms("cluster.submit"),
            "cluster.swap_s": table.median_s(REFRESH, "cluster.swap_model"),
            "batcher.queue_wait_ms_p50": stats.percentile(_queue_waits_ms(table), 50),
            "batcher.mean_batch_size": table.count(CLOSED, "batcher.flush") / len(flushes),
            "batcher.size_flush_share": by_size / len(open_flushes),
            "batcher.flushes_per_kreq": len(flushes) * 1000.0 / requests,
            "batcher.submit_self_ms_per_req": per_req_ms("batcher.submit"),
            "batcher.flush_self_ms_per_req": per_req_ms("batcher.flush"),
            "engine.retrieve_ms_per_req": per_req_ms("engine.retrieve"),
            "engine.score_ms_per_req": per_req_ms("engine.score_candidates"),
            "engine.rank_rows_per_req": score_rows / requests,
            "data.assemble_ms_per_req": per_req_ms("engine.build_batch"),
            "data.encode_behavior_ms_per_req": per_req_ms("engine.encode_user_behavior"),
            "infer.gate_plan_ms_per_eval":
                table.self_s(CLOSED, "infer.gate_plan_run") * 1000.0 / len(gate_runs),
            "infer.gate_evals_per_kreq":
                table.count(CLOSED, "infer.gate_plan_run") * 1000.0 / requests,
            "infer.score_plan_ms_per_flush": score_s * 1000.0 / len(score_runs),
            "infer.score_mflops_per_s": flops_per_row * score_rows / score_s / 1e6,
            "infer.arena_mb": arena_bytes / _MIB,
            # All zero without a cascade: no such span is ever recorded.
            "retrieval.resolve_gate_ms_per_req": per_req_ms("retrieval.resolve_gate"),
            "retrieval.session_vector_ms_per_req": per_req_ms("retrieval.session_vector"),
            "retrieval.ivf_probe_ms_per_req": per_req_ms("retrieval.index_search"),
            "retrieval.prefilter_ms_per_req": per_req_ms("retrieval.prefilter_prune"),
            "retrieval.candidates_per_req":
                table.count(CLOSED, "retrieval.index_search") / requests,
            "retrieval.survivors_per_req":
                table.count(CLOSED, "retrieval.prefilter_prune") / requests,
        })
    lookups = delta["gate_hits"] + delta["gate_misses"]
    behaviors = delta["behavior_hits"] + delta["behavior_misses"]
    values.update({
        "cache.gate_hit_rate": delta["gate_hits"] / lookups if lookups else 0.0,
        "cache.behavior_hit_rate": delta["behavior_hits"] / behaviors if behaviors else 0.0,
        "cache.gate_evictions_per_kreq": delta["gate_evictions"] * 1000.0 / requests,
    })

    # -- builds timed directly, outside any round -------------------------
    model = system.loop.production_model
    compile_s = []
    for _ in range(3):
        start = time.perf_counter()
        compiled = compile_model(model)
        compile_s.append(time.perf_counter() - start)
    values["infer.compile_s"] = stats.median(compile_s)
    if spec.cascade is not None:
        start = time.perf_counter()
        cascade = RetrievalCascade.from_model(model, inputs.world, spec.cascade, scorer=compiled)
        values["retrieval.build_s"] = time.perf_counter() - start
        values["retrieval.index_mb"] = cascade.index.nbytes / _MIB
        values["retrieval.recall_min"] = result.quality["recall_min"]

    # -- online: the stages of run_cycle; parts sum to refresh_s ----------
    sessions = sum(int(row["sessions"]) for row in traced)
    serve_s = sum(float(row["window_s"]) for row in traced)
    if spec.window_sessions == 0:  # live clicks: serving them is part of the stage
        serve_s += sum(float(row["closed_wall_s"]) for row in traced)
    cycle_self = table.median_s(REFRESH, "online.run_cycle") - sum(
        table.median_s(REFRESH, name)
        for name in ("online.read_new", "online.update", "online.register", "online.judge",
                     "online.promote", "online.load_into", f"{system.door}.swap_model")
    )
    values.update({
        "online.serve_log_sessions_per_s": sessions / serve_s,
        "online.click_log_ms_per_session":
            sum(s.duration for s in table.get(REFRESH, "online.log_session")) * 1000.0
            / sessions,
        # run_cycle's own time is the two build_dataset calls plus glue.
        "online.read_build_s": table.median_s(REFRESH, "online.read_new") + cycle_self,
        "online.train_s": table.median_s(REFRESH, "online.update"),
        "online.register_s": table.median_s(REFRESH, "online.register"),
        "online.canary_s": table.median_s(REFRESH, "online.judge"),
        "online.load_s": table.median_s(REFRESH, "online.promote")
        + table.median_s(REFRESH, "online.load_into"),
        "online.swap_s": table.median_s(REFRESH, f"{system.door}.swap_model"),
        "online.train_rows": float(sum(int(row["train_rows"]) for row in result.rounds)),
        "online.promoted_share":
            sum(bool(row["promoted"]) for row in result.rounds) / len(result.rounds),
    })

    # -- core: the training step itself ------------------------------------
    values.update({
        "core.train_step_ms_p50": train_metrics.histogram("train_step_ms").quantile(50),
        "core.steps": float(system.loop.trainer.total_steps),
        "core.contrastive_share": _contrastive_share(spec, inputs),
    })
    return values


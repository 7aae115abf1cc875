"""One benchmark run: interleaved, count-boxed rounds against one fleet.

A run is a quarter-size serving warm-up (discarded) followed by
``spec.rounds(seconds)`` measured rounds; every round runs every phase in
the same order::

    closed-loop pass → open-loop segment(s) → refresh → set-up sample(s)

so a slow second on the shared box moves one sample of every metric rather
than one metric, and the per-run value of each timing is the better-side
quartile over rounds (:func:`perfbench.stats.best_quartile`).  Every pass
consumes a fixed number of events from the run's one seeded stream — no
stopwatch decides how much work a pass does — and all auditing happens
after the clock stops.

The single client is this process; the fleet is driven only through
``submit`` / ``poll`` / ``next_flush_due`` / ``flush`` / ``swap_model`` and
the online loop through ``run_cycle``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import drift_world, true_relevance
from repro.eval import dcg
from repro.obs import MetricsRegistry
from repro.serving import RankedList, SearchEngine

from perfbench import env, layers, stats
from perfbench.audit import AuditError, Ledger
from perfbench.spans import Recorder
from perfbench.system import System, attach_recorder, build_system
from perfbench.workloads import (
    PROBE_REQUESTS,
    Inputs,
    RequestStream,
    WorkloadSpec,
    click_sessions,
    fresh_model,
)

__all__ = ["RunResult", "run"]

CLOCK = time.perf_counter
#: The discarded warm-up serves this share of a round's requests.
WARMUP_SHARE = 0.25
Received = List[Tuple[float, Sequence[RankedList]]]


@dataclass
class RunResult:
    """What one run measured, before it is turned into metrics."""

    spec: WorkloadSpec
    seed: int
    traced: bool
    warmup: Dict[str, object] = field(default_factory=dict)
    rounds: List[Dict[str, object]] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    duplicates: int = 0
    build: Dict[str, float] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[Recorder] = None

    @property
    def measured(self) -> List[Dict[str, object]]:
        """Rounds that feed end-to-end metrics: the untraced ones."""
        return [row for row in self.rounds if not row["traced"]]


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _serve_list(system: System, requests, ledger: Ledger) -> List[int]:
    """Submit ``requests`` back to back, flush, audit; untimed helper."""
    fleet = system.fleet
    ledger.submit(requests, fleet.model_version)
    received: Received = []
    for user, category in requests:
        got = fleet.submit(user, category)
        if got:
            received.append((CLOCK(), got))
    received.append((CLOCK(), fleet.flush()))
    return ledger.settle(received)


def _probe(system: System, inputs: Inputs, ledger: Ledger) -> None:
    """The fleet answers the fixed probe list (both shards) at full tier."""
    answered = _serve_list(system, inputs.probes, ledger)
    if len(answered) != PROBE_REQUESTS:
        raise AuditError(f"probe list: {len(answered)} of {PROBE_REQUESTS} answered")


def _warm_shapes(system: System, inputs: Inputs, ledger: Ledger) -> None:
    """Flush one batch of each size per shard: a fresh plan's arena
    allocates per batch shape, and that belongs to no timed pass."""
    sizes = range(1, system.spec.fleet_config().max_batch_size + 1)
    for requests in inputs.warm:
        cursor = 0
        for size in sizes:
            _serve_list(system, requests[cursor : cursor + size], ledger)
            cursor += size


def _closed_pass(
    system: System, events, ledger: Ledger, recorder: Optional[Recorder]
) -> Tuple[float, List[Tuple[int, RankedList]]]:
    """One client submitting back to back; timed from the first submit to
    the end of the final flush.  Returns (wall seconds, answers by request)."""
    fleet = system.fleet
    ids = ledger.submit(
        [(event.user, event.query_category) for event in events], fleet.model_version
    )
    answers: List[RankedList] = []
    submit = fleet.submit
    # The root span covers exactly the timed region (auditing is outside).
    with layers.phase(recorder, layers.CLOSED, len(events)):
        start = CLOCK()
        for request, event in zip(ids, events):
            if recorder is not None:
                recorder.request = request
            got = submit(event.user, event.query_category)
            if got:
                answers.extend(got)
        if recorder is not None:
            recorder.request = -1
        answers.extend(fleet.flush())
        end = CLOCK()
    matched = ledger.settle([(end, answers)])
    return end - start, sorted(zip(matched, answers), key=lambda pair: pair[0])


def _open_segment(
    system: System, events, ledger: Ledger, recorder: Optional[Recorder]
) -> Dict[str, float]:
    """Poisson arrivals at the workload's fixed rate; each request is timed
    from when it was *due*, so a stall charges every request it delays."""
    fleet = system.fleet
    ids = ledger.submit(
        [(event.user, event.query_category) for event in events], fleet.model_version
    )
    offsets = [event.time for event in events]
    submit, poll, next_due = fleet.submit, fleet.poll, fleet.next_flush_due
    received: Received = []
    lateness: List[float] = []
    count, index = len(events), 0
    start = CLOCK()
    while index < count:
        due = start + offsets[index]
        now = CLOCK()
        if now < due:
            wake = due
            flush_due = next_due()
            if flush_due is not None and flush_due < wake:
                wake = flush_due
            if wake > now:
                time.sleep(wake - now)
            got = poll()
            if got:
                received.append((CLOCK(), got))
            continue
        lateness.append(now - due)
        if recorder is not None:
            recorder.request = ids[index]
        event = events[index]
        got = submit(event.user, event.query_category)
        if got:
            received.append((CLOCK(), got))
        index += 1
    sent_wall = CLOCK() - start
    if recorder is not None:
        recorder.request = -1
    backlog = count - sum(len(got) for _, got in received)
    # Tail: let the pending deadline flushes fire, then drain.
    while True:
        flush_due = next_due()
        if flush_due is None:
            break
        delay = flush_due - CLOCK()
        if delay > 0:
            time.sleep(delay)
        received.append((CLOCK(), poll()))
    if sum(len(got) for _, got in received) < count:
        # Answers outstanding but no deadline to wait for: the fleet's workers
        # flush on timers of their own (process backend).  Give them one.
        time.sleep(system.spec.fleet_config().flush_deadline_ms / 1000.0)
        received.append((CLOCK(), poll()))
    received.append((CLOCK(), fleet.flush()))
    ledger.settle(received)
    latencies = [
        (ledger.answered_at[request] - (start + offset)) * 1000.0
        for request, offset in zip(ids, offsets)
        if ledger.answered_at[request] is not None
    ]
    if len(latencies) != count:
        raise AuditError(f"open loop: {len(latencies)} of {count} requests answered")
    return {
        "requests": count,
        "latency_p50_ms": stats.percentile(latencies, 50),
        "latency_p95_ms": stats.percentile(latencies, 95),
        "latency_p99_ms": stats.percentile(latencies, 99),
        "beyond_p95": stats.samples_beyond(count, 95),
        "offered_rps": count / sent_wall,
        "late_p99_ms": stats.percentile(lateness, 99) * 1000.0,
        "backlog_end": backlog,
    }


def _click_window(system: System, inputs: Inputs, answers) -> int:
    """Append this refresh's click window to the loop's log; untimed ("the
    click window closes" is where ``refresh_s`` starts).

    Serving workloads replay the frozen window; ``refresh-loop`` simulates
    position-biased clicks on this round's closed-loop answers, whose batch
    composition — unlike the open loop's — does not depend on time.
    """
    loop = system.loop
    if system.spec.window_sessions:
        sessions = inputs.window
    else:
        sessions = click_sessions(loop.click_model, [ranking for _, ranking in answers])
    version = system.fleet.model_version
    for user, category, items, clicks in sessions:
        loop.click_log.log_session(user, category, items, clicks, model_version=version)
    return len(sessions)


def _refresh(
    system: System, inputs: Inputs, answers, ledger: Ledger, recorder: Optional[Recorder]
) -> Dict[str, object]:
    """Click window closed → new version has answered the probe list on
    every shard: read_new + build_dataset + update + register + judge +
    promote/load_into + swap_model, all inside ``OnlineLoop.run_cycle``."""
    loop = system.loop
    window_start = CLOCK()
    sessions = _click_window(system, inputs, answers)
    trained_before = loop.trainer.update_seconds
    start = CLOCK()
    report = loop.run_cycle(())
    _probe(system, inputs, ledger)
    end = CLOCK()
    if report.sessions_logged != sessions or report.queries_served != 0:
        raise AuditError(
            f"refresh consumed {report.sessions_logged} sessions "
            f"({report.queries_served} drained), expected {sessions} (0)"
        )
    if recorder is not None:
        attach_recorder(recorder, system)
    _warm_shapes(system, inputs, ledger)
    return {
        "refresh_s": end - start,
        "window_s": start - window_start,
        "sessions": sessions,
        "train_rows": report.train_rows,
        "train_s": loop.trainer.update_seconds - trained_before,
        "promoted": bool(report.promoted),
        "clicks": report.clicks,
    }


def _setup_sample(
    spec: WorkloadSpec, inputs: Inputs, scratch: Path, result: RunResult
) -> float:
    """From trained weights + world to a fleet that has answered the probe
    list; the teardown is outside the sample."""
    model = fresh_model(spec, inputs)
    ledger = Ledger(inputs.world.item_category)
    start = CLOCK()
    system = build_system(spec, inputs, model, spec.loop_in_setup, scratch)
    try:
        env.match_affinity(system.worker_pids())
        _probe(system, inputs, ledger)
        elapsed = CLOCK() - start
    finally:
        system.close()
    _absorb(result, ledger)
    return elapsed


def _absorb(result: RunResult, ledger: Ledger) -> None:
    ledger.close()
    result.attempted += ledger.attempted
    result.failures.extend(ledger.failures)
    result.duplicates += ledger.duplicates


# ----------------------------------------------------------------------
# quality, graded apart from timing
# ----------------------------------------------------------------------
def _quality(
    spec: WorkloadSpec, inputs: Inputs, model, scratch: Path, result: RunResult
) -> Dict[str, float]:
    """``ndcg_at_10`` / ``recall_at_10`` of the version now in production.

    Each evaluation request is submitted and flushed alone on a freshly
    built fleet, so neither batch composition nor how much traffic the
    measured fleet's retrieval RNG has seen can move a score.
    """
    world = inputs.world
    members = [
        np.flatnonzero(world.item_category == category)
        for category in range(world.num_categories)
    ]
    eager = SearchEngine(world, model, np.random.default_rng(0), compile=False)
    ledger = Ledger(world.item_category)
    system = build_system(spec, inputs, model, False, scratch)
    ndcgs, recalls = [], []
    try:
        for user, category in inputs.evals:
            ledger.submit([(user, category)], system.fleet.model_version)
            received = [(CLOCK(), system.fleet.submit(user, category))]
            received.append((CLOCK(), system.fleet.flush()))
            ledger.settle(received)
            answers = [answer for _, got in received for answer in got]
            if len(answers) != 1:
                raise AuditError(f"evaluation request got {len(answers)} answers")
            ranking = answers[0]
            served = np.asarray(ranking.items[:10])
            ideal = np.sort(true_relevance(world, user, members[category], category))[::-1]
            ndcgs.append(dcg(true_relevance(world, user, served, category)) / dcg(ideal, 10))
            # The oracle ranks the whole category behind a cascade, else the
            # candidates the fleet was given (compiled ↔ eager parity).
            pool = members[category] if spec.cascade is not None else np.sort(ranking.items)
            scores = eager.score_candidates(eager.build_batch(user, category, pool))
            oracle = pool[np.argsort(-scores, kind="stable")[:10]]
            recalls.append(np.intersect1d(served, oracle).size / oracle.size)
    finally:
        system.close()
    _absorb(result, ledger)
    return {
        "ndcg_at_10": float(np.mean(ndcgs)),
        "recall_at_10": float(np.mean(recalls)),
        "recall_min": float(np.min(recalls)),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _serve_round(
    system: System,
    stream: RequestStream,
    ledger: Ledger,
    recorder: Optional[Recorder],
    share: float,
    row: Dict[str, object],
    count_layers: bool = False,
):
    """The serving half of a round: closed-loop pass, then the open-loop
    segment(s), each on the next slice of the stream; fills ``row`` and
    returns the closed-loop answers (the live click window of
    ``refresh-loop``)."""
    spec = system.spec
    events = stream.take(max(16, int(spec.closed_requests * share)))
    before = layers.counters(system) if count_layers else None
    wall, answers = _closed_pass(system, events, ledger, recorder)
    if count_layers:
        row["counters"] = layers.counters_delta(before, layers.counters(system))
    row["closed_requests"] = len(events)
    row["closed_wall_s"] = wall
    row["qps_saturated"] = len(events) / wall

    row["open"] = []
    for _ in range(spec.open_segments):
        events = stream.take(max(16, int(spec.open_requests * share)))
        with layers.phase(recorder, layers.OPEN, len(events)):
            row["open"].append(_open_segment(system, events, ledger, recorder))
    row["open_requests"] = sum(segment["requests"] for segment in row["open"])
    return answers


def run(
    spec: WorkloadSpec,
    inputs: Inputs,
    seed: int,
    seconds: float,
    traced: bool,
    scratch: Path,
) -> RunResult:
    """Run ``spec`` once.  ``traced`` runs traced, untraced, traced rounds
    after the warm-up and fills :attr:`RunResult.layer_metrics`; otherwise
    the warm-up is followed by ``spec.rounds(seconds)`` untraced rounds."""
    recorder = Recorder(CLOCK) if traced else None
    result = RunResult(spec, seed, traced, recorder=recorder)
    stream = RequestStream(inputs.world, seed, spec.zipf, spec.rate_rps)
    drift_rng = np.random.default_rng(np.random.SeedSequence(17))
    train_metrics = MetricsRegistry() if traced else None
    ledger = Ledger(inputs.world.item_category)

    build_start = time.monotonic()
    system = build_system(
        spec, inputs, fresh_model(spec, inputs), True, scratch,
        click_seed=seed, train_metrics=train_metrics,
    )
    try:
        env.match_affinity(system.worker_pids())
        result.build = layers.build_report(system, build_start)
        _probe(system, inputs, ledger)
        _warm_shapes(system, inputs, ledger)

        # Warm-up: a quarter-size serving round, discarded.  It warms what
        # is cache-sensitive (session caches, arenas, the allocator); refresh
        # and set-up are not, and the main fleet's construction and
        # bootstrap swap above already ran them once.
        _serve_round(system, stream, ledger, None, WARMUP_SHARE, result.warmup)

        plan = [True, False, True] if traced else [False] * spec.rounds(seconds)
        for number, trace_round in enumerate(plan, 1):
            row: Dict[str, object] = {"round": number, "traced": trace_round}
            active = recorder if trace_round else None
            if active is not None:
                attach_recorder(active, system)
            if spec.drift and number > 1:
                drift_world(inputs.world, drift_rng, interest_drift=0.1, trend_drift=0.3)
                stream.redraw()
            steal = env.steal_ticks()
            row["calibration_ms"] = env.calibration_ms()
            answers = _serve_round(system, stream, ledger, active, 1.0, row, traced)
            with layers.phase(active, layers.REFRESH):
                row.update(_refresh(system, inputs, answers, ledger, active))
            if active is not None:
                recorder.detach()
            row["setup_s"] = [
                _setup_sample(spec, inputs, scratch, result)
                for _ in range(spec.setups_per_round)
            ]
            row["steal_ticks"] = env.steal_ticks() - steal
            result.rounds.append(row)

        result.peak_rss_mb = env.peak_rss_mb(system.worker_pids())
        result.quality = _quality(
            spec, inputs, system.loop.production_model, scratch, result
        )
        if traced:
            result.layer_metrics = layers.layer_metrics(result, system, inputs, train_metrics)
    finally:
        system.close()
    _absorb(result, ledger)
    return result

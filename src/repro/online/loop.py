"""The closed online learning loop: serve → log → train → canary → swap.

:class:`OnlineLoop` wires every online component around PR 1's serving
fleet::

          ┌────────────────────────────────────────────────────────┐
          ▼                                                        │
    Fleet ─────────RankedLists───► PositionBiasedClickModel       │
          ▲                               │ clicks                 │
          │ hot swap                      ▼                        │
    ModelRegistry ◄── register ── ClickLog ── read_new ──► IncrementalTrainer
          │ promote / reject                                       │
          └────────────── CanaryGate ◄── candidate ────────────────┘

Each :meth:`run_cycle` call is one refresh: replay a traffic slice through
the cluster, simulate clicks on the served rankings, append them to the
click log, consume the unread window (a slice held out for the canary, the
rest for training), warm-start-train the candidate, register it, canary it
against current production on the held-out sessions, and — only on a pass —
hot-swap a *freshly loaded* serving copy into every shard.  The serving
fleet never scores with the trainer's live object, so a cycle that fails
the canary leaves production untouched, and an empty click log leaves the
production rankings bitwise-identical (no accidental skew from the new
path; asserted in ``tests/online/test_loop.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.synthetic import World
from repro.faults.injector import TransientFault
from repro.obs import NULL_TRACER, AlertManager, DriftMonitor, telemetry_snapshot
from repro.online.canary import CanaryGate, CanaryReport
from repro.online.click_log import ClickLog, build_dataset
from repro.online.click_model import PositionBiasedClickModel
from repro.online.incremental import IncrementalTrainer
from repro.online.registry import CorruptCheckpointError, ModelRegistry
from repro.serving.fleet import Fleet
from repro.serving.shard import SwapFailed
from repro.serving.engine import RankedList
from repro.serving.loadgen import TrafficEvent, replay
from repro.serving.metrics import ManualClock

__all__ = ["CycleReport", "OnlineLoop"]


@dataclass
class CycleReport:
    """What one refresh cycle did, for audit and benchmarking."""

    cycle: int
    queries_served: int
    sessions_logged: int
    clicks: int
    log_lag: int
    train_rows: int
    candidate_version: Optional[int] = None
    promoted: bool = False
    canary: Optional[CanaryReport] = None
    production_version: Optional[int] = None
    #: Per-feature drift scores of this cycle's live window vs the current
    #: production model's training reference (``None`` until a reference
    #: exists, i.e. before the first promotion freezes one).
    drift: Optional[dict] = None
    #: Alert rules that fired or resolved during this cycle.
    alerts: Optional[list] = None
    #: Set when this cycle rolled production back — either because a
    #: promotion failed partway (corrupt checkpoint, mid-swap crash) or
    #: because an alert fired inside the post-swap watch window.
    rollback: Optional[dict] = None

    def summary(self) -> dict:
        """JSON-serializable view (the benchmark artifact rows)."""
        return {
            "cycle": self.cycle,
            "queries_served": self.queries_served,
            "sessions_logged": self.sessions_logged,
            "clicks": self.clicks,
            "log_lag": self.log_lag,
            "train_rows": self.train_rows,
            "candidate_version": self.candidate_version,
            "promoted": self.promoted,
            "production_version": self.production_version,
            "rollback": self.rollback,
            "drift": None
            if self.drift is None
            else {name: round(scores["psi"], 6) for name, scores in self.drift.items()},
            "alerts": self.alerts,
            "canary": None
            if self.canary is None
            else {
                "passed": self.canary.passed,
                "candidate": self.canary.candidate,
                "production": self.canary.production,
                "reasons": list(self.canary.reasons),
            },
        }


class OnlineLoop:
    """Orchestrates the serve → learn → deploy cycle over one fleet.

    Parameters
    ----------
    world:
        The synthetic world traffic and features are drawn from.
    cluster:
        The serving fleet (:func:`repro.serving.build_fleet`, either backend).
    trainer:
        Warm-start trainer owning the *training twin* of the production
        model.  The fleet never serves this object: deployments load a
        fresh copy from the registry (``model_factory``).
    model_factory:
        Zero-argument constructor for an architecture-identical blank model;
        called once per promotion to build the serving copy.
    registry / canary / click_model:
        The remaining loop components; a fresh :class:`ClickLog` is created
        unless one is passed.
    holdout_every:
        Every Nth logged session is withheld from training and reserved for
        the canary replay (production vs candidate on identical traffic).
    tracer:
        Optional :class:`~repro.obs.Tracer` for **refresh-cycle traces**:
        each :meth:`run_cycle` emits one span tree (``serve → read_new →
        train [per-epoch children] → register → canary [replay +
        recall-probe children] → swap``) — the learning-loop counterpart of
        the fleet's per-request traces.
    drift:
        Optional :class:`~repro.obs.DriftMonitor`.  Served sessions stream
        CTR, predicted scores, score-calibration gap, and shown-item
        price/popularity into its live sketches; each promotion freezes the
        live window as the new production model's training-time reference
        (that window *is* the click log the candidate trained on).
    alerts:
        Optional :class:`~repro.obs.AlertManager`, evaluated once per cycle
        against the merged telemetry snapshot (``Fleet.telemetry()`` —
        pooled serving registry and fleet scalars — trainer metrics, fleet
        SLO, drift scores and click-log lag).  Unless it already has an
        event log, it is bound to the cluster's control-plane
        :class:`~repro.obs.EventLog`, so alert transitions interleave with
        hot swaps and canary verdicts in one timeline.
    retry_attempts / retry_backoff_s:
        Transient-failure policy for the train and canary stages: a
        :class:`~repro.faults.TransientFault` (injected, or any future
        genuinely-transient failure raised as one) is retried up to
        ``retry_attempts`` times with exponential backoff (``backoff *
        2**attempt`` seconds, advanced on the fleet's :class:`ManualClock`
        when it runs on one, so tests pay no wall-clock).  Exhaustion
        re-raises — a persistently failing refresh must be loud.
    watch_cycles:
        Post-promotion watch window: if any alert rule *fires* within this
        many cycles of a promotion while the promoted version is still
        production, the loop rolls production back to the promotion's
        parent automatically (registry, fleet, and training twin together).
        The default ``0`` disables auto-rollback — it is opt-in because any
        configured alert (drift included) triggers it, and a fleet that
        alarms routinely should not demote a healthy model; pair it with
        rules over the resilience telemetry
        (:func:`repro.faults.default_fault_alert_rules`).

    Time comes from the fleet: every event the loop records, every click
    timestamp and every retry backoff reads ``cluster.clock`` — so the loop's
    and the fleet's control-plane events share one time base — and a
    :class:`~repro.serving.metrics.ManualClock` passed to
    :func:`~repro.serving.build_fleet` makes the whole loop replay in
    deterministic simulated time.
    """

    def __init__(
        self,
        world: World,
        cluster: Fleet,
        trainer: IncrementalTrainer,
        model_factory: Callable[[], RankingModel],
        registry: ModelRegistry,
        canary: CanaryGate,
        click_model: PositionBiasedClickModel,
        click_log: Optional[ClickLog] = None,
        holdout_every: int = 5,
        seed: int = 0,
        tracer=None,
        drift: Optional[DriftMonitor] = None,
        alerts: Optional[AlertManager] = None,
        retry_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        watch_cycles: int = 0,
    ) -> None:
        if holdout_every < 2:
            raise ValueError(f"holdout_every must be >= 2, got {holdout_every}")
        if retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, got {retry_attempts}")
        if watch_cycles < 0:
            raise ValueError(f"watch_cycles must be >= 0, got {watch_cycles}")
        self.world = world
        self.cluster = cluster
        self.trainer = trainer
        self.model_factory = model_factory
        self.registry = registry
        self.canary = canary
        self.click_model = click_model
        self.click_log = click_log if click_log is not None else ClickLog()
        self.holdout_every = int(holdout_every)
        self.clock = cluster.clock
        #: The fleet's clock when it is simulated (``None`` on wall time).
        self._manual = self.clock if isinstance(self.clock, ManualClock) else None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.drift = drift
        self.alerts = alerts
        if alerts is not None and alerts.events is None:
            alerts.events = cluster.control.events
        self.retry_attempts = int(retry_attempts)
        self.retry_backoff_s = float(retry_backoff_s)
        self.watch_cycles = int(watch_cycles)
        #: Active post-promotion watch window (``None`` outside one):
        #: ``{"version", "parent", "until"}`` — see ``watch_cycles``.
        self._watch: Optional[dict] = None
        self._neg_rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._production_model: Optional[RankingModel] = None
        self.cycles_run = 0
        self.reports: List[CycleReport] = []
        # Surface startup repairs (torn index recovered from backup/scan,
        # torn click-log tail dropped) as control-plane events: state the
        # loop healed silently is state an operator never audits.
        if registry.recovery is not None:
            self.cluster.control.events.record(
                "state_recovered",
                self._now(),
                component="registry",
                source=str(registry.recovery.get("source")),
                versions=len(registry.recovery.get("versions", ())),
            )
        if self.click_log.dropped_records:
            self.cluster.control.events.record(
                "state_recovered",
                self._now(),
                component="click_log",
                sessions=self.click_log.recovered_sessions,
                dropped=self.click_log.dropped_records,
            )

    # ------------------------------------------------------------------
    # deployment plumbing
    # ------------------------------------------------------------------
    @property
    def production_model(self) -> Optional[RankingModel]:
        """The model instance the fleet currently serves."""
        return self._production_model

    @property
    def production_version(self) -> Optional[int]:
        entry = self.registry.production
        return None if entry is None else entry.version

    def bootstrap(self) -> int:
        """Register + deploy the trainer's (offline-trained) model as v1.

        The seed model takes the same path every later refresh takes —
        checkpoint, registry, fresh serving copy, hot swap — so offline and
        online serving are the same code path from the first query on.
        """
        if self.registry.production is not None:
            raise RuntimeError("loop already bootstrapped (production exists)")
        entry = self.registry.register(self.trainer.model, trainer=self.trainer)
        self.registry.promote(entry.version)
        self._deploy(entry.version)
        return entry.version

    def _deploy(self, version: int) -> None:
        """Load a fresh serving copy of ``version`` and swap it in."""
        serving_copy = self.model_factory()
        self.registry.load_into(version, serving_copy)
        self.cluster.swap_model(serving_copy, self.registry.label(version))
        self._production_model = serving_copy

    def _now(self) -> float:
        return self.clock()

    def _sleep(self, seconds: float) -> None:
        if self._manual is not None:
            self._manual.advance(seconds)
        else:  # pragma: no cover - wall-clock path
            time.sleep(seconds)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _with_retry(self, stage: str, fn: Callable[[], object]):
        """Run ``fn``, retrying :class:`TransientFault` with backoff.

        Each retry records a typed ``retry`` control-plane event; the last
        attempt's fault re-raises (the cycle then fails loudly rather than
        promoting on a half-run stage).
        """
        last: Optional[TransientFault] = None
        for attempt in range(self.retry_attempts):
            try:
                return fn()
            except TransientFault as exc:
                last = exc
                self.cluster.control.events.record(
                    "retry",
                    self._now(),
                    stage=stage,
                    attempt=attempt + 1,
                    max_attempts=self.retry_attempts,
                )
                if attempt + 1 < self.retry_attempts:
                    self._sleep(self.retry_backoff_s * (2.0**attempt))
        raise last

    def _recover_failed_deploy(
        self,
        entry,
        parent: Optional[int],
        exc: Exception,
        report: CycleReport,
    ) -> None:
        """A promotion failed partway — restore the parent everywhere.

        Reached when :meth:`_deploy` raised after ``promote``: either the
        candidate's checkpoint failed its integrity check
        (:class:`CorruptCheckpointError` — the fleet was never touched) or
        the hot swap crashed mid-drain (:class:`SwapFailed` — the cluster
        already rolled its shards back).  In both cases the fleet still
        serves the parent; what needs repair is the *registry* (production
        pointer moved to the failed candidate) and the *training twin*
        (its weights are the failed candidate's — left in place they would
        silently become the base of every future refresh).
        """
        corrupt = isinstance(exc, CorruptCheckpointError)
        if parent is not None:
            self.registry.promote(parent)
        if corrupt:
            self.registry.quarantine(entry.version)
            self.cluster.control.events.record(
                "quarantine", self._now(), version=entry.version, reason=str(exc)[:200]
            )
        else:
            self.registry.reject(entry.version)
        if parent is not None:
            # Roll the training twin back to the production lineage.  A
            # quarantined candidate's *checkpoint* is damaged but the
            # trainer's in-memory weights are not — they are still rolled
            # back because an undeployable candidate must not seed the next.
            self.registry.load_into(parent, self.trainer.model, trainer=self.trainer)
        self.cluster.control.events.record(
            "rollback",
            self._now(),
            version=entry.version,
            restored=parent,
            reason=f"deploy_failed:{type(exc).__name__}",
        )
        if self.drift is not None:
            self.drift.reset_live()
        report.rollback = {
            "version": entry.version,
            "restored": parent,
            "reason": f"deploy_failed:{type(exc).__name__}",
            "quarantined": corrupt,
        }

    def _auto_rollback(self, rule: str, report: CycleReport) -> None:
        """An alert fired inside the watch window: demote the fresh version.

        The watched version passed its canary but is misbehaving in
        production (shed rate up, fallback share up, breakers opening);
        production, the registry, and the training twin all return to the
        promotion's parent.  The rolled-back version is marked ``rejected``
        — its metrics were fine, its behaviour was not.
        """
        watch = self._watch
        self._watch = None
        parent = watch["parent"]
        if parent is None:  # a bootstrap deployment has nothing to return to
            return
        self.registry.promote(parent)
        self.registry.reject(watch["version"])
        self._deploy(parent)
        self.registry.load_into(parent, self.trainer.model, trainer=self.trainer)
        self.cluster.control.events.record(
            "rollback",
            self._now(),
            version=watch["version"],
            restored=parent,
            reason=f"alert:{rule}",
        )
        if self.drift is not None:
            self.drift.reset_live()
        report.rollback = {
            "version": watch["version"],
            "restored": parent,
            "reason": f"alert:{rule}",
            "quarantined": False,
        }

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def serve_and_log(self, events: Sequence[TrafficEvent]) -> List[RankedList]:
        """Replay ``events`` through the fleet, simulating + logging clicks.

        Event times are relative ("seconds since traffic start"), but a
        simulated fleet clock spans *all* cycles and never moves
        backwards — so each cycle's events are re-based onto the current
        clock.  Without this, every cycle after the first would replay in
        the clock's past: deadline flushes would never fire and click
        timestamps would freeze.
        """
        events = list(events)
        if self._manual is not None:
            base = self._manual.now()
            events = [
                TrafficEvent(base + event.time, event.user, event.query_category)
                for event in events
            ]
        results = replay(self.cluster, events, clock=self._manual)
        for ranking in results:
            shown = self.click_model.shown_positions(ranking)
            clicks = self.click_model.clicks(ranking)
            self.click_log.log_session(
                ranking.user,
                ranking.query_category,
                ranking.items[:shown],
                clicks,
                model_version=ranking.model_version,
                timestamp=self._now(),
            )
            if self.drift is not None:
                self._observe_drift(ranking, shown, clicks)
        return results

    def _observe_drift(self, ranking: RankedList, shown: int, clicks: np.ndarray) -> None:
        """Stream one served session's features into the live drift sketches.

        The feature set covers the three drift surfaces worth alarming on:
        *behaviour* (session CTR), *model output* (mean/top predicted score
        and the |score − CTR| calibration gap — a model can keep its score
        distribution while its calibration walks away), and *inventory
        exposure* (price/popularity of what was actually shown, which moves
        when user interests rotate onto different catalog regions).
        """
        drift = self.drift
        scores = ranking.scores[:shown]
        ctr = float(clicks.mean()) if clicks.size else 0.0
        mean_score = float(scores.mean()) if scores.size else 0.0
        drift.observe("ctr", ctr)
        drift.observe("mean_score", mean_score)
        drift.observe("top_score", float(ranking.scores[0]) if ranking.scores.size else 0.0)
        drift.observe("calibration_gap", abs(mean_score - ctr))
        shown_items = ranking.items[:shown]
        if shown_items.size:
            drift.observe("price", float(self.world.item_price_pct[shown_items].mean()))
            drift.observe(
                "popularity", float(self.world.item_popularity[shown_items].mean())
            )

    def _score_drift_and_alert(self, report: CycleReport) -> None:
        """Score this cycle's live window vs the reference; evaluate alerts.

        Runs right after serving — *before* training — so a drifted window
        alarms in the same cycle it was served, whether or not the refresh
        goes on to promote.  Scores land as a ``drift_score`` control-plane
        event; alert transitions record their own typed events.
        """
        now = self._now()
        if self.drift is not None and self.drift.has_reference:
            report.drift = self.drift.scores()
            worst_name, worst_psi = self.drift.worst()
            self.cluster.control.events.record(
                "drift_score",
                now,
                worst_feature=worst_name,
                worst_psi=round(worst_psi, 4),
                **{
                    f"psi_{name}": round(scores["psi"], 4)
                    for name, scores in report.drift.items()
                },
            )
        if self.alerts is not None:
            # Everything a rule may name: the fleet's scalars and the pooled
            # serving registry next to the trainer's metrics, SLO and drift.
            registry, extra = self.cluster.telemetry()
            extra["click_log_lag"] = float(self.click_log.lag)
            if self.trainer.metrics is not None:
                registry = registry.merge(self.trainer.metrics)
            snapshot = telemetry_snapshot(
                registry=registry, slo=self.cluster.slo, drift=self.drift, extra=extra
            )
            transitions = self.alerts.evaluate(snapshot, now)
            if transitions:
                report.alerts = [
                    {
                        "rule": transition.rule.name,
                        "action": transition.action,
                        "value": transition.value,
                    }
                    for transition in transitions
                ]
            fired = [t.rule.name for t in transitions if t.action == "fired"]
            if (
                fired
                and self._watch is not None
                and self.cycles_run < self._watch["until"]
                and self.production_version == self._watch["version"]
            ):
                self._auto_rollback(fired[0], report)
        if self._watch is not None and self.cycles_run >= self._watch["until"]:
            self._watch = None  # watch window expired cleanly

    def run_cycle(self, events: Sequence[TrafficEvent]) -> CycleReport:
        """One full refresh cycle; returns its audit report.

        A cycle with no usable feedback (no events, or no session with both
        a click and a skip) trains nothing and leaves production untouched.
        """
        if self.registry.production is None:
            raise RuntimeError("call bootstrap() before running cycles")
        cycle = self.cycles_run
        trace = self.tracer.trace("refresh", cycle=cycle)
        with trace.span("serve", events=len(events)):
            results = self.serve_and_log(events)

        lag = self.click_log.lag
        self.cluster.control.record_log_lag(lag)

        report = CycleReport(
            cycle=cycle,
            queries_served=len(results),
            sessions_logged=0,
            clicks=0,
            log_lag=lag,
            train_rows=0,
            production_version=self.production_version,
        )
        # Drift is judged on what was just *served* — before training, so a
        # drifted window alarms this cycle even if the refresh then fails.
        self._score_drift_and_alert(report)

        with trace.span("read_new") as read_span:
            records = self.click_log.read_new()
            holdout_rows = set(
                range(self.holdout_every - 1, len(records), self.holdout_every)
            )
            holdout_records = [records[i] for i in sorted(holdout_rows)]
            train_records = [
                record for i, record in enumerate(records) if i not in holdout_rows
            ]
            train_set = build_dataset(self.world, train_records, rng=self._neg_rng)
            holdout_set = build_dataset(self.world, holdout_records)
            read_span.set(
                sessions=len(records),
                train_rows=0 if train_set is None else len(train_set),
                holdout_rows=0 if holdout_set is None else len(holdout_set),
            )

        report.sessions_logged = len(records)
        report.clicks = int(sum(record.num_clicks for record in records))
        report.train_rows = 0 if train_set is None else len(train_set)
        self.cycles_run += 1
        if train_set is None:
            if self.drift is not None:
                self.drift.reset_live()
            trace.finish(promoted=False, reason="no_usable_feedback")
            self.reports.append(report)
            return report

        # Incremental warm-start training on the fresh window.
        parent = self.production_version
        window = (records[0].session_id, records[-1].session_id + 1)
        with trace.span("train", rows=len(train_set), epochs=self.trainer.config.epochs):
            self._with_retry("train", lambda: self.trainer.update(train_set, trace=trace))
        with trace.span("register") as register_span:
            entry = self.registry.register(
                self.trainer.model, parent=parent, window=window, trainer=self.trainer
            )
            register_span.set(version=self.registry.label(entry.version))
        report.candidate_version = entry.version

        # Canary: candidate vs production on the held-out sessions.  With no
        # usable holdout this cycle, promotion proceeds on the training
        # evidence alone (tiny-traffic regime; the verdict is still logged).
        if holdout_set is not None:
            with trace.span(
                "canary", version=self.registry.label(entry.version)
            ) as canary_span:
                report.canary = self._with_retry(
                    "canary",
                    lambda: self.canary.judge(
                        self.trainer.model,
                        self._production_model,
                        holdout_set,
                        trace=trace,
                    ),
                )
                canary_span.set(passed=report.canary.passed)
            passed = report.canary.passed
            # The verdict lands in the fleet's control-plane event log with
            # the candidate's label and — when the retrieval probe ran — its
            # measured cascade recall (a separate recall_probe event).
            candidate_metrics = report.canary.candidate
            recall = (
                candidate_metrics.get("retrieval_recall")
                if isinstance(candidate_metrics, dict)
                else None
            )
            self.cluster.control.record_canary(
                passed, version=self.registry.label(entry.version), recall=recall
            )
        else:
            passed = True
        if passed:
            metrics = None if report.canary is None else report.canary.candidate
            deployed = False
            with trace.span("swap", version=self.registry.label(entry.version)) as swap_span:
                self.registry.promote(entry.version, metrics=metrics)
                try:
                    self._deploy(entry.version)
                    deployed = True
                except (SwapFailed, CorruptCheckpointError) as exc:
                    # The candidate passed its canary but cannot actually
                    # serve (corrupt checkpoint, mid-swap crash).  Restore
                    # the parent everywhere and report the cycle unpromoted.
                    swap_span.set(failed=type(exc).__name__)
                    self._recover_failed_deploy(entry, parent, exc, report)
            if deployed:
                self._watch = {
                    "version": entry.version,
                    "parent": parent,
                    "until": self.cycles_run + self.watch_cycles,
                }
                if self.drift is not None:
                    # The live window just served is the click-log window the
                    # promoted candidate trained on: freeze it as the new
                    # production model's training-time reference.
                    self.drift.freeze_reference()
            passed = deployed
        else:
            with trace.span("rollback", version=self.registry.label(entry.version)):
                self.registry.reject(entry.version, metrics=report.canary.candidate)
                # Roll the training twin back to the production lineage: a
                # bad update must not become the base of the next candidate
                # (it would poison every future refresh while the registry
                # claimed clean descent from production).  Loop-managed
                # versions always carry full training state, so optimizer
                # moments roll back too.
                self.registry.load_into(parent, self.trainer.model, trainer=self.trainer)
            if self.drift is not None:
                # Production did not change; next cycle compares its own
                # window against the same reference, not an accumulation.
                self.drift.reset_live()
        report.promoted = passed
        report.production_version = self.production_version
        trace.finish(
            promoted=passed,
            version=self.registry.label(entry.version),
            sessions=len(records),
        )
        self.reports.append(report)
        return report

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
from repro.obs import NULL_TRACER, telemetry_snapshot
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

#: Every ``HOLDOUT_EVERY``-th logged session is withheld from training and
#: reserved for the canary replay (production vs candidate on identical
#: traffic).
HOLDOUT_EVERY = 5
#: Transient-failure policy of the train and canary stages: a
#: :class:`~repro.faults.TransientFault` is retried up to ``RETRY_ATTEMPTS``
#: times with exponential backoff (``RETRY_BACKOFF_S * 2**attempt``
#: seconds, advanced on the fleet's :class:`ManualClock` when it runs on
#: one, so tests pay no wall-clock).  Exhaustion re-raises — a persistently
#: failing refresh must be loud.
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.05


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
    tracer:
        Optional :class:`~repro.obs.Tracer` for **refresh-cycle traces**:
        each :meth:`run_cycle` emits one span tree (``serve → read_new →
        train [per-epoch children] → register → canary [replay +
        recall-probe children] → swap``) — the learning-loop counterpart of
        the fleet's per-request traces.
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

    The monitors and the time base come from the fleet's
    :class:`~repro.serving.FleetContext` (``cluster.ctx``):

    * ``drift`` — served sessions stream CTR, predicted scores,
      score-calibration gap, and shown-item price/popularity into its live
      sketches; each promotion freezes the live window as the new
      production model's training-time reference (that window *is* the
      click log the candidate trained on);
    * ``alerts`` — evaluated once per cycle against the merged telemetry
      snapshot (``Fleet.telemetry()`` — pooled serving registry and fleet
      scalars — trainer metrics, fleet SLO, drift scores and click-log
      lag); the fleet bound it to its control-plane event log, so alert
      transitions interleave with hot swaps and canary verdicts in one
      timeline;
    * ``clock`` — every event the loop records, every click timestamp and
      every retry backoff reads it, so a
      :class:`~repro.serving.metrics.ManualClock` in the fleet's context
      makes the whole loop replay in deterministic simulated time.
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
        seed: int = 0,
        tracer=NULL_TRACER,
        watch_cycles: int = 0,
    ) -> None:
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
        self.clock = cluster.ctx.clock
        #: The fleet's clock when it is simulated (``None`` on wall time).
        self._manual = self.clock if isinstance(self.clock, ManualClock) else None
        self.tracer = tracer
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
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return fn()
            except TransientFault as exc:
                last = exc
                self.cluster.control.events.record(
                    "retry",
                    self._now(),
                    stage=stage,
                    attempt=attempt + 1,
                    max_attempts=RETRY_ATTEMPTS,
                )
                if attempt + 1 < RETRY_ATTEMPTS:
                    self._sleep(RETRY_BACKOFF_S * (2.0**attempt))
        raise last

    def _roll_back(
        self,
        version: int,
        parent: int,
        reason: str,
        report: CycleReport,
        quarantine: Optional[str] = None,
    ) -> None:
        """Return production, the registry and the training twin to ``parent``.

        Two paths get here.  A promotion that failed partway (:meth:`_deploy`
        raised after ``promote``): a corrupt checkpoint — ``quarantine``
        carries the integrity error, the fleet was never touched — or a
        mid-swap crash the fleet already rolled back.  Or an alert fired
        inside the post-promotion watch window: ``version`` passed its
        canary but misbehaves in production, so the fleet is swapped back
        too.  Either way the registry's production pointer and the training
        twin's weights are the failed version's and are restored (left in
        place they would silently become the base of every future
        refresh), and ``version`` is quarantined or rejected.
        """
        self.registry.promote(parent)
        if quarantine is not None:
            self.registry.quarantine(version)
            self.cluster.control.events.record(
                "quarantine", self._now(), version=version, reason=quarantine
            )
        else:
            self.registry.reject(version)
        # A failed deploy left the fleet on the parent; a watch-window alert
        # finds it serving ``version``.
        if self.cluster.model_version != self.registry.label(parent):
            self._deploy(parent)
        self.registry.load_into(parent, self.trainer.model, trainer=self.trainer)
        self.cluster.control.events.record(
            "rollback", self._now(), version=version, restored=parent, reason=reason
        )
        if self.cluster.ctx.drift is not None:
            self.cluster.ctx.drift.reset_live()
        report.rollback = {
            "version": version,
            "restored": parent,
            "reason": reason,
            "quarantined": quarantine is not None,
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
            if self.cluster.ctx.drift is not None:
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
        drift = self.cluster.ctx.drift
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
        ctx = self.cluster.ctx
        if ctx.drift is not None and ctx.drift.has_reference:
            report.drift = ctx.drift.scores()
            worst_name, worst_psi = ctx.drift.worst()
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
        if ctx.alerts is not None:
            # Everything a rule may name: the fleet's scalars and the pooled
            # serving registry next to the trainer's metrics, SLO and drift.
            registry, extra = self.cluster.telemetry()
            extra["click_log_lag"] = float(self.click_log.lag)
            if self.trainer.metrics is not None:
                registry = registry.merge(self.trainer.metrics)
            snapshot = telemetry_snapshot(
                registry=registry, slo=ctx.slo, drift=ctx.drift, extra=extra
            )
            transitions = ctx.alerts.evaluate(snapshot, now)
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
            watch = self._watch
            if (
                fired
                and watch is not None
                and self.cycles_run < watch["until"]
                and self.production_version == watch["version"]
            ):
                self._watch = None
                if watch["parent"] is not None:  # a bootstrap has nothing to return to
                    self._roll_back(
                        watch["version"], watch["parent"], f"alert:{fired[0]}", report
                    )
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
            holdout_rows = set(range(HOLDOUT_EVERY - 1, len(records), HOLDOUT_EVERY))
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
        drift = self.cluster.ctx.drift
        if train_set is None:
            if drift is not None:
                drift.reset_live()
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
                    corrupt = isinstance(exc, CorruptCheckpointError)
                    self._roll_back(
                        entry.version, parent, f"deploy_failed:{type(exc).__name__}",
                        report, quarantine=str(exc)[:200] if corrupt else None,
                    )
            if deployed:
                self._watch = {
                    "version": entry.version,
                    "parent": parent,
                    "until": self.cycles_run + self.watch_cycles,
                }
                if drift is not None:
                    # The live window just served is the click-log window the
                    # promoted candidate trained on: freeze it as the new
                    # production model's training-time reference.
                    drift.freeze_reference()
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
            if drift is not None:
                # Production did not change; next cycle compares its own
                # window against the same reference, not an accumulation.
                drift.reset_live()
        report.promoted = passed
        report.production_version = self.production_version
        trace.finish(
            promoted=passed,
            version=self.registry.label(entry.version),
            sessions=len(records),
        )
        self.reports.append(report)
        return report

"""Declarative alerting over the fleet's telemetry.

Dashboards answer "what is happening"; alerts answer "should a human look".
:class:`AlertRule` is a predicate over one scalar in a flat **telemetry
snapshot** — metric values and histogram quantiles from a
:class:`~repro.obs.streaming.MetricsRegistry`, SLO burn rate from a
:class:`~repro.obs.slo.SloTracker`, and PSI scores from a
:class:`~repro.obs.drift.DriftMonitor` — and :class:`AlertManager` evaluates
every rule against each snapshot with **hysteresis**: a rule must breach
``for_count`` consecutive evaluations before it fires and must clear
``clear_count`` consecutive evaluations before it resolves, so a single
noisy window neither pages nor flaps.

Transitions land as typed ``alert_fired`` / ``alert_resolved`` events in an
:class:`~repro.obs.events.EventLog` — the same control-plane log that holds
hot swaps and canary verdicts, so ``fleet_report()``'s event tail interleaves
"the model swapped" with "drift alarmed" in one timeline.

Rules parse from a one-line declarative syntax (used by configs, tests, and
the README runbook)::

    drift_psi_ctr > 0.25 for 2
    ctr-drift: drift_psi_ctr > 0.25 for 2 clear 3 severity critical

``<metric> <op> <threshold>`` with optional ``for N`` (breaches to fire),
``clear N`` (clears to resolve), ``severity S``, and an optional leading
``name:`` label.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.events import EventLog
from repro.obs.slo import SloTracker
from repro.obs.streaming import Counter, Gauge, MetricsRegistry, StreamingHistogram

__all__ = ["AlertRule", "AlertTransition", "AlertManager", "telemetry_snapshot"]

_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}

_RULE_RE = re.compile(
    r"^\s*(?:(?P<name>[\w.-]+)\s*:)?\s*"
    r"(?P<metric>[A-Za-z_:][\w:.]*)\s*"
    r"(?P<op><=|>=|<|>)\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
    r"(?:\s+for\s+(?P<for_count>\d+))?"
    r"(?:\s+clear\s+(?P<clear_count>\d+))?"
    r"(?:\s+severity\s+(?P<severity>\w+))?\s*$"
)


@dataclass(frozen=True)
class AlertRule:
    """One threshold predicate over a snapshot scalar, with hysteresis."""

    name: str
    metric: str
    op: str
    threshold: float
    for_count: int = 1
    clear_count: int = 1
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; known: {sorted(_OPS)}")
        if self.for_count < 1:
            raise ValueError(f"for_count must be >= 1, got {self.for_count}")
        if self.clear_count < 1:
            raise ValueError(f"clear_count must be >= 1, got {self.clear_count}")

    def breached(self, value: float) -> bool:
        return _OPS[self.op](float(value), self.threshold)

    @staticmethod
    def parse(text: str) -> "AlertRule":
        """Parse the declarative one-line rule syntax (see module doc)."""
        match = _RULE_RE.match(text)
        if match is None:
            raise ValueError(
                f"unparseable alert rule {text!r}; expected "
                "'[name:] <metric> <op> <threshold> [for N] [clear N] [severity S]'"
            )
        groups = match.groupdict()
        return AlertRule(
            name=groups["name"] or groups["metric"],
            metric=groups["metric"],
            op=groups["op"],
            threshold=float(groups["threshold"]),
            for_count=int(groups["for_count"] or 1),
            clear_count=int(groups["clear_count"] or 1),
            severity=groups["severity"] or "warning",
        )


@dataclass
class AlertTransition:
    """One fire/resolve edge produced by an evaluation."""

    rule: AlertRule
    action: str  # "fired" | "resolved"
    value: Optional[float]
    timestamp: float


@dataclass
class _RuleState:
    breach_streak: int = 0
    clear_streak: int = 0
    firing: bool = False
    last_value: Optional[float] = None
    fired_count: int = 0
    resolved_count: int = 0


def telemetry_snapshot(
    registry: Optional[MetricsRegistry] = None,
    slo: Optional[SloTracker] = None,
    drift: Optional[Dict[str, Dict[str, float]]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Flatten the fleet's telemetry into the scalar namespace rules see.

    * counters/gauges → ``<name>``;
    * histograms → ``<name>_p50`` / ``_p95`` / ``_p99`` / ``_mean`` /
      ``_count``;
    * SLO → ``slo_p99_ms``, ``slo_violation_rate``, ``slo_burn_rate``;
    * drift — per-feature scores as :meth:`~repro.obs.drift.DriftMonitor.scores` returns
      them, already computed by the caller (PSI is scored once per cycle)
      → ``drift_psi_<feature>``, plus the headline ``drift_psi_worst``;
    * ``extra`` merges last (the online loop injects
      ``Fleet.telemetry()``'s scalars — worker / breaker / shed,
      ``retrieval_recall_at_k`` — and click-log lag).
    """
    snapshot: Dict[str, float] = {}
    if registry is not None:
        for name, metric in registry:
            if isinstance(metric, (Counter, Gauge)):
                snapshot[name] = float(metric.value)
            elif isinstance(metric, StreamingHistogram):
                snapshot[f"{name}_count"] = float(metric.count)
                snapshot[f"{name}_mean"] = metric.mean
                if metric.count:
                    snapshot[f"{name}_p50"] = metric.quantile(50)
                    snapshot[f"{name}_p95"] = metric.quantile(95)
                    snapshot[f"{name}_p99"] = metric.quantile(99)
    if slo is not None:
        status = slo.status()
        snapshot["slo_p99_ms"] = float(status["p99_ms"])
        snapshot["slo_violation_rate"] = float(status["violation_rate"])
        snapshot["slo_burn_rate"] = float(status["error_budget_burn_rate"])
    if drift is not None:
        worst_psi = 0.0
        for feature, scores in drift.items():
            snapshot[f"drift_psi_{feature}"] = scores["psi"]
            worst_psi = max(worst_psi, scores["psi"])
        snapshot["drift_psi_worst"] = worst_psi
    if extra:
        for name, value in extra.items():
            snapshot[name] = float(value)
    return snapshot


class AlertManager:
    """Evaluate a rule set against successive telemetry snapshots.

    Parameters
    ----------
    rules:
        :class:`AlertRule` instances or declarative rule strings (parsed via
        :meth:`AlertRule.parse`).
    events:
        Optional :class:`~repro.obs.events.EventLog`; fire/resolve
        transitions are recorded there as ``alert_fired`` /
        ``alert_resolved`` events.  The online loop binds this to the
        cluster's control-plane log so alerts share the deployment timeline.
    """

    def __init__(
        self,
        rules: Sequence[Any] = (),
        events: Optional[EventLog] = None,
    ) -> None:
        self.rules: List[AlertRule] = []
        self.events = events
        self._states: Dict[str, _RuleState] = {}
        self.evaluations = 0
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: Any) -> AlertRule:
        if isinstance(rule, str):
            rule = AlertRule.parse(rule)
        if not isinstance(rule, AlertRule):
            raise TypeError(f"expected AlertRule or rule string, got {type(rule).__name__}")
        if rule.name in self._states:
            raise ValueError(f"duplicate alert rule name {rule.name!r}")
        self.rules.append(rule)
        self._states[rule.name] = _RuleState()
        return rule

    def evaluate(self, snapshot: Dict[str, float], now: float) -> List[AlertTransition]:
        """One evaluation pass; returns the fire/resolve edges it produced.

        A metric absent from the snapshot counts as healthy — no data is
        not an incident (the drift monitor reports nothing before its first
        reference freeze, and that must not page).
        """
        self.evaluations += 1
        transitions: List[AlertTransition] = []
        for rule in self.rules:
            state = self._states[rule.name]
            value = snapshot.get(rule.metric)
            state.last_value = None if value is None else float(value)
            breached = value is not None and rule.breached(value)
            if breached:
                state.breach_streak += 1
                state.clear_streak = 0
                if not state.firing and state.breach_streak >= rule.for_count:
                    state.firing = True
                    state.fired_count += 1
                    transitions.append(AlertTransition(rule, "fired", state.last_value, now))
                    if self.events is not None:
                        self.events.record(
                            "alert_fired",
                            now,
                            rule=rule.name,
                            metric=rule.metric,
                            value=state.last_value,
                            threshold=rule.threshold,
                            op=rule.op,
                            severity=rule.severity,
                        )
            else:
                state.clear_streak += 1
                state.breach_streak = 0
                if state.firing and state.clear_streak >= rule.clear_count:
                    state.firing = False
                    state.resolved_count += 1
                    transitions.append(AlertTransition(rule, "resolved", state.last_value, now))
                    if self.events is not None:
                        self.events.record(
                            "alert_resolved",
                            now,
                            rule=rule.name,
                            metric=rule.metric,
                            value=state.last_value,
                            threshold=rule.threshold,
                            severity=rule.severity,
                        )
        return transitions

    def status(self) -> List[Dict[str, Any]]:
        """One row per rule (dashboard / report table)."""
        return [
            {
                "rule": rule.name,
                "metric": rule.metric,
                "op": rule.op,
                "threshold": rule.threshold,
                "severity": rule.severity,
                "firing": self._states[rule.name].firing,
                "last_value": self._states[rule.name].last_value,
                "fired_count": self._states[rule.name].fired_count,
                "resolved_count": self._states[rule.name].resolved_count,
            }
            for rule in self.rules
        ]

"""Fleet dashboard: one self-contained HTML file from the telemetry objects.

Everything the fleet knows about itself — streaming metrics, SLO status,
control-plane events, drift scores, shadow recall, alert states, and a few
sampled refresh/request span trees — rendered into a single HTML document
with inline CSS and zero external references, so the file works as a CI
artifact, an email attachment, or a ``file://`` open on a laptop with no
server and no network.

The renderer is deliberately dumb: it takes the same objects the text
``fleet_report()`` reads (plus optional drift/alert/shadow monitors) and
lays them out as tables, definition lists and pure-CSS bar charts.  Span
trees render as nested ``<details>`` elements — click to fold — with
per-span duration bars scaled to the trace's critical path.
"""

from __future__ import annotations

import html
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.events import EventLog
from repro.obs.slo import SloTracker
from repro.obs.streaming import Counter, Gauge, MetricsRegistry, StreamingHistogram

__all__ = ["render_dashboard", "write_dashboard"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2rem;
       background: #fafafa; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 2rem;
     border-bottom: 2px solid #d0d0e0; padding-bottom: 0.3rem; }
table { border-collapse: collapse; margin: 0.6rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #d8d8e8; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #eef0f8; }
tr.firing td { background: #ffe3e3; }
tr.ok td { background: #e7f7ec; }
.bar { display: inline-block; height: 0.65rem; background: #5b7cfa;
       border-radius: 2px; vertical-align: middle; }
.bar.warn { background: #e8833a; }
details { margin-left: 1.1rem; font-size: 0.85rem; }
details.trace { margin-left: 0; margin-bottom: 0.8rem; border-left: 3px solid #d0d0e0;
                padding-left: 0.6rem; }
summary { cursor: pointer; font-family: ui-monospace, monospace; }
.dur { color: #666; } .attrs { color: #888; font-size: 0.78rem; }
.pill { display: inline-block; padding: 0.05rem 0.5rem; border-radius: 999px;
        font-size: 0.75rem; font-weight: 600; }
.pill.ok { background: #c9eed4; color: #14532d; }
.pill.bad { background: #fdd3d3; color: #7f1d1d; }
footer { margin-top: 2.5rem; color: #999; font-size: 0.75rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _plain(value: Any) -> str:
    """Number-aware str() with NO escaping — for strings that will be
    escaped exactly once later (table cells, attr summaries)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.4g}"


def _fmt(value: Any) -> str:
    return html.escape(_plain(value))


def _table(headers: Sequence[str], rows: Iterable[Sequence[Any]], row_classes=None) -> str:
    row_classes = row_classes or []
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body: List[str] = []
    for index, row in enumerate(rows):
        cls = f' class="{row_classes[index]}"' if index < len(row_classes) else ""
        cells = "".join(f"<td>{cell if str(cell).startswith('<span') else _fmt(cell)}</td>"
                        for cell in row)
        body.append(f"<tr{cls}>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


def _bar(fraction: float, warn: bool = False, width_px: int = 140) -> str:
    fraction = min(max(float(fraction), 0.0), 1.0)
    cls = "bar warn" if warn else "bar"
    return f'<span class="{cls}" style="width:{fraction * width_px:.0f}px"></span>'


def _summary_section(summary: Mapping[str, Any]) -> str:
    rows = [[key, _fmt(value)] for key, value in summary.items()
            if isinstance(value, (int, float, str, bool))]
    return "<h2>Fleet summary</h2>" + _table(["key", "value"], rows)


def _registry_section(registry: MetricsRegistry) -> str:
    counter_rows: List[List[Any]] = []
    gauge_rows: List[List[Any]] = []
    hist_rows: List[List[Any]] = []
    for name, metric in sorted(registry, key=lambda item: item[0]):
        if isinstance(metric, Counter):
            counter_rows.append([name, metric.value])
        elif isinstance(metric, Gauge):
            gauge_rows.append([name, _fmt(metric.value)])
        elif isinstance(metric, StreamingHistogram):
            snap = metric.to_dict()
            hist_rows.append([
                name, snap["count"], _fmt(snap["mean"]), _fmt(snap["p50"]),
                _fmt(snap["p95"]), _fmt(snap["p99"]), _fmt(snap["max"]),
            ])
    parts = ["<h2>Metrics</h2>"]
    if hist_rows:
        parts.append(_table(["histogram", "count", "mean", "p50", "p95", "p99", "max"], hist_rows))
    if gauge_rows:
        parts.append(_table(["gauge", "value"], gauge_rows))
    if counter_rows:
        parts.append(_table(["counter", "value"], counter_rows))
    return "".join(parts)


def _slo_section(slo: SloTracker) -> str:
    status = slo.status()
    healthy = bool(status["healthy"])
    pill = '<span class="pill ok">HEALTHY</span>' if healthy else '<span class="pill bad">BURNING</span>'
    rows = [[key, _fmt(value)] for key, value in status.items() if key != "healthy"]
    return f"<h2>SLO {pill}</h2>" + _table(["key", "value"], rows)


def _events_section(events: EventLog, tail: int = 20) -> str:
    rows = [
        [f"{event.timestamp:.3f}", event.kind,
         ", ".join(f"{k}={_plain(v)}" for k, v in event.attrs.items())]
        for event in events.tail(tail)
    ]
    counts = ", ".join(f"{kind}: {count}" for kind, count in sorted(events.counts().items()))
    section = f"<h2>Control-plane events</h2><p class='attrs'>totals — {_esc(counts)}</p>"
    if rows:
        section += _table(["t", "kind", "attrs"], rows)
    return section


def _drift_section(drift: Any) -> str:
    snapshot = drift.to_dict()
    rows: List[List[Any]] = []
    classes: List[str] = []
    for feature, scores in sorted(snapshot["features"].items()):
        psi = scores["psi"]
        rows.append([
            feature, _fmt(psi), _bar(psi / 0.5, warn=psi > 0.25), _fmt(scores["ks"]),
            scores["live_samples"], scores["reference_samples"],
        ])
        classes.append("firing" if psi > 0.25 else "")
    header = "<h2>Drift (live vs training reference)</h2>"
    if not snapshot["has_reference"]:
        return header + "<p class='attrs'>no reference frozen yet — scores appear after the first promotion</p>"
    meta = (f"<p class='attrs'>reference window: {snapshot['reference_samples']} samples, "
            f"{snapshot['freezes']} freeze(s); worst feature: "
            f"{_esc(snapshot['worst_feature'])} (PSI {_fmt(snapshot['worst_psi'])})</p>")
    return header + meta + _table(
        ["feature", "PSI", "", "KS", "live n", "ref n"], rows, row_classes=classes
    )


def _alerts_section(alerts: Any) -> str:
    rows: List[List[Any]] = []
    classes: List[str] = []
    for row in alerts.status():
        state = '<span class="pill bad">FIRING</span>' if row["firing"] else '<span class="pill ok">ok</span>'
        rows.append([
            row["rule"], f"{row['metric']} {row['op']} {_fmt(row['threshold'])}",
            row["severity"],
            "—" if row["last_value"] is None else _fmt(row["last_value"]),
            row["fired_count"], state,
        ])
        classes.append("firing" if row["firing"] else "ok")
    return "<h2>Alerts</h2>" + _table(
        ["rule", "predicate", "severity", "last value", "times fired", "state"],
        rows, row_classes=classes,
    )


def _resilience_section(
    breakers: Optional[Sequence[Mapping[str, Any]]],
    tiers: Optional[Mapping[str, int]],
) -> str:
    parts = ["<h2>Resilience</h2>"]
    if tiers is not None:
        total = sum(tiers.values()) or 1
        tier_rows = []
        tier_classes = []
        for tier in ("full", "prefilter", "popularity"):
            count = int(tiers.get(tier, 0))
            share = count / total
            tier_rows.append([tier, count, f"{share:.2%}", _bar(share, warn=tier != "full")])
            tier_classes.append("" if tier == "full" or count == 0 else "firing")
        parts.append(_table(
            ["tier", "responses", "share", ""], tier_rows, row_classes=tier_classes
        ))
    if breakers:
        rows = []
        classes = []
        for entry in breakers:
            state = str(entry.get("state", "closed"))
            pill = (
                '<span class="pill ok">closed</span>'
                if state == "closed"
                else f'<span class="pill bad">{_esc(state)}</span>'
            )
            rows.append([
                entry.get("shard", "—"), pill, entry.get("opens", 0),
                entry.get("failures", 0), entry.get("successes", 0),
            ])
            classes.append("ok" if state == "closed" else "firing")
        parts.append(_table(
            ["shard", "breaker", "opens", "failures", "successes"],
            rows, row_classes=classes,
        ))
    return "".join(parts)


def _shadow_section(shadow: Any) -> str:
    stats = shadow.stats()
    rows = [[key, _fmt(value) if value is not None else "—"] for key, value in stats.items()]
    return "<h2>Shadow-sampled live recall</h2>" + _table(["key", "value"], rows)


def _span_tree(record: Mapping[str, Any]) -> str:
    spans = record.get("spans", [])
    children: Dict[Optional[int], List[Mapping[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    total_ms = max(float(record.get("duration_ms") or 0.0), 1e-9)

    def render(span: Mapping[str, Any]) -> str:
        duration = span.get("duration_ms")
        dur_txt = "—" if duration is None else f"{duration:.2f} ms"
        bar = _bar((duration or 0.0) / total_ms, width_px=120)
        attrs = span.get("attrs") or {}
        attr_txt = " ".join(f"{k}={_plain(v)}" for k, v in attrs.items())
        kids = children.get(span["id"], [])
        label = (f"<summary>{_esc(span['name'])} <span class='dur'>{dur_txt}</span> {bar} "
                 f"<span class='attrs'>{_esc(attr_txt)}</span></summary>")
        if not kids:
            return f"<details open>{label}</details>"
        return f"<details open>{label}{''.join(render(kid) for kid in kids)}</details>"

    roots = children.get(None, [])
    trace_attrs = " ".join(f"{k}={_plain(v)}" for k, v in (record.get("attrs") or {}).items())
    head = (f"<summary><b>{_esc(record.get('name', 'trace'))}</b> "
            f"#{_esc(record.get('trace_id'))} — {float(record.get('duration_ms') or 0):.2f} ms "
            f"<span class='attrs'>{_esc(trace_attrs)}</span></summary>")
    return f"<details class='trace' open>{head}{''.join(render(root) for root in roots)}</details>"


def _traces_section(traces: Sequence[Mapping[str, Any]], limit: int = 5) -> str:
    shown = list(traces)[-limit:]
    parts = [f"<h2>Sampled traces ({len(shown)} of {len(list(traces))} retained)</h2>"]
    parts.extend(_span_tree(record) for record in shown)
    return "".join(parts)


def render_dashboard(
    title: str = "repro fleet",
    summary: Optional[Mapping[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
    slo: Optional[SloTracker] = None,
    events: Optional[EventLog] = None,
    drift: Optional[Any] = None,
    alerts: Optional[Any] = None,
    shadow: Optional[Any] = None,
    traces: Optional[Sequence[Mapping[str, Any]]] = None,
    generated_at: Optional[str] = None,
    breakers: Optional[Sequence[Mapping[str, Any]]] = None,
    tiers: Optional[Mapping[str, int]] = None,
) -> str:
    """Render every supplied telemetry object into one HTML document.

    All panels are optional; omitted ones simply do not render.  ``traces``
    takes JSON trace records (``Trace.to_dict()`` form — e.g. a
    :class:`~repro.obs.trace.Tracer`'s ``finished`` ring).  ``breakers``
    takes per-shard circuit-breaker status rows (``Fleet.
    breaker_status()``) and ``tiers`` the degradation-tier response counts;
    together they render the resilience panel.
    """
    sections: List[str] = []
    if summary:
        sections.append(_summary_section(summary))
    if alerts is not None:
        sections.append(_alerts_section(alerts))
    if breakers or tiers:
        sections.append(_resilience_section(breakers, tiers))
    if drift is not None:
        sections.append(_drift_section(drift))
    if shadow is not None:
        sections.append(_shadow_section(shadow))
    if slo is not None:
        sections.append(_slo_section(slo))
    if registry is not None and len(registry):
        sections.append(_registry_section(registry))
    if events is not None and (len(events) or events.recorded):
        sections.append(_events_section(events))
    if traces:
        sections.append(_traces_section(traces))
    stamp = f"<footer>generated {_esc(generated_at)}</footer>" if generated_at else "<footer></footer>"
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{''.join(sections)}{stamp}</body></html>"
    )


def write_dashboard(path: str, **kwargs: Any) -> str:
    """Render and write the dashboard; returns the path for chaining."""
    document = render_dashboard(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return str(path)

"""The fleet report: one section list, rendered as text or as HTML.

:func:`report_sections` turns one ``Fleet.summary()`` snapshot — headline
metrics, per-shard rows, degradation ladder, breakers, SLO, tracer and
shadow-recall stats, drift scores, alert states, the metrics registry and
the control-plane event tail — into a list of :class:`Section` (title,
headers, rows, per-row flags, note).  Nothing else decides what an operator
sees, so the two back-ends cannot disagree:

* :func:`render_text` — aligned ASCII tables, what ``fleet_report()``
  prints after a traffic run;
* :func:`render_dashboard` — a single HTML document with inline CSS and
  zero external references, so the file works as a CI artifact, an email
  attachment, or a ``file://`` open on a laptop with no server and no
  network.  Flagged rows are tinted, :class:`Bar` cells become pure-CSS
  bars.

Sampled span trees are the one HTML-only panel (``traces``): nested
``<details>`` elements — click to fold — with per-span duration bars scaled
to the trace's critical path.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.utils.tables import format_table

__all__ = [
    "Bar",
    "Section",
    "report_sections",
    "render_text",
    "render_dashboard",
    "write_dashboard",
]

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
p.ok { color: #14532d; } p.firing { color: #7f1d1d; }
"""

#: PSI above this is the conventional "significant shift" line.
_PSI_ALARM = 0.25


class Bar(NamedTuple):
    """A table cell drawn as a horizontal bar (``fraction`` of full width)."""

    fraction: float
    warn: bool = False


@dataclass
class Section:
    """One panel of the report, back-end neutral.  ``flags`` marks rows
    (``"firing"`` / ``"ok"`` / ``""``, shorter than ``rows`` is fine);
    a section without ``headers`` is just its title and ``note``, and its
    first flag marks the note."""

    title: str
    headers: Sequence[str] = ()
    rows: Sequence[Sequence[Any]] = ()
    flags: Sequence[str] = ()
    note: str = ""


def _attrs(attrs: Mapping[str, Any]) -> str:
    return ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in attrs.items()
    )


def report_sections(summary: Mapping[str, Any]) -> List[Section]:
    """Every panel ``summary`` (a ``Fleet.summary()`` snapshot) has data
    for, in display order; a key that is absent or ``None`` is skipped."""
    sections: List[Section] = []
    if "num_shards" in summary:
        latency = summary["latency_ms"]
        title = f"fleet — {summary['num_shards']} shard(s), model {summary['model_version']}"
        if summary["slab_bytes"]:
            title += (
                f", generation {summary['generation']},"
                f" slab {summary['slab_bytes'] / 1024:.0f} KiB"
                f" in {summary['slab']['arrays']} arrays"
            )
        sections.append(Section(
            title,
            ["queries", "qps", "p50 ms", "p95 ms", "p99 ms", "mean batch", "cache hit"],
            [[
                summary["queries"],
                f"{summary['qps']:.0f}",
                f"{latency['p50']:.2f}",
                f"{latency['p95']:.2f}",
                f"{latency['p99']:.2f}",
                f"{summary['mean_batch_size']:.2f}",
                f"{summary['cache']['hit_rate']:.1%}",
            ]],
        ))
    if summary.get("shards"):
        # A shard that is down has reported nothing: dashes, and a flag.
        sections.append(Section(
            "per-shard",
            ["shard", "state", "pid", "gen", "restarts", "outstanding",
             "queries", "avg ms", "cache hit"],
            [
                [
                    row["shard"], row["state"], row["pid"] or "-",
                    row["generation"], row["restarts"], row["outstanding"],
                    *(
                        [row["queries"], f"{row['avg_latency_ms']:.2f}",
                         f"{row['cache_hit_rate']:.1%}"]
                        if "queries" in row
                        else ["-"] * 3
                    ),
                ]
                for row in summary["shards"]
            ],
            ["" if "queries" in row else "firing" for row in summary["shards"]],
        ))
    degradation = summary.get("degradation")
    if degradation is not None:
        tiers = degradation["tiers"]
        total = sum(tiers.values()) or 1
        counts = [(tier, int(tiers.get(tier, 0))) for tier in ("full", "prefilter", "popularity")]
        note = f"shed {degradation['shed']} | degraded share {degradation['degraded_share']:.2%}"
        if "telemetry" in summary:
            note += f" | open breakers {summary['telemetry']['open_breakers']:.0f}"
        sections.append(Section(
            "degradation ladder",
            ["tier", "responses", "share", ""],
            [
                [tier, count, f"{count / total:.2%}", Bar(count / total, warn=tier != "full")]
                for tier, count in counts
            ],
            ["firing" if tier != "full" and count else "" for tier, count in counts],
            note,
        ))
    if summary.get("breakers"):
        sections.append(Section(
            "circuit breakers",
            ["shard", "state", "opens", "failures", "successes"],
            [
                [row["shard"], row["state"], row["opens"], row["failures"], row["successes"]]
                for row in summary["breakers"]
            ],
            ["ok" if row["state"] == "closed" else "firing" for row in summary["breakers"]],
        ))
    slo = summary.get("slo")
    if slo is not None:
        sections.append(Section(
            "SLO",
            flags=["ok" if slo["healthy"] else "firing"],
            note=(
                f"p99 {slo['p99_ms']:.2f} ms vs {slo['latency_slo_ms']:.2f} ms"
                f" | violation rate {slo['violation_rate']:.2%}"
                f" | error-budget burn {slo['error_budget_burn_rate']:.2f}x"
                f" | {'HEALTHY' if slo['healthy'] else 'BURNING'}"
            ),
        ))
    tracer = summary.get("tracer")
    if tracer is not None:
        sections.append(Section(
            "tracing",
            note=(
                f"{tracer['sampled']}/{tracer['started']} requests sampled"
                f" (rate {tracer['sample_rate']:.2f}), {tracer['exported']} exported"
            ),
        ))
    shadow = summary.get("shadow_recall")
    if shadow is not None and shadow["samples"]:
        sections.append(Section(
            f"shadow recall@{shadow['k']}",
            note=(
                f"{shadow['recall_at_k']:.4f} over {shadow['samples']}/{shadow['requests']}"
                f" sampled retrievals (rate {shadow['rate']:.3%}), p50 {shadow['p50']:.4f}"
            ),
        ))
    drift = summary.get("drift")
    if drift is not None:
        title = "drift vs training reference"
        if not drift["has_reference"]:
            sections.append(Section(
                title, note="no reference frozen yet — scores appear after the first promotion"
            ))
        else:
            features = sorted(drift["features"].items())
            sections.append(Section(
                title,
                ["feature", "psi", "", "ks", "live n", "ref n"],
                [
                    [
                        name, f"{scores['psi']:.4f}",
                        Bar(scores["psi"] / (2 * _PSI_ALARM), warn=scores["psi"] > _PSI_ALARM),
                        f"{scores['ks']:.4f}", scores["live_samples"],
                        scores["reference_samples"],
                    ]
                    for name, scores in features
                ],
                ["firing" if scores["psi"] > _PSI_ALARM else "" for _, scores in features],
                f"reference window: {drift['reference_samples']} samples,"
                f" {drift['freezes']} freeze(s); worst feature: {drift['worst_feature']}"
                f" (PSI {drift['worst_psi']:.4f})",
            ))
    alerts = summary.get("alerts")
    if alerts:
        sections.append(Section(
            f"alerts — {sum(1 for row in alerts if row['firing'])} firing",
            ["rule", "predicate", "severity", "last value", "times fired", "state"],
            [
                [
                    row["rule"],
                    f"{row['metric']} {row['op']} {row['threshold']:g}",
                    row["severity"],
                    "-" if row["last_value"] is None else f"{row['last_value']:.4f}",
                    row["fired_count"],
                    "FIRING" if row["firing"] else "ok",
                ]
                for row in alerts
            ],
            ["firing" if row["firing"] else "ok" for row in alerts],
        ))
    metrics = sorted((summary.get("metrics") or {}).items())
    histograms = [(name, m) for name, m in metrics if m["type"] == "histogram"]
    if histograms:
        stats = ("mean", "p50", "p95", "p99", "max")
        sections.append(Section(
            "metrics — histograms",
            ["histogram", "count", *stats],
            [[name, m["count"], *(f"{m[key]:.4g}" for key in stats)] for name, m in histograms],
        ))
    if len(metrics) > len(histograms):
        sections.append(Section(
            "metrics — counters and gauges",
            ["metric", "type", "value"],
            [
                [name, m["type"], f"{m['value']:.4g}" if m["type"] == "gauge" else m["value"]]
                for name, m in metrics
                if m["type"] != "histogram"
            ],
        ))
    if summary.get("event_tail"):
        sections.append(Section(
            "recent control-plane events",
            ["t", "kind", "attrs"],
            [
                [f"{event['timestamp']:.3f}", event["kind"], _attrs(event["attrs"])]
                for event in summary["event_tail"]
            ],
            note="totals — " + ", ".join(
                f"{kind}: {count}" for kind, count in sorted(summary.get("events", {}).items())
            ),
        ))
    return sections


# ----------------------------------------------------------------------
# text back-end
# ----------------------------------------------------------------------
def render_text(sections: Sequence[Section]) -> str:
    """The sections as aligned ASCII tables, blank-line separated."""
    blocks: List[str] = []
    for section in sections:
        if not section.headers:
            blocks.append(f"{section.title}: {section.note}")
            continue
        rows = [
            ["#" * round(10 * min(max(cell.fraction, 0.0), 1.0)) if isinstance(cell, Bar) else cell
             for cell in row]
            for row in section.rows
        ]
        block = format_table(section.headers, rows, title=section.title)
        blocks.append(f"{block}\n{section.note}" if section.note else block)
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# HTML back-end
# ----------------------------------------------------------------------
def _esc(value: Any) -> str:
    return html.escape(str(value))


def _bar(fraction: float, warn: bool = False, width_px: int = 140) -> str:
    fraction = min(max(float(fraction), 0.0), 1.0)
    cls = "bar warn" if warn else "bar"
    return f'<span class="{cls}" style="width:{fraction * width_px:.0f}px"></span>'


def _section_html(section: Section) -> str:
    parts = [f"<h2>{_esc(section.title)}</h2>"]
    if section.note:
        flag = section.flags[0] if section.flags and not section.headers else ""
        parts.append(f"<p class='attrs {flag}'>{_esc(section.note)}</p>")
    if section.headers:
        body: List[str] = []
        for index, row in enumerate(section.rows):
            flag = section.flags[index] if index < len(section.flags) else ""
            cells = "".join(
                f"<td>{_bar(*cell) if isinstance(cell, Bar) else _esc(cell)}</td>" for cell in row
            )
            body.append(f'<tr class="{flag}">{cells}</tr>')
        head = "".join(f"<th>{_esc(header)}</th>" for header in section.headers)
        parts.append(f"<table><tr>{head}</tr>{''.join(body)}</table>")
    return "".join(parts)


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
        kids = children.get(span["id"], [])
        label = (f"<summary>{_esc(span['name'])} <span class='dur'>{dur_txt}</span> {bar} "
                 f"<span class='attrs'>{_esc(_attrs(span.get('attrs') or {}))}</span></summary>")
        return f"<details open>{label}{''.join(render(kid) for kid in kids)}</details>"

    roots = children.get(None, [])
    head = (f"<summary><b>{_esc(record.get('name', 'trace'))}</b> "
            f"#{_esc(record.get('trace_id'))} — {float(record.get('duration_ms') or 0):.2f} ms "
            f"<span class='attrs'>{_esc(_attrs(record.get('attrs') or {}))}</span></summary>")
    return f"<details class='trace' open>{head}{''.join(render(root) for root in roots)}</details>"


def render_dashboard(
    sections: Sequence[Section] = (),
    title: str = "repro fleet",
    traces: Optional[Sequence[Mapping[str, Any]]] = None,
) -> str:
    """The sections as one self-contained HTML document.  ``traces`` takes
    JSON trace records (``Trace.to_dict()`` form — e.g. a
    :class:`~repro.obs.trace.Tracer`'s ``finished`` ring); the last five
    render as span trees below the sections."""
    body = [_section_html(section) for section in sections]
    if traces:
        shown = list(traces)[-5:]
        body.append(f"<h2>Sampled traces ({len(shown)} of {len(traces)} retained)</h2>")
        body.extend(_span_tree(record) for record in shown)
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{''.join(body)}</body></html>"
    )


def write_dashboard(path: str, sections: Sequence[Section] = (), **kwargs: Any) -> str:
    """Render and write the dashboard; returns the path for chaining."""
    document = render_dashboard(sections, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return str(path)

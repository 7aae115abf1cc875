"""Shared helpers for the benchmarks: table building and the kernel-share gate."""

from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.data.dataset import RankingDataset
from repro.eval import paired_bootstrap_pvalue
from repro.eval.auc import session_auc, session_auc_at_k
from repro.eval.evaluator import predict_scores
from repro.eval.ndcg import session_ndcg
from repro.utils import format_float, print_table


#: Share points a step may gain on its baseline before the gate fails.
SHARE_FAIL_DELTA = 0.25


class TraceCollector(list):
    """A trace exporter that keeps every finished record in memory."""

    export = list.append


def kernel_profile(traces: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Per-kernel rows, ``{plan: {step: {op, flops, calls, ms, share}}}``,
    from exported trace records.

    Each trace's top-level spans are one parent per plan, named after it;
    their children are the kernel spans :func:`repro.obs.kernel_span_hook`
    recorded (``flops`` is per output row).  A step's ``share`` is its
    summed span time over the summed time of its plan's kernels, so a
    plan's shares add up to 1.
    """
    profile: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for record in traces:
        plans = {span["id"]: span["name"] for span in record["spans"] if span["parent"] is None}
        for span in record["spans"]:
            plan = plans.get(span["parent"])
            if plan is None:
                continue
            attrs = span["attrs"]
            row = profile.setdefault(plan, {}).setdefault(
                span["name"], {"op": attrs["kind"], "flops": attrs["flops"], "calls": 0, "ms": 0.0}
            )
            row["calls"] += 1
            row["ms"] += span["duration_ms"]
    for steps in profile.values():
        total = sum(row["ms"] for row in steps.values())
        for row in steps.values():
            row["share"] = row["ms"] / total if total > 0 else 0.0
    return profile


def compare_profile_shares(
    shares: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> None:
    """Gate on per-kernel time *shares* from the kernel spans.

    Both arguments map ``{plan: {step: share}}``, a share being the step's
    fraction of its plan's wall time within one run — the one profile
    quantity that does not move with the CPU: absolute kernel times do, but
    one kernel suddenly eating a much larger slice of its plan is a code
    regression.  Raises ``AssertionError`` naming every step whose share
    grew more than :data:`SHARE_FAIL_DELTA` over ``baseline``, and every
    step present on one side only (a renamed, added or removed kernel has
    no share to compare: refresh the baseline literal beside the call).
    """
    problems: List[str] = []
    for plan, baseline_steps in baseline.items():
        steps = shares.get(plan, {})
        for label, names in (
            ("removed since", sorted(set(baseline_steps) - set(steps))),
            ("added since", sorted(set(steps) - set(baseline_steps))),
        ):
            if names:
                problems.append(f"{plan} plan: steps {label} the baseline: {', '.join(names)}")
        for step, base in baseline_steps.items():
            delta = steps.get(step, base) - base
            if delta > SHARE_FAIL_DELTA:
                problems.append(
                    f"{plan}.{step} time share grew {delta * 100:.0f} points "
                    f"({steps[step]:.1%} > {base:.1%} + {SHARE_FAIL_DELTA:.0%})"
                )
    if problems:
        raise AssertionError("per-kernel profile shares moved:\n  " + "\n  ".join(problems))


def assert_same_rankings(got, want) -> None:
    """Two replays answered the same requests from the same tiers with
    bitwise-equal items and scores."""
    assert len(got) == len(want)
    for result, expected in zip(got, want):
        assert (result.user, result.query_category, result.tier) == (
            expected.user, expected.query_category, expected.tier
        )
        np.testing.assert_array_equal(result.items, expected.items)
        np.testing.assert_array_equal(result.scores, expected.scores)


MODEL_LABELS = {
    "dnn": "DNN",
    "din": "DIN",
    "category_moe": "Category-MoE",
    "aw_moe": "AW-MoE",
    "aw_moe_cl": "AW-MoE & CL",
}


def evaluate_on_split(
    trained: Dict[str, Tuple[object, np.ndarray]],
    split: RankingDataset,
    full_test_len: int,
) -> Dict[str, Dict[str, float]]:
    """All four session metrics for every model on one test split.

    ``trained`` maps model name to (model, scores-on-full-test); when the
    split is a subset, scores are recomputed on the subset's rows.
    """
    results: Dict[str, Dict[str, float]] = {}
    for name, (model, full_scores) in trained.items():
        if len(split) == full_test_len:
            scores = full_scores
        else:
            scores = predict_scores(model, split)
        labels, sessions = split.label, split.session_id
        results[name] = {
            "auc": session_auc(scores, labels, sessions),
            "auc@10": session_auc_at_k(scores, labels, sessions, k=10),
            "ndcg": session_ndcg(scores, labels, sessions),
            "ndcg@10": session_ndcg(scores, labels, sessions, k=10),
            "_scores": scores,
        }
    return results


def print_model_table(
    title: str,
    results: Dict[str, Dict[str, float]],
    split: RankingDataset,
    paper_auc: Dict[str, float],
    reference: str = "category_moe",
) -> Dict[str, float]:
    """Print the measured table next to the paper's AUC column.

    Returns the p-values of AW-MoE rows against ``reference`` (the paper
    marks these with a double dagger).
    """
    rows: List[List[str]] = []
    p_values: Dict[str, float] = {}
    ref_scores = results[reference]["_scores"]
    rng = np.random.default_rng(0)
    for name in results:
        metrics = results[name]
        p_text = "-"
        if name in ("aw_moe", "aw_moe_cl"):
            p = paired_bootstrap_pvalue(
                ref_scores,
                metrics["_scores"],
                split.label,
                split.session_id,
                metric="auc",
                num_resamples=500,
                rng=rng,
            )
            p_values[name] = p
            p_text = f"{p:.3f}"
        rows.append(
            [
                MODEL_LABELS[name],
                format_float(metrics["auc"]),
                format_float(metrics["auc@10"]),
                format_float(metrics["ndcg"]),
                format_float(metrics["ndcg@10"]),
                format_float(paper_auc.get(name)),
                p_text,
            ]
        )
    print_table(
        ["Model", "AUC", "AUC@10", "NDCG", "NDCG@10", "paper AUC", "p vs Cat-MoE"],
        rows,
        title=title,
    )
    return p_values

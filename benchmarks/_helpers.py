"""Shared helpers for the benchmarks: table building and artifact guards."""

import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.dataset import RankingDataset
from repro.eval import paired_bootstrap_pvalue
from repro.eval.auc import session_auc, session_auc_at_k
from repro.eval.evaluator import predict_scores
from repro.eval.ndcg import session_ndcg
from repro.utils import format_float, print_table


class BenchmarkRegressionWarning(UserWarning):
    """A benchmark metric regressed versus the checked-in reference artifact."""


class BenchmarkRegressionError(AssertionError):
    """A benchmark metric regressed past the hard gate — the build is red.

    Raised by :func:`compare_to_artifact` when a metric falls more than
    ``fail_tolerance`` below the checked-in reference.  Set
    ``REPRO_ALLOW_REGRESSION=1`` to demote the failure to a warning (e.g. a
    PR that knowingly trades throughput for a feature — land it, then
    refresh ``benchmarks/reference/`` in the same PR).
    """


def _dig(report: Dict, key_path: Sequence[str]):
    value = report
    for key in key_path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def compare_to_artifact(
    report: Dict,
    reference_path: Path,
    key_paths: Sequence[Sequence[str]],
    tolerance: float = 0.2,
    fail_tolerance: float = 0.3,
) -> List[str]:
    """Benchmark-regression gate against the checked-in reference artifact.

    Compares higher-is-better metrics (QPS, steps/sec, speedup ratios) at
    each ``key_path`` in ``report`` against the reference artifact at
    ``reference_path``:

    * a drop beyond ``tolerance`` emits a :class:`BenchmarkRegressionWarning`
      — a signal to investigate;
    * a drop beyond ``fail_tolerance`` raises
      :class:`BenchmarkRegressionError` — a red build.  The gated key paths
      should therefore be machine-portable *ratios* (speedup vs an eager
      baseline measured in the same run), not raw wall-clock numbers.

    ``REPRO_ALLOW_REGRESSION=1`` is the escape hatch: hard failures demote
    to warnings so a deliberate regression can land together with a
    refreshed reference artifact.  Returns the list of emitted messages
    (empty when clean or when no reference exists yet).
    """
    if not reference_path.exists():
        return []
    allow = os.environ.get("REPRO_ALLOW_REGRESSION", "") == "1"
    reference = json.loads(reference_path.read_text())
    messages: List[str] = []
    failures: List[str] = []
    for key_path in key_paths:
        current = _dig(report, key_path)
        baseline = _dig(reference, key_path)
        if not isinstance(current, (int, float)) or not isinstance(baseline, (int, float)):
            continue  # a partial key path is a stale reference, not a crash
        if baseline <= 0:
            continue
        # The two thresholds act independently, so a fail_tolerance tighter
        # than the warn tolerance still gates.
        drop = 1.0 - current / baseline
        if drop <= min(tolerance, fail_tolerance):
            continue
        message = (
            f"{'.'.join(key_path)} regressed {drop:.0%} "
            f"vs reference ({current:.2f} < {baseline:.2f} - {tolerance:.0%})"
        )
        messages.append(message)
        if drop > fail_tolerance and not allow:
            failures.append(message)
        else:
            warnings.warn(message, BenchmarkRegressionWarning, stacklevel=2)
    if failures:
        raise BenchmarkRegressionError(
            "benchmark regression beyond the hard gate "
            f"(>{fail_tolerance:.0%}; REPRO_ALLOW_REGRESSION=1 to override):\n  "
            + "\n  ".join(failures)
        )
    return messages


def compare_profile_shares(
    report: Dict,
    reference_path: Path,
    warn_delta: float = 0.10,
    fail_delta: float = 0.25,
) -> List[str]:
    """Regression gate on per-kernel time *shares* from the plan profiler.

    Shares (each step's fraction of its plan's wall time) are the most
    machine-portable profile quantity: absolute kernel times move with the
    CPU, but one kernel suddenly eating a much larger slice of the plan is a
    code regression.  Compares ``report["profile"]["shares"]`` — a
    ``{plan: {step: share}}`` mapping — against the reference artifact:

    * a step's share growing more than ``warn_delta`` share points warns;
    * more than ``fail_delta`` raises :class:`BenchmarkRegressionError`
      (``REPRO_ALLOW_REGRESSION=1`` demotes to a warning, as in
      :func:`compare_to_artifact`);
    * a step present on one side only — a renamed, added or removed kernel,
      whose time the gate above cannot compare — warns by name: the
      reference is stale and must be refreshed.

    Returns the emitted messages; quietly returns ``[]`` when either side
    lacks a profile section (e.g. a reference checked in before profiling
    existed), so the gate is safe to call unconditionally.
    """
    current_shares = _dig(report, ("profile", "shares"))
    if not reference_path.exists() or not isinstance(current_shares, dict):
        return []
    reference = json.loads(reference_path.read_text())
    baseline_shares = _dig(reference, ("profile", "shares"))
    if not isinstance(baseline_shares, dict):
        return []
    allow = os.environ.get("REPRO_ALLOW_REGRESSION", "") == "1"
    messages: List[str] = []
    failures: List[str] = []
    for plan, baseline_steps in baseline_shares.items():
        current_steps = current_shares.get(plan)
        if not isinstance(current_steps, dict) or not isinstance(baseline_steps, dict):
            continue
        for label, steps in (
            ("removed since", sorted(set(baseline_steps) - set(current_steps))),
            ("added since", sorted(set(current_steps) - set(baseline_steps))),
        ):
            if steps:
                message = f"{plan} plan: steps {label} the reference: {', '.join(steps)}"
                messages.append(message)
                warnings.warn(message, BenchmarkRegressionWarning, stacklevel=2)
        for step, baseline in baseline_steps.items():
            current = current_steps.get(step)
            if not isinstance(current, (int, float)) or not isinstance(baseline, (int, float)):
                continue
            delta = current - baseline
            if delta <= min(warn_delta, fail_delta):
                continue
            message = (
                f"{plan}.{step} time share grew {delta * 100:.0f} points "
                f"vs reference ({current:.1%} > {baseline:.1%} + {warn_delta:.0%})"
            )
            messages.append(message)
            if delta > fail_delta and not allow:
                failures.append(message)
            else:
                warnings.warn(message, BenchmarkRegressionWarning, stacklevel=2)
    if failures:
        raise BenchmarkRegressionError(
            "per-kernel profile regression beyond the hard gate "
            f"(>{fail_delta * 100:.0f} share points; REPRO_ALLOW_REGRESSION=1 "
            "to override):\n  " + "\n  ".join(failures)
        )
    return messages


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

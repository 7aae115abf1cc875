"""Canary gate: no candidate reaches production on trust.

Before a refreshed model is hot-swapped into the fleet, it replays held-out
traffic — recent click-log sessions withheld from training — through the
paper's evaluation stack (:mod:`repro.eval`: session-grouped AUC and NDCG,
Eq. 12–13) and is compared against the *current production model on the
same sessions*.  Promotion requires every gated metric to be no worse than
production minus a small tolerance; a corrupted or diverged candidate (the
online loop's worst failure mode: silently degrading the ranker with noisy
click feedback) is rejected and production keeps serving.

Fleets that serve through the retrieval cascade (:mod:`repro.retrieval`)
additionally attach a :class:`~repro.retrieval.RetrievalProbe`: the swap
rebuilds the ANN item index from the candidate's embedding table, and an
embedding-table corruption can leave ranking metrics intact (the ranker
still orders whatever it is given) while retrieval quietly stops surfacing
the right candidates.  The probe rebuilds the candidate's cascade, measures
its recall against its own exhaustive-parity oracle, and blocks promotion
below the configured floor.

The replay scores through the **compiled inference path** (:mod:`repro.
infer`) — the plan the fleet will execute after promotion — fed what serving
feeds it: a click-log hold-out keeps the :class:`~repro.data.schema.
SessionBatch` it was assembled as, and :func:`~repro.eval.predict_scores`
hands a compiled model blocks of whole sessions, so gate, behaviour encoder
and query side run once per *session* (§III-F1).  The canary therefore gates the
plan production serves, factored kernels and compilation included; a bug in
either is caught here, before the swap.  Models with no registered compiler,
and datasets without session structure, replay row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.ranking_model import RankingModel
from repro.data.dataset import RankingDataset
from repro.eval.auc import session_auc
from repro.eval.evaluator import predict_scores
from repro.eval.ndcg import session_ndcg
from repro.faults.injector import NULL_INJECTOR
from repro.infer import CompiledModel, CompileError, compile_model
from repro.obs import NULL_SPAN, NULL_TRACE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.retrieval import RetrievalProbe

__all__ = ["CanaryReport", "CanaryGate"]

#: The session metrics that gate promotion (paper Eq. 12–13).
METRICS = {"auc": session_auc, "ndcg": session_ndcg}


@dataclass(frozen=True)
class CanaryReport:
    """Verdict on one candidate version."""

    passed: bool
    candidate: Dict[str, float]
    production: Optional[Dict[str, float]]
    reasons: Tuple[str, ...] = ()

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        metrics = " ".join(f"{k}={v:.4f}" for k, v in self.candidate.items())
        return f"canary {verdict} ({metrics})" + (
            f" [{'; '.join(self.reasons)}]" if self.reasons else ""
        )


class CanaryGate:
    """Regression gate over held-out traffic.

    Parameters
    ----------
    tolerance:
        Maximum allowed drop per metric versus production.  0 demands
        strict non-regression; the default absorbs evaluation noise on
        small holdout windows.
    retrieval_probe:
        Optional :class:`~repro.retrieval.RetrievalProbe`; when set, the
        candidate must also keep cascade retrieval recall above the probe's
        floor (checked on the candidate alone — the oracle is the
        candidate's own exhaustive cascade, so production is not involved).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; :meth:`judge` visits
        the ``canary.judge`` point at entry, so a chaos plan can fail a
        replay transiently (the online loop retries with backoff rather
        than skipping the gate).

    Every :data:`METRICS` entry gates; the replay runs through the compiled
    inference plan — the path the fleet serves — and through the eager
    forward for models with no compiler.
    """

    def __init__(
        self,
        tolerance: float = 0.005,
        retrieval_probe: Optional["RetrievalProbe"] = None,
        injector=None,
    ) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        self.tolerance = float(tolerance)
        self.retrieval_probe = retrieval_probe
        self.injector = injector if injector is not None else NULL_INJECTOR

    def _scorer(self, model: RankingModel):
        """The object whose ``predict_proba`` the replay runs — the compiled
        plan when the model compiles, the eager model otherwise.

        Deliberately compiles fresh on every call instead of memoizing per
        model object: the incremental trainer may update a model's weights
        in place between refresh cycles, and a cached plan (a weight
        *snapshot*) would silently replay stale weights.  Packing is
        sub-millisecond at this scale; staleness is a wrong promotion.  What
        a fresh compile does cost is a cold arena, one buffer per slot at
        the largest block's size: a plan runs at most
        :data:`~repro.infer.plan.BLOCK_ROWS` rows of whole sessions at a
        time whatever chunk it is handed (score + gate 6.3 + 1.0 MiB for
        1,024 rows as ≈ 100 sessions, whose behaviour side runs on valid
        positions only) — so the plan, not the replay chunk, bounds it, and
        :meth:`judge` drops the candidate's plan before production's
        replay.  Smaller chunks view the same buffers and cost no memory.
        """
        try:
            return compile_model(model)
        except CompileError:
            return model

    def _evaluate_with(self, scorer, holdout: RankingDataset, span=NULL_SPAN) -> Dict[str, float]:
        scores = predict_scores(scorer, holdout)
        metrics = {
            name: metric(scores, holdout.label, holdout.session_id)
            for name, metric in METRICS.items()
        }
        attrs = {name: round(value, 6) for name, value in metrics.items()}
        if isinstance(scorer, CompiledModel):  # one plan execution per chunk
            attrs["chunks"] = scorer.score_plan.calls
        span.set(**attrs)
        return metrics

    def judge(
        self,
        candidate: RankingModel,
        production: Optional[RankingModel],
        holdout: RankingDataset,
        trace=NULL_TRACE,
    ) -> CanaryReport:
        """Replay ``holdout`` through both models and compare.

        With no production model (first deployment) the candidate passes by
        default on the ranking metrics — there is nothing it could regress
        against — but a configured retrieval probe still applies: a
        first-deployment index built from a broken table must not serve.

        ``trace`` accepts the refresh cycle's :class:`~repro.obs.Trace`: the
        candidate/production replays and the retrieval probe land as child
        spans under the caller's open ``canary`` span, so a slow judgement
        is attributable to its stage (the probe's cascade rebuild dominates
        at large catalogs); each ``replay`` span carries ``rows``,
        ``sessions`` and, for a compiled scorer, ``chunks``.
        """
        self.injector.fire("canary.judge", rows=len(holdout))
        # One compile per judgement: weights cannot change mid-call, so the
        # replay and the retrieval probe share the same scoring surface.
        candidate_scorer = self._scorer(candidate)
        shape = {"rows": len(holdout), "sessions": holdout.num_sessions()}
        with trace.span("replay", model="candidate", **shape) as span:
            candidate_metrics = self._evaluate_with(candidate_scorer, holdout, span)
        reasons: List[str] = []
        if self.retrieval_probe is not None:
            # The probe's cascade build scores through the same compiled
            # surface the fleet's swap will rebuild from, so the canary
            # gates the retrieval stack production would actually serve.
            with trace.span("recall-probe") as span:
                ok, recall = self.retrieval_probe.check(candidate, scorer=candidate_scorer)
                span.set(recall=recall, passed=ok)
            candidate_metrics["retrieval_recall"] = recall
            if not ok:
                reasons.append(
                    f"retrieval recall collapsed: {recall:.4f} < "
                    f"{self.retrieval_probe.min_recall} (cascade vs exhaustive oracle)"
                )
        # The candidate's plan is done: drop it (and its arenas) before the
        # production replay grows its own, so one replay plan is live at a time.
        del candidate_scorer
        if production is None:
            return CanaryReport(
                passed=not reasons,
                candidate=candidate_metrics,
                production=None,
                reasons=tuple(reasons),
            )
        with trace.span("replay", model="production", **shape) as span:
            production_metrics = self._evaluate_with(self._scorer(production), holdout, span)
        for name in METRICS:
            floor = production_metrics[name] - self.tolerance
            if candidate_metrics[name] < floor:
                reasons.append(
                    f"{name} regressed: {candidate_metrics[name]:.4f} < "
                    f"{production_metrics[name]:.4f} - {self.tolerance}"
                )
        return CanaryReport(
            passed=not reasons,
            candidate=candidate_metrics,
            production=production_metrics,
            reasons=tuple(reasons),
        )

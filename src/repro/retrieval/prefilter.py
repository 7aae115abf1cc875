"""Stage-2 prefilter: a cheap linear scorer compiled as a tiny inference plan.

Between the ANN index (:mod:`repro.retrieval.index`) and the full compiled
AW-MoE sits a prefilter that prunes the index's N retrieved candidates down
to the top-K survivors the expensive ranker actually scores.  Its score is
deliberately linear — a few hundred FLOPs per candidate against the full
model's hundreds of thousands:

    score(i) = <u, x_i> + extra_i

where ``x_i`` is the item's row in the cascade's calibrated vector space
(see :mod:`repro.retrieval.cascade`: probe logit, popularity prior, sales,
embedding, dense profile and its square), ``u`` the session vector with the
calibration weights folded in, and ``extra_i`` an optional per-query
additive term (the cascade passes its user x item cross-feature boost here).

The scorer is built as an :class:`~repro.infer.plan.InferencePlan` over the
same kernels and :class:`~repro.infer.plan.BufferArena` the compiled model
executes in — gather, GEMV, and top-K selection all run in leased buffers,
so steady-state prefiltering allocates nothing but its output id array.
``prune=None`` (or K >= N) disables pruning: every retrieved candidate
survives, which together with ``nprobe="all"`` is the cascade's
exhaustive-parity mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.infer.kernels import gather_rows
from repro.infer.plan import BufferArena, InferencePlan, PlanStep

__all__ = ["Prefilter"]


class Prefilter:
    """Linear candidate scorer with an arena-backed compiled plan.

    Parameters
    ----------
    item_vectors:
        ``(num_items, D)`` item vectors, the same snapshot the
        :class:`~repro.retrieval.index.ItemIndex` slabs hold.
    """

    def __init__(self, item_vectors: np.ndarray) -> None:
        self.item_vectors = np.ascontiguousarray(item_vectors, dtype=np.float32)
        self.dim = int(self.item_vectors.shape[1])
        self.plan = self._build_plan()

    def _build_plan(self) -> InferencePlan:
        arena = BufferArena(np.float32)
        vectors = self.item_vectors
        dim = self.dim

        def gather_fn(ctx: dict) -> None:
            candidates = ctx["batch"]["candidates"]
            out = arena.lease("prefilter.gather", "vecs", (candidates.shape[0], dim))
            gather_rows(vectors, candidates, out)
            ctx["candidate_vecs"] = out

        def score_fn(ctx: dict) -> None:
            candidates = ctx["batch"]["candidates"]
            rows = candidates.shape[0]
            scores = arena.lease("prefilter.score", "scores", (rows,))
            np.matmul(ctx["candidate_vecs"], ctx["batch"]["session_vec"], out=scores)
            extra = ctx["batch"].get("extra")
            if extra is not None:
                scores += extra
            ctx["scores"] = scores

        steps = [
            PlanStep("prefilter.gather", "embed", gather_fn, reads=("candidates",), writes=("candidate_vecs",)),
            PlanStep(
                "prefilter.score",
                "mix",
                score_fn,
                reads=("candidate_vecs", "candidates", "session_vec"),
                writes=("scores",),
            ),
        ]
        return InferencePlan(
            "prefilter", steps, "scores", arena, inputs=("candidates", "session_vec")
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def scores(
        self,
        candidates: np.ndarray,
        session_vec: np.ndarray,
        extra: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Prefilter scores for ``candidates`` (arena-owned, copy to keep)."""
        return self.plan.run(
            {"candidates": candidates, "session_vec": session_vec, "extra": extra}
        )

    def prune(
        self,
        candidates: np.ndarray,
        session_vec: np.ndarray,
        keep: Optional[int],
        extra: Optional[np.ndarray] = None,
        base: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The top-``keep`` survivors of ``candidates``, ascending id order.

        ``keep=None`` (or >= len) passes every candidate through — the
        parity mode.  Selection is ``np.argpartition`` (O(N)), and the
        ascending-id output makes the survivor *set* the only thing pruning
        decides — downstream ranking is order-canonical either way.

        ``base`` is the candidates' ``<session_vec, x>`` when the caller
        already holds it (stage 1 ranked them by that inner product): the
        gather and GEMV are skipped and only ``extra`` is added.
        """
        if keep is None or keep >= candidates.size:
            return candidates
        if base is None:
            scores = self.scores(candidates, session_vec, extra=extra)
        else:
            scores = base if extra is None else base + extra
        survivors = np.argpartition(-scores, keep - 1)[:keep]
        return np.sort(candidates[survivors])

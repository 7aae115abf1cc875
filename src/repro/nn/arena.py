"""``GradArena``: an empty placeholder kept for one outside caller.

Training has one tape, the eager reference (:mod:`repro.nn.tensor`), and
AW-MoE trains through its compiled step (:mod:`repro.infer.training`), whose
buffers live in a :class:`~repro.infer.plan.BufferArena`.  Neither pools
gradient buffers, so this class holds nothing.  It stays constructible with
no arguments, and :func:`repro.core.trainer.train_step` keeps its ``arena``
parameter, because the perf harness (``benchmarks/perf``) still passes
``GradArena()`` there; both go once the harness stops passing it.
"""

from __future__ import annotations

__all__ = ["GradArena"]


class GradArena:
    """Accepted and ignored by :func:`repro.core.trainer.train_step`."""

    __slots__ = ()

"""Inference plans: flat kernel programs with a reusable buffer arena.

An :class:`InferencePlan` is what :func:`repro.infer.compiler.compile_model`
produces from a model's forward pass: a **topologically ordered, flat list of
fused kernel steps** operating on raw ``np.ndarray``s.  There is no graph
walk, no operator dispatch, and no autodiff bookkeeping at execution time —
each step is a plain Python callable closed over packed weights.

All intermediate storage is leased from a :class:`BufferArena`, which keeps
one flat buffer per ``(step, slot, dtype)`` at the largest size ever leased
and hands out C-contiguous views of its prefix.  A shard flushes every batch
size from 1 to ``max_batch_size``; all share the buffers the largest grew, so
once it has run the plan executes with **zero array allocations** — the
arena's hit/miss counters make that measurable (``tests/infer/test_plan.py``
asserts it).

Thread-safety: a plan owns mutable buffers, so one plan must not be executed
concurrently from multiple threads — give each worker its own compiled plan
(:class:`~repro.serving.shard.ShardWorker` compiles per shard), exactly
as each training process owns its own activations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.infer.kernels import expand_rows

__all__ = ["BufferArena", "PlanStep", "InferencePlan", "rows_capacity"]


def rows_capacity(rows: int) -> int:
    """The row count a varying leading dim is leased at: exact up to 128,
    then the next multiple of 128, so a slot caches a bounded set of views."""
    return rows if rows <= 128 else -(-rows // 128) * 128


class BufferArena:
    """One scratch buffer per ``(step, slot, dtype)``, shared by every shape.

    ``lease(step, slot, shape)`` returns ``flat[:prod(shape)].reshape(shape)``:
    C-contiguous with exactly the requested shape, so a kernel computes the
    same floats whatever size the buffer grew to.  A lease larger than the
    buffer replaces it (a *miss*, the only allocation); views are cached per
    shape, so a repeated lease is one dict lookup.  Contents are never
    zeroed — every kernel fully overwrites its output.  All shapes of a key
    alias one buffer, so a plan leases each key at most once per ``run``
    (both tested), and a result is valid until the next ``run``.
    """

    __slots__ = ("dtype", "_slots", "_views", "_view_keys", "hits", "misses")

    def __init__(self, dtype: np.dtype = np.float32) -> None:
        self.dtype = np.dtype(dtype)
        #: ``(step, slot, dtype)`` -> the slot's flat buffer.
        self._slots: Dict[Tuple, np.ndarray] = {}
        #: ``(step, slot, shape, dtype)`` -> a view of the current buffer.
        self._views: Dict[Tuple, np.ndarray] = {}
        #: ``(step, slot, dtype)`` -> the ``_views`` keys of its buffer.
        self._view_keys: Dict[Tuple, List[Tuple]] = {}
        self.hits = 0
        self.misses = 0

    def lease(
        self, step: str, slot: str, shape: Tuple[int, ...], dtype: Optional[np.dtype] = None
    ) -> np.ndarray:
        wanted = self.dtype if dtype is None else np.dtype(dtype)
        view_key = (step, slot, shape, wanted)
        view = self._views.get(view_key)
        if view is not None:
            self.hits += 1
            return view
        key = (step, slot, wanted)
        size = math.prod(shape)
        flat = self._slots.get(key)
        if flat is None or flat.size < size:
            # Drop the outgrown buffer's views: they would keep it alive.
            for stale in self._view_keys.pop(key, ()):
                del self._views[stale]
            flat = self._slots[key] = np.empty(size, dtype=wanted)
            self.misses += 1
        else:
            self.hits += 1
        self._view_keys.setdefault(key, []).append(view_key)
        view = self._views[view_key] = flat[:size].reshape(shape)
        return view

    def lease_rows(
        self, step: str, slot: str, shape: Tuple[int, ...], dtype: Optional[np.dtype] = None
    ) -> np.ndarray:
        """:meth:`lease` at :func:`rows_capacity` rows, returning the first
        ``shape[0]``: for row counts that vary run to run (packed positions)."""
        rows = shape[0]
        if rows <= 128:  # exact: no rounding, no slice
            return self.lease(step, slot, shape, dtype)
        return self.lease(step, slot, (rows_capacity(rows), *shape[1:]), dtype)[:rows]

    def binder(self, step: str, dtype: Optional[np.dtype] = None) -> Callable:
        """A ``lease(slot, shape)`` closure pinned to one step name."""
        return lambda slot, shape: self.lease(step, slot, shape, dtype=dtype)

    def row_binder(self, step: str) -> Callable:
        """:meth:`binder` over :meth:`lease_rows`."""
        return partial(self.lease_rows, step)

    @property
    def num_buffers(self) -> int:
        return len(self._slots)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (the plan's whole working set)."""
        return sum(buf.nbytes for buf in self._slots.values())


@dataclass(frozen=True)
class PlanStep:
    """One fused kernel in the flat program.

    ``fn(ctx)`` reads earlier results from the ``ctx`` dict (plus the bound
    batch under ``ctx["batch"]``) and writes its own outputs back into it;
    ``writes`` names them, so ``run(output=)`` knows where to stop.
    """

    name: str
    kind: str
    fn: Callable[[dict], None]
    writes: Tuple[str, ...] = ()
    #: Estimated multiply-accumulate FLOPs **per output row**, stamped by
    #: the compiler from the packed weight shapes (the §III-F cost-model
    #: arithmetic).  0 for steps whose cost is not GEMM-shaped (gathers,
    #: concats, pools); carried on each kernel span by
    #: :func:`~repro.obs.trace.kernel_span_hook`.
    flops: int = 0

    def __repr__(self) -> str:  # keep plan dumps compact
        return f"PlanStep({self.name!r}, {self.kind})"


@dataclass
class InferencePlan:
    """A compiled forward pass: ordered steps + the arena they execute in."""

    name: str
    steps: List[PlanStep]
    output: str
    arena: BufferArena
    #: Batch keys the plan reads; binding validates they are present.
    inputs: Tuple[str, ...] = ()
    #: Replay a session-factored batch row for row: its session-side inputs
    #: are repeated to one row per candidate before the first step, so every
    #: kernel sees the flat batch's shapes (float64 parity mode, and a gate
    #: keyed on the candidate).  ``False`` runs session-side kernels on one
    #: row per session.
    expand_sessions: bool = False
    calls: int = 0
    #: Optional per-kernel hook ``(step, seconds, ctx) -> None``, called
    #: after each step with its wall time and the execution ctx (the step's
    #: outputs are in it).  The one way kernels are timed: the tracer's
    #: :func:`~repro.obs.trace.kernel_span_hook` installs one.  ``None``
    #: keeps the untimed loop.
    step_hook: Optional[Callable[[PlanStep, float, dict], None]] = field(
        default=None, repr=False, compare=False
    )
    _ctx: dict = field(default_factory=dict, repr=False)

    def run(
        self, batch: Dict[str, np.ndarray], output: Optional[str] = None, **bound
    ) -> np.ndarray:
        """Execute every step and return the output buffer — or, with
        ``output``, stop after the last step writing that result and return it.

        ``batch`` is a flat :data:`~repro.data.schema.Batch` or a
        :class:`~repro.data.schema.SessionBatch`; steps find the latter's
        row offsets under ``ctx["bounds"]`` (``None`` for a flat batch) and,
        while its session side still has one row per session, under
        ``ctx["factored"]`` too.

        The returned array is **owned by the arena** and is only valid until
        the next ``run`` on this plan — serving consumes it immediately;
        API-level callers go through :meth:`repro.infer.compiler.
        CompiledModel.predict_proba`, which copies.  ``bound`` injects extra
        ctx entries (e.g. a precomputed ``gate`` matrix).
        """
        missing = [key for key in self.inputs if key not in batch]
        if missing:
            raise KeyError(f"plan {self.name!r} missing batch inputs {missing}")
        ctx = self._ctx
        ctx.clear()
        bounds = ctx["bounds"] = getattr(batch, "bounds", None)
        if bounds is not None and self.expand_sessions:
            batch = self._expanded(batch, bounds)
            bounds = None
        ctx["batch"] = batch
        ctx["factored"] = bounds
        ctx.update(bound)
        steps = self.steps
        if output is None:
            output = self.output
        else:
            steps = steps[: 1 + max(i for i, step in enumerate(steps) if output in step.writes)]
        hook = self.step_hook
        if hook is None:
            for step in steps:
                step.fn(ctx)
        else:
            clock = time.perf_counter
            for step in steps:
                begin = clock()
                step.fn(ctx)
                hook(step, clock() - begin, ctx)
        self.calls += 1
        return ctx[output]

    def _expanded(self, batch, bounds: List[int]) -> Dict[str, np.ndarray]:
        """The plan's inputs with the session side of ``batch`` repeated to
        one row per candidate (into arena buffers)."""
        flat = {}
        for key in self.inputs:
            rows = batch[key]
            if key in batch.session:
                shape = (bounds[-1],) + rows.shape[1:]
                rows = expand_rows(
                    rows, bounds, self.arena.lease("expand", key, shape, dtype=rows.dtype)
                )
            flat[key] = rows
        return flat

    @property
    def num_steps(self) -> int:
        return len(self.steps)

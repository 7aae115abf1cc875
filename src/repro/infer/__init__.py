"""``repro.infer`` — the compiled inference path for the serving fleet.

The training stack (:mod:`repro.nn`) builds an autodiff graph per op; that
is exactly the wrong cost model for serving, where the same forward runs
millions of times on identical batch geometry.  This package separates the
two concerns the way deployed ranking systems do (§III-F): ``compile_model``
freezes a trained model into an :class:`InferencePlan` — a flat list of
fused NumPy kernels over packed contiguous float32 weights, executing in a
slot-keyed :class:`BufferArena` (one buffer per kernel slot, sized by the
largest batch) with **zero steady-state allocations** — and the serving
stack (:mod:`repro.serving`) executes plans instead of eager forwards.

The candidate-independent gate subgraph is compiled as its own plan, so the
session-gate cache (§III-F1) feeds the score plan directly.  A float64
parity mode replays the exact eager op order for bitwise verification.
"""

from repro.infer.compiler import (
    CompiledModel,
    CompileError,
    compile_model,
    float64_twin,
)
from repro.infer.kernels import PackedExperts, PackedMLP, sigmoid_
from repro.infer.plan import BufferArena, InferencePlan, PlanStep
from repro.infer.slabs import (
    SlabFormatError,
    SnapshotSlab,
    TornSlabError,
    shared_memory_available,
    sweep_orphan_slabs,
)
from repro.obs.profiler import PlanProfiler

__all__ = [
    "PlanProfiler",
    "CompiledModel",
    "CompileError",
    "compile_model",
    "float64_twin",
    "PackedExperts",
    "PackedMLP",
    "sigmoid_",
    "BufferArena",
    "InferencePlan",
    "PlanStep",
    "SlabFormatError",
    "SnapshotSlab",
    "TornSlabError",
    "shared_memory_available",
    "sweep_orphan_slabs",
]

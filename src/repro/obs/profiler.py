"""Per-kernel profiling for compiled inference plans.

A :class:`PlanProfiler` is a ``step_hook`` consumer: inside
``with profiler.profiling(*plans):`` every fused kernel step of every
execution of those :class:`~repro.infer.plan.InferencePlan` instances is
timed and aggregated:

* wall time and call count per step;
* rows processed (the leading dimensions of the step's output);
* estimated FLOPs, from the per-row multiply-accumulate count the compiler
  stamps on each :class:`~repro.infer.plan.PlanStep` out of the §III-F cost
  model (``repro.serving.cost.mlp_flops`` arithmetic over the packed
  weight shapes).

``report()`` returns rows suitable for JSON; ``report_table()`` renders the
(step, op, shape, calls, total ms, % of plan) table the benchmarks print.
Profiling is opt-in: outside the block each plan is back on the hook it had
(usually none: the untimed loop).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.utils.tables import format_table

__all__ = ["PlanProfiler"]


class _StepStat:
    __slots__ = ("plan", "step", "kind", "calls", "seconds", "rows", "flops", "shape")

    def __init__(self, plan: str, step: str, kind: str) -> None:
        self.plan = plan
        self.step = step
        self.kind = kind
        self.calls = 0
        self.seconds = 0.0
        self.rows = 0
        self.flops = 0
        self.shape: Optional[Tuple[int, ...]] = None


def _output_shape(step, ctx: dict) -> Optional[Tuple[int, ...]]:
    if not step.writes:
        return None
    out = ctx.get(step.writes[0])
    shape = getattr(out, "shape", None)
    return tuple(int(dim) for dim in shape) if shape is not None else None


def _leading_rows(shape: Optional[Tuple[int, ...]]) -> int:
    """Rows a step processed: the product of all but the feature axis."""
    if not shape:
        return 0
    if len(shape) == 1:
        return shape[0]
    rows = 1
    for dim in shape[:-1]:
        rows *= dim
    return rows


class PlanProfiler:
    """Accumulates per-(plan, step) timing, rows, and FLOP estimates."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], _StepStat] = {}

    @contextmanager
    def profiling(self, *plans) -> Iterator["PlanProfiler"]:
        """Record every kernel of ``plans`` while the block runs: each plan's
        ``step_hook`` feeds :meth:`record_step`, and gets its previous hook
        back on exit."""
        previous = [plan.step_hook for plan in plans]
        for plan in plans:
            plan.step_hook = lambda step, seconds, ctx, name=plan.name: self.record_step(
                name, step, seconds, ctx
            )
        try:
            yield self
        finally:
            for plan, hook in zip(plans, previous):
                plan.step_hook = hook

    def record_step(self, plan_name: str, step, seconds: float, ctx: dict) -> None:
        """One executed step of ``plan_name`` (``ctx`` holds its output)."""
        key = (plan_name, step.name)
        stat = self._stats.get(key)
        if stat is None:
            stat = _StepStat(plan_name, step.name, step.kind)
            self._stats[key] = stat
        shape = _output_shape(step, ctx)
        rows = _leading_rows(shape)
        stat.calls += 1
        stat.seconds += seconds
        stat.rows += rows
        stat.flops += rows * getattr(step, "flops", 0)
        stat.shape = shape

    def reset(self) -> None:
        self._stats.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def plans(self) -> List[str]:
        seen: List[str] = []
        for plan, _ in self._stats:
            if plan not in seen:
                seen.append(plan)
        return seen

    def total_seconds(self, plan: Optional[str] = None) -> float:
        return sum(
            stat.seconds for stat in self._stats.values() if plan is None or stat.plan == plan
        )

    def report(self, plan: Optional[str] = None) -> List[Dict[str, Any]]:
        """Per-step rows (insertion = execution order), JSON-ready.

        ``share`` is each step's fraction of its **own plan's** total time,
        so shares sum to 1 per plan even in a multi-plan report.
        """
        totals = {name: self.total_seconds(name) for name in self.plans()}
        rows: List[Dict[str, Any]] = []
        for stat in self._stats.values():
            if plan is not None and stat.plan != plan:
                continue
            total = totals[stat.plan]
            rows.append(
                {
                    "plan": stat.plan,
                    "step": stat.step,
                    "op": stat.kind,
                    "shape": list(stat.shape) if stat.shape else None,
                    "calls": stat.calls,
                    "rows": stat.rows,
                    "total_ms": stat.seconds * 1000.0,
                    "share": stat.seconds / total if total > 0 else 0.0,
                    "mflops": stat.flops / 1e6,
                }
            )
        return rows

    def shares(self, plan: Optional[str] = None) -> Dict[str, float]:
        """``{step name: fraction of plan time}`` — the regression-gate view."""
        return {row["step"]: row["share"] for row in self.report(plan)}

    def report_table(self, plan: Optional[str] = None, title: Optional[str] = None) -> str:
        """The (step, op, shape, calls, total ms, % of plan) ASCII table."""
        rows = self.report(plan)
        if not rows:
            return "PlanProfiler: no steps recorded"
        table_rows = [
            [
                f"{row['plan']}.{row['step']}" if plan is None else row["step"],
                row["op"],
                "x".join(str(dim) for dim in row["shape"]) if row["shape"] else "-",
                row["calls"],
                f"{row['total_ms']:.3f}",
                f"{row['share'] * 100.0:5.1f}%",
                f"{row['mflops']:.2f}",
            ]
            for row in rows
        ]
        return format_table(
            ["step", "op", "shape", "calls", "total ms", "% plan", "MFLOP"],
            table_rows,
            title=title,
        )

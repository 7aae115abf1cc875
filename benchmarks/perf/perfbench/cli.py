"""Command line of the repo benchmark (``benchmarks/perf/run.py``).

One run::

    python3 benchmarks/perf/run.py --workload head-inproc --seed 0 --seconds 22 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Any audit failure exits non-zero and prints no metrics.  ``--aa N`` runs the
A/A comparison instead (:mod:`perfbench.aa`).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import env

__all__ = ["main", "PERF_DIR", "REPO_ROOT"]

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads")
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument(
        "--seconds", type=float, default=22.0,
        help="buys rounds: seconds // the workload's nominal round length",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes (tests)")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A: two sets of N runs")
    parser.add_argument(
        "--baseline", action="store_true",
        help="with --aa: rewrite baseline.json from the pooled runs",
    )
    return parser


def execute(workload: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """Run one workload in this process; returns ``(result, metrics, units)``.

    Raises :class:`perfbench.audit.AuditError` when the program's outputs
    were wrong or the run leaked a process or a shared-memory segment.
    """
    from repro.infer.slabs import SLAB_PREFIX

    from perfbench import driver
    from perfbench.audit import AuditError
    from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end_metrics
    from perfbench.workloads import WORKLOADS, load_inputs

    spec = WORKLOADS[workload]
    if smoke:
        spec = spec.smoke()
    inputs = load_inputs(spec, REPO_ROOT, OUT_DIR)
    scratch = OUT_DIR / "tmp"
    try:
        result = driver.run(spec, inputs, seed, seconds, traced, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leaks = env.leaked_slabs(SLAB_PREFIX) + [
        f"child process {child.pid}" for child in multiprocessing.active_children()
    ]
    if leaks:
        raise AuditError(f"run left behind: {', '.join(leaks)}")
    if result.failures:
        shown = "; ".join(result.failures[:5])
        raise AuditError(f"{len(result.failures)} of {result.attempted} requests failed: {shown}")
    if traced:
        values, table = result.layer_metrics, PER_LAYER
        if values["driver.budget_coverage"] < 0.9:
            raise AuditError(f"span budget covers {values['driver.budget_coverage']:.3f} < 0.9")
    else:
        values, table = end_to_end_metrics(result), END_TO_END
    units = {name: unit for name, unit, _ in table}
    return result, {name: values[name] for name in units}, units


def _write_record(args, result, metrics: Dict[str, float], cpu: Optional[int]) -> None:
    """The run record: environment, raw per-round samples, metrics; plus
    the span file of a traced run."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env.environment_record(REPO_ROOT, cpu),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "quality": result.quality,
        "build": result.build,
        "warmup": result.warmup,
        "rounds": result.rounds,
        "metrics": metrics,
    }
    path = OUT_DIR / f"run-{stem}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    if result.recorder is not None:
        result.recorder.write_jsonl(OUT_DIR / f"trace-{stem}.jsonl")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.aa is not None:
        from perfbench import aa

        return aa.main(args.aa, args.seconds, args.smoke, args.baseline)
    if args.workload is None:
        _parser().error("--workload is required (or --aa N)")

    cpu = env.pin_cpu()
    from perfbench.audit import AuditError
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _parser().error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    try:
        result, metrics, units = execute(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except AuditError as error:
        print(f"AUDIT FAILED: {error}", file=sys.stderr)
        return 1
    _write_record(args, result, metrics, cpu)
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0

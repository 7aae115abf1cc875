"""The system under test: a serving fleet plus the online loop around it.

Built only through public functions — :func:`repro.serving.build_fleet` and
the :mod:`repro.online` constructors.  Every workload refreshes through the
same :meth:`repro.online.OnlineLoop.run_cycle`; workloads differ in where
the click window comes from (see :mod:`perfbench.driver`).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.obs import MetricsRegistry
from repro.online import (
    CanaryGate,
    ClickLog,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import build_fleet

from perfbench.spans import Recorder
from perfbench.workloads import Inputs, WorkloadSpec, fresh_model

__all__ = ["System", "build_system", "attach_recorder"]


class _TimedTrainer(IncrementalTrainer):
    """The stock trainer, also accumulating the wall time of ``update`` —
    the denominator of ``train_rows_per_s`` in traced and untraced runs."""

    update_seconds = 0.0

    def update(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().update(*args, **kwargs)
        finally:
            self.update_seconds += time.perf_counter() - start


@dataclass
class System:
    """A fleet, optionally with its online loop and the loop's state dir."""

    spec: WorkloadSpec
    fleet: object
    loop: Optional[OnlineLoop] = None
    state_dir: Optional[Path] = None

    @property
    def is_process(self) -> bool:
        return self.spec.backend == "process"

    @property
    def door(self) -> str:
        """Span-name prefix of the fleet's front door: the layer it is."""
        return "fleet" if self.is_process else "cluster"

    def worker_pids(self) -> List[int]:
        if not self.is_process:
            return []
        return [row["pid"] for row in self.fleet.worker_status() if row["pid"] is not None]

    def close(self) -> None:
        """Stop worker processes and delete the loop's files."""
        if self.is_process:
            self.fleet.stop()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def build_system(
    spec: WorkloadSpec,
    inputs: Inputs,
    model,
    with_loop: bool,
    scratch: Path,
    click_seed: int = 0,
    train_metrics: Optional[MetricsRegistry] = None,
) -> System:
    """From trained weights + world to a serving fleet; with ``with_loop``
    also the online loop, assembled and bootstrapped (version 1 registered,
    loaded into a fresh serving copy and hot-swapped in).

    ``model`` becomes the loop's training twin; the fleet serves it only
    until the bootstrap swap.
    """
    fleet = build_fleet(
        inputs.world, model, spec.fleet_config(), backend=spec.backend, version="seed"
    )
    system = System(spec, fleet)
    if not with_loop:
        return system
    try:
        scratch.mkdir(parents=True, exist_ok=True)
        system.state_dir = Path(tempfile.mkdtemp(prefix="loop-", dir=scratch))
        system.loop = OnlineLoop(
            world=inputs.world,
            cluster=fleet,
            trainer=_TimedTrainer(model, spec.refresh, seed=3, metrics=train_metrics),
            model_factory=lambda: fresh_model(spec, inputs),
            registry=ModelRegistry(str(system.state_dir / "registry")),
            canary=CanaryGate(tolerance=spec.canary_tolerance),
            click_model=PositionBiasedClickModel(
                inputs.world,
                np.random.default_rng(np.random.SeedSequence(click_seed, spawn_key=(11,))),
            ),
            click_log=ClickLog(str(system.state_dir / "clicks.jsonl")),
            seed=3,
        )
        system.loop.bootstrap()
    except BaseException:
        system.close()
        raise
    return system


# ----------------------------------------------------------------------
# traced run: which bound methods get a span
# ----------------------------------------------------------------------
def _rows(batch_output) -> int:
    return int(batch_output.shape[0])


def attach_recorder(recorder: Recorder, system: System) -> None:
    """(Re)wrap the layer boundaries of ``system``.

    Called after the build and again after every hot swap: a swap replaces
    each engine's compiled plans and cascade with new objects.  On the
    process backend only the supervisor's front door is in this process.
    """
    recorder.detach()
    fleet, door = system.fleet, system.door
    recorder.wrap(fleet, "submit", f"{door}.submit", count=len)
    recorder.wrap(fleet, "poll", f"{door}.poll", count=len)
    recorder.wrap(fleet, "flush", f"{door}.flush", count=len)
    recorder.wrap(fleet, "swap_model", f"{door}.swap_model", count=len)
    if not system.is_process:
        for worker in fleet.workers:
            _attach_shard(recorder, worker)
    loop = system.loop
    if loop is not None:
        recorder.wrap(loop, "run_cycle", "online.run_cycle")
        recorder.wrap(loop.click_log, "log_session", "online.log_session")
        recorder.wrap(loop.click_log, "read_new", "online.read_new", count=len)
        recorder.wrap(loop.trainer, "update", "online.update")
        recorder.wrap(loop.registry, "register", "online.register")
        recorder.wrap(loop.canary, "judge", "online.judge")
        recorder.wrap(loop.registry, "promote", "online.promote")
        recorder.wrap(loop.registry, "load_into", "online.load_into")


def _attach_shard(recorder: Recorder, worker) -> None:
    shard = worker.shard_id
    batcher, cache, engine = worker.batcher, worker.cache, worker.engine
    recorder.wrap(batcher, "submit", "batcher.submit", shard, count=len)
    recorder.wrap(batcher, "flush", "batcher.flush", shard, count=len)
    recorder.wrap(cache, "get_gate", "cache.get_gate", shard)
    recorder.wrap(cache, "get_behavior", "cache.get_behavior", shard)
    recorder.wrap(engine, "retrieve", "engine.retrieve", shard, count=len)
    recorder.wrap(engine, "build_batch", "engine.build_batch", shard)
    recorder.wrap(engine, "encode_user_behavior", "engine.encode_user_behavior", shard)
    recorder.wrap(engine, "score_candidates", "engine.score_candidates", shard, count=len)
    recorder.wrap(engine, "serving_gate", "engine.serving_gate", shard, count=len)
    compiled = engine.compiled_model
    if compiled is not None:
        recorder.wrap(compiled.gate_plan, "run", "infer.gate_plan_run", shard, count=_rows)
        recorder.wrap(compiled.score_plan, "run", "infer.score_plan_run", shard, count=_rows)
    cascade = engine.cascade
    if cascade is not None:
        recorder.wrap(cascade, "resolve_gate", "retrieval.resolve_gate", shard)
        recorder.wrap(cascade, "session_vector", "retrieval.session_vector", shard)
        recorder.wrap(cascade.index, "search", "retrieval.index_search", count=len)
        recorder.wrap(cascade.prefilter, "prune", "retrieval.prefilter_prune", shard, count=len)

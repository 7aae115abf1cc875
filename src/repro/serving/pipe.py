"""Pipe transport: shards as supervised worker processes over shared memory.

This transport promotes every :class:`~repro.serving.shard.ShardWorker` to
a real process, which is what the compiled plan's contiguous weight buffers
and the cascade's cell-ordered index slabs were packed for: the supervisor
publishes one :class:`~repro.infer.slabs.SnapshotSlab` holding the model,
the world, and the detached cascade build, and every worker maps it
zero-copy — the weights exist once in physical memory no matter how many
processes serve.  Fleet *policy* lives in
:class:`~repro.serving.fleet.Fleet`; what is here is what only a process
needs:

* **One exchange per batch** — requests are buffered per worker and sent
  as one ``"submit"`` message once ``max_batch_size`` are waiting (``poll``
  / ``flush`` / ``swap`` send partial buffers); one ack carries the results
  and the refusals, which the fleet re-routes from the next shard.
* **Heartbeats** — workers beat over their pipe every
  ``heartbeat_interval_s`` carrying their cumulative
  :meth:`~repro.serving.shard.ShardWorker.report`; a worker silent past
  ``heartbeat_deadline_s`` is declared hung, killed, and restarted.
* **Crash detection** — a dead pipe or a nonzero exit is a worker death;
  the supervisor emits a typed ``worker_died`` event (exit code, beats
  missed, outstanding requests) and retires the worker's **last-flushed
  report** so no telemetry is lost to an abnormal exit.
* **Zero drops** — requests queued on a dead worker, or still in its send
  buffer, are handed back to the fleet (``orphans``), which re-dispatches
  them down the failover order every request takes.
* **Restart with backoff + flap quarantine** — restarts reuse the
  currently published slab generation and back off exponentially; a worker
  that dies more than :data:`MAX_RESTARTS` times inside
  :data:`QUARANTINE_WINDOW_S` is parked (``worker_quarantined``) and its
  users reroute to siblings.
* **Atomic hot swap** — :meth:`PipeTransport.swap`: publish → flip workers
  one by one → unlink the old slab; readers can never observe a mixed
  generation because a slab is only attachable once its header commits.
* **Orphan sweep** — startup and shutdown reclaim stale ``repro_slab_*``
  segments left by a crashed supervisor (``state_recovered`` events).

Fault injection threads through this layer at ``worker.spawn``,
``worker.exec``, ``worker.heartbeat`` and ``slab.publish``; the
:class:`~repro.faults.FaultPlan` ships to each worker, whose injector binds
``worker=<id>``/``shard=<id>`` so plans target individual processes
deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.synthetic import World
from repro.faults.injector import CrashFault, FaultPlan, InjectedFault
from repro.infer.slabs import (
    SnapshotSlab,
    TornSlabError,
    shared_memory_available,
    sweep_orphan_slabs,
)
from repro.retrieval import RetrievalCascade
from repro.serving.context import FleetContext
from repro.serving.engine import RankedList, SearchEngine
from repro.serving.shard import (
    HEALTHY,
    QUARANTINED,
    RESTARTING,
    STOPPED,
    FleetConfig,
    ShardRefused,
    ShardWorker,
    SwapFailed,
)

__all__ = ["PipeTransport"]

#: Exit code a worker uses for an injected ``worker.exec`` crash (the
#: simulated OOM kill) — distinguishable from a real fault in the logs.
_EXIT_EXEC_CRASH = 13
#: Exit code for an unexpected exception escaping the worker loop.
_EXIT_FATAL = 21

#: Supervisor tuning beside :class:`FleetConfig`'s heartbeat and backoff
#: knobs.  An exchange waits this long for its ack before the worker is
#: declared dead, and a spawned worker this long to report ready.
REQUEST_TIMEOUT_S = 10.0
STARTUP_TIMEOUT_S = 30.0
#: Restart backoff doubles from ``FleetConfig.restart_backoff_s`` up to this.
RESTART_BACKOFF_MAX_S = 2.0
#: A worker restarted more than ``MAX_RESTARTS`` times within
#: ``QUARANTINE_WINDOW_S`` seconds is quarantined instead.
MAX_RESTARTS = 3
QUARANTINE_WINDOW_S = 30.0
#: How workers start; where the platform lacks it, ``spawn``.
START_METHOD = "fork"


class _WorkerFailure(Exception):
    """Internal: a worker died or hung mid-exchange: ``(reason[, detail])``."""

    @property
    def detail(self) -> Optional[str]:
        return self.args[1] if len(self.args) > 1 else None


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _cascade_view(payload: Dict[str, Any]) -> Optional[RetrievalCascade]:
    detached = payload.get("cascade")
    if detached is None:
        return None
    # worker_view restores the per-worker prefilter; set_model
    # binds this worker's compiled plan as the scorer.
    return detached.worker_view()


def _die(conn: Any, worker_id: int) -> None:
    """Report the active exception to the supervisor and exit hard."""
    try:
        conn.send(("fatal", worker_id, traceback.format_exc()))
    except OSError:
        pass
    os._exit(_EXIT_FATAL)


def _submit_batch(worker: ShardWorker, injector: Any, batch: List[Tuple[int, int]]) -> Tuple:
    """One ``"submit"`` message: every request in order through its own
    ``worker.exec`` fault point and :meth:`ShardWorker.submit`.  Returns
    the flushed results and ``(index, reason)`` per refusal."""
    results: List[RankedList] = []
    refusals: List[Tuple[int, str]] = []
    for index, (user, category) in enumerate(batch):
        try:
            try:
                injector.fire("worker.exec", op="submit", user=user)
            except CrashFault:
                os._exit(_EXIT_EXEC_CRASH)  # simulated OOM kill
            results.extend(worker.submit(user, category))
        except ShardRefused as refused:
            refusals.append((index, refused.reason))
        except InjectedFault as fault:
            refusals.append((index, type(fault).__name__))
    return results, refusals


def _worker_main(
    worker_id: int,
    slab_name: str,
    config: FleetConfig,
    plan: Optional[FaultPlan],
    conn: Any,
) -> None:
    """Worker entry point: attach the slab, host one
    :class:`ShardWorker` built from it, serve the pipe, beat."""
    try:
        slab = SnapshotSlab.attach(slab_name)
        #: Superseded generations whose arrays may still be referenced by
        #: the engine (the world never changes across swaps, so its views
        #: stay rooted in the bootstrap generation's mapping).
        retired_slabs: List[SnapshotSlab] = []
        payload = slab.payload
        generation = int(payload["generation"])
        ctx = FleetContext(fault_plan=plan).armed()
        worker = ShardWorker(
            config,
            worker_id,
            payload["world"],
            payload["model"],
            payload.get("version"),
            _cascade_view(payload),
            replace(ctx, injector=ctx.injector.bind(worker=worker_id)),
        )
    except Exception:
        _die(conn, worker_id)
    injector, batcher = worker.injector, worker.batcher
    conn.send(("ready", worker_id, os.getpid(), generation))
    last_beat = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now - last_beat >= config.heartbeat_interval_s:
                last_beat = now
                try:
                    injector.fire("worker.heartbeat")
                    conn.send(("beat", worker_id, now, generation, worker.report()))
                except InjectedFault:
                    pass  # the beat is lost — that *is* the fault
            timeout = max(0.0, last_beat + config.heartbeat_interval_s - now)
            due = batcher.next_flush_due()
            if due is not None:
                timeout = min(timeout, max(0.0, due - time.perf_counter()))
            if not conn.poll(timeout):
                flushed = batcher.poll()
                if flushed:
                    conn.send(("results", worker_id, flushed, generation))
                continue
            message = conn.recv()
            op, rid = message[0], message[1]
            if op == "stop":
                conn.send(("ack", rid, "stop", worker.report(), generation))
                break
            try:
                if op == "submit":
                    result: Any = _submit_batch(worker, injector, message[2])
                elif op == "flush":
                    injector.fire("worker.exec", op="flush")
                    result = batcher.flush()
                elif op == "swap":
                    injector.fire("worker.exec", op="swap")
                    new_slab = SnapshotSlab.attach(message[2])
                    payload = new_slab.payload
                    result = []
                    worker.swap(
                        payload["model"], payload.get("version"), _cascade_view(payload), result
                    )
                    generation = int(payload["generation"])
                    # The old mapping must stay mapped: numpy views do NOT
                    # pin a SharedMemory mapping (close() unmaps under
                    # them), and the engine still holds world arrays from
                    # the generation it was built on.  Retaining the handle
                    # costs one idle mapping per swap; the pages are freed
                    # when the worker restarts or stops.
                    retired_slabs.append(slab)
                    slab = new_slab
                elif op == "report":
                    result = worker.report()
                else:
                    raise RuntimeError(f"unknown fleet op {op!r}")
            except ShardRefused as refused:
                conn.send(("nack", rid, refused.reason))
                continue
            except InjectedFault as fault:
                conn.send(("nack", rid, type(fault).__name__))
                continue
            conn.send(("ack", rid, op, result, generation))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # supervisor went away — exit quietly
    except Exception:
        _die(conn, worker_id)
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    """Supervisor-side bookkeeping for one worker slot, and the fleet's
    endpoint for that shard."""

    pool: "PipeTransport" = field(repr=False, compare=False)
    worker_id: int
    state: str = RESTARTING
    process: Any = None
    conn: Any = None
    pid: Optional[int] = None
    generation: int = 0
    last_beat: float = 0.0
    last_report: Optional[Dict[str, Any]] = None
    #: FIFO of ``(user, category)`` queued on the worker, unanswered.
    outstanding: Deque[Tuple[int, int]] = field(default_factory=deque)
    #: Requests not yet sent, and when the first of them was buffered.
    buffer: List[Tuple[int, int]] = field(default_factory=list, init=False)
    buffered_at: float = field(default=0.0, init=False)
    restart_times: Deque[float] = field(default_factory=deque)
    restart_at: float = 0.0
    restarts: int = 0
    spawn_attempt: int = 0

    def submit(self, user: int, category: int) -> List[RankedList]:
        return self.pool.submit(self, user, category)


class PipeTransport:
    """Own a pool of worker processes serving one published slab generation.

    ``workers`` are the per-slot :class:`_WorkerHandle` records.  The
    fleet drains four buffers after every operation: ``delivered``
    (deadline flushes the workers ran on their own timers), ``orphans``
    (requests a dead worker left unanswered), ``refused`` (requests a
    worker refused inside a batch) and ``retired`` (the last-reported sink
    of every dead incarnation).  Lifecycle events go to
    ``events``, the fleet's control-plane log, stamped ``time.monotonic``.
    ``ctx`` is the fleet's (:meth:`FleetContext.check_portable` passed):
    its injector fires the supervisor's fault points and its ``fault_plan``
    ships to every worker.
    """

    def __init__(
        self,
        world: World,
        model: RankingModel,
        config: FleetConfig,
        version: Optional[str],
        ctx: FleetContext,
        events,
    ) -> None:
        if not shared_memory_available():
            raise RuntimeError(
                "POSIX shared memory unavailable; use build_fleet(backend='inprocess')"
            )
        self.config = config
        self.fault_plan = ctx.fault_plan
        self.injector = ctx.injector
        self.events = events
        self.generation = 0
        #: Orphan segments reclaimed at startup (crash recovery).
        self.recovered_segments = sweep_orphan_slabs(events=events, clock=time.monotonic)
        self._world = world
        self._rid = 0
        self.delivered: List[RankedList] = []
        self.orphans: Deque[Tuple[int, int]] = deque()
        #: ``(user, category, shard, reason)`` a worker refused inside a batch.
        self.refused: List[Tuple[int, int, int, str]] = []
        self.retired: List[Any] = []
        self._stopped = False
        available = START_METHOD in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(START_METHOD if available else "spawn")
        self.slab = self._publish(model, version, generation=0)
        self.workers = [_WorkerHandle(self, i) for i in range(config.num_workers)]
        for handle in self.workers:
            self._spawn(handle)

    def _event(self, kind: str, **attrs: Any) -> None:
        self.events.record(kind, time.monotonic(), **attrs)

    # ------------------------------------------------------------------
    # slab lifecycle
    # ------------------------------------------------------------------
    def _build_cascade(self, model: RankingModel) -> Optional[RetrievalCascade]:
        """The generation's one cascade build, exactly as a shard's engine
        would build it (through the compiled plan when there is one),
        detached from that scorer for publication."""
        if self.config.cascade is None:
            return None
        builder = SearchEngine(
            self._world,
            model,
            np.random.default_rng(0),  # never drawn from: nothing is retrieved here
            compile=self.config.compile,
            cascade=self.config.cascade,
        )
        return builder.cascade.detach_for_publish()

    def _publish(
        self, model: RankingModel, version: Optional[str], generation: int
    ) -> SnapshotSlab:
        """Publish one generation's slab, retrying failed publishes.

        A torn segment (the ``slab.publish`` ``torn_write`` fault — the
        injected stand-in for a crash mid-write) is destroyed and the
        publish retried under a fresh name; readers never see it because
        its header was never committed.  Three failures raise
        :class:`SwapFailed`.
        """
        payload = {
            "world": self._world,
            "model": model,
            "cascade": self._build_cascade(model),
            "version": version,
            "generation": generation,
        }
        failures = 0
        while True:
            try:
                slab = SnapshotSlab.publish(
                    payload, injector=self.injector, generation=generation
                )
                break
            except (TornSlabError, InjectedFault) as fault:
                if isinstance(fault, TornSlabError):
                    fault.slab.destroy()
                    self._event(
                        "slab_unlinked", segment=fault.slab.name,
                        generation=generation, reason="torn_publish",
                    )
                failures += 1
                if failures >= 3:
                    raise SwapFailed(
                        f"slab publish for generation {generation} failed "
                        f"{failures} times: {fault}"
                    ) from fault
        self._event(
            "slab_published", segment=slab.name, generation=generation, nbytes=slab.nbytes
        )
        return slab

    # ------------------------------------------------------------------
    # spawn / restart / death
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.spawn_attempt += 1
        try:
            self.injector.fire(
                "worker.spawn", worker=handle.worker_id, attempt=handle.spawn_attempt
            )
        except InjectedFault as fault:
            self._schedule_restart(handle, reason=f"spawn_{type(fault).__name__}")
            return
        handle.conn, child_conn = self._ctx.Pipe(duplex=True)
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                self.slab.name,
                self.config,
                self.fault_plan,
                child_conn,
            ),
            daemon=True,
            name=f"repro-fleet-{handle.worker_id}",
        )
        handle.process.start()
        child_conn.close()
        try:
            ready = self._await(handle, "ready", STARTUP_TIMEOUT_S)
        except _WorkerFailure as failure:
            self._on_death(handle, f"spawn_{failure.args[0]}", detail=failure.detail)
            return
        handle.pid = ready[2]
        handle.generation = ready[3]
        handle.state = HEALTHY
        handle.last_beat = time.monotonic()
        self._event(
            "worker_restarted" if handle.restarts else "worker_spawned",
            worker=handle.worker_id,
            pid=handle.pid,
            generation=handle.generation,
            attempt=handle.spawn_attempt,
        )

    def _schedule_restart(self, handle: _WorkerHandle, reason: str) -> None:
        now = time.monotonic()
        handle.restart_times.append(now)
        while handle.restart_times and now - handle.restart_times[0] > QUARANTINE_WINDOW_S:
            handle.restart_times.popleft()
        handle.restarts += 1
        if len(handle.restart_times) > MAX_RESTARTS:
            handle.state = QUARANTINED
            self._event(
                "worker_quarantined",
                worker=handle.worker_id,
                restarts_in_window=len(handle.restart_times),
                window_s=QUARANTINE_WINDOW_S,
                reason=reason,
            )
            return
        backoff = min(
            self.config.restart_backoff_s * (2 ** (len(handle.restart_times) - 1)),
            RESTART_BACKOFF_MAX_S,
        )
        handle.state = RESTARTING
        handle.restart_at = now + backoff

    def _reap(self, handle: _WorkerHandle, grace_s: float = 0.0) -> Optional[int]:
        """End the incarnation: stop its process (join → terminate → kill),
        close its pipe and retire its last-reported sink — cumulative for
        the incarnation, so nothing the worker measured is lost.  Returns
        the exit code (``None`` without a process)."""
        process, exit_code = handle.process, None
        if process is not None:
            if grace_s:
                process.join(timeout=grace_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
            exit_code = process.exitcode
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        if handle.last_report is not None:
            self.retired.append(handle.last_report["metrics"])
        handle.process = handle.conn = handle.pid = handle.last_report = None
        return exit_code

    def _on_death(
        self,
        handle: _WorkerHandle,
        reason: str,
        beats_missed: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        """A worker is gone: harvest telemetry, hand back its requests,
        schedule the restart (or quarantine)."""
        attrs: Dict[str, Any] = {
            "worker": handle.worker_id,
            "reason": reason,
            "exit_code": self._reap(handle),
            "outstanding": len(handle.outstanding) + len(handle.buffer),
        }
        self.orphans.extend(handle.outstanding)
        self.orphans.extend(handle.buffer)
        handle.outstanding.clear()
        handle.buffer = []
        if beats_missed is not None:
            attrs["beats_missed"] = beats_missed
        if detail is not None:
            attrs["detail"] = detail[-400:]
        self._event("worker_died", **attrs)
        self._schedule_restart(handle, reason=reason)

    def _service(self) -> None:
        """Housekeeping pass, run at the top of every operation: pump
        pipes, detect hangs, restart due workers."""
        if self._stopped:
            return
        now = time.monotonic()
        for handle in self.workers:
            if handle.state == HEALTHY:
                self._pump(handle)
            if handle.state == HEALTHY:
                silence = time.monotonic() - handle.last_beat
                if not handle.process.is_alive():
                    self._on_death(handle, reason="crashed")
                elif silence > self.config.heartbeat_deadline_s:
                    missed = int(silence / self.config.heartbeat_interval_s)
                    self._on_death(handle, reason="hung", beats_missed=missed)
            elif handle.state == RESTARTING and now >= handle.restart_at:
                self._spawn(handle)

    # ------------------------------------------------------------------
    # pipe pumping
    # ------------------------------------------------------------------
    def _pump(self, handle: _WorkerHandle) -> None:
        """Drain asynchronous traffic (beats, deadline-flush results)."""
        try:
            while handle.conn.poll(0):
                self._absorb(handle, handle.conn.recv())
        except (EOFError, OSError):
            self._on_death(handle, reason="crashed")
        except _WorkerFailure as failure:
            self._on_death(handle, reason="fatal", detail=failure.detail)

    def _absorb(self, handle: _WorkerHandle, message: Tuple) -> bool:
        """Process one asynchronous message; False for anything else (the
        waiting caller's)."""
        kind = message[0]
        if kind == "beat":
            handle.last_beat = time.monotonic()
            handle.generation = message[3]
            handle.last_report = message[4]
            return True
        if kind == "results":
            self.delivered.extend(self._settle(handle, message[2]))
            return True
        if kind == "fatal":
            raise _WorkerFailure("fatal", message[2])
        return False

    def _settle(self, handle: _WorkerHandle, results: List[RankedList]) -> List[RankedList]:
        """Strike ``results`` off the worker's outstanding queue."""
        for ranking in results:
            try:
                handle.outstanding.remove((int(ranking.user), int(ranking.query_category)))
            except ValueError:
                pass  # a re-dispatched twin already answered it
        return results

    def _await(
        self, handle: _WorkerHandle, kind: str, timeout: float, request: Optional[Tuple] = None
    ) -> Tuple:
        """Send ``request`` (if any) and wait for the ``kind`` message that
        answers it, absorbing asynchronous traffic on the way.

        Raises :class:`_WorkerFailure` on a dead pipe, a fatal report or a
        timeout (the caller kills/restarts) and :class:`ShardRefused` on the
        request's nack.
        """
        conn = handle.conn
        deadline = time.monotonic() + timeout
        try:
            if request is not None:
                conn.send(request)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(remaining):
                    raise _WorkerFailure("timeout")
                message = conn.recv()
                if self._absorb(handle, message):
                    continue
                if request is None or message[1] == request[1]:
                    if message[0] == kind:
                        return message
                    if message[0] == "nack":
                        raise ShardRefused(message[2])
                # stale ack from a timed-out earlier exchange: drop it.
        except (EOFError, OSError, ValueError) as exc:
            raise _WorkerFailure("crashed") from exc

    def _call(
        self, handle: _WorkerHandle, op: str, *args: Any, timeout: Optional[float] = None
    ) -> Any:
        """One request/ack round trip; returns the ack's payload.

        Raises :class:`ShardRefused`: ``"unavailable"`` for a worker that is
        down, the worker's nack reason, or ``"died"`` once a dead or hung
        worker has been buried (its queue is already in ``orphans``, its
        restart scheduled).
        """
        if handle.state != HEALTHY:
            raise ShardRefused("unavailable")
        self._rid += 1
        try:
            ack = self._await(
                handle, "ack", timeout or REQUEST_TIMEOUT_S, (op, self._rid, *args)
            )
        except _WorkerFailure as failure:
            self._on_death(handle, reason=failure.args[0])
            raise ShardRefused("died") from None
        handle.generation = ack[4]
        return ack[3]

    # ------------------------------------------------------------------
    # the operations the fleet drives
    # ------------------------------------------------------------------
    def submit(self, handle: _WorkerHandle, user: int, category: int) -> List[RankedList]:
        """Buffer one request for ``handle``'s worker; the one that fills
        the buffer to ``max_batch_size`` sends it (:meth:`_send`)."""
        self._service()
        if handle.state != HEALTHY:
            raise ShardRefused("unavailable")
        if not handle.buffer:
            handle.buffered_at = time.monotonic()
        handle.buffer.append((int(user), int(category)))
        if len(handle.buffer) < self.config.max_batch_size:
            return []
        return self._send(handle, trigger=True)

    def _send(self, handle: _WorkerHandle, trigger: bool = False) -> List[RankedList]:
        """Send ``handle``'s buffer as one exchange; returns what the worker
        flushed.  Refusals go to ``refused`` and, if the worker dies, the
        batch to ``orphans`` — except the ``trigger`` (the last request,
        whose submit filled the buffer): it raises :class:`ShardRefused`,
        with the results parked in ``delivered``."""
        batch, handle.buffer = handle.buffer, []
        try:
            results, refusals = self._call(handle, "submit", batch)
        except ShardRefused:
            self.orphans.extend(batch[:-1] if trigger else batch)
            if trigger:
                raise
            return []
        # Queued on the worker from the ack on; a worker that dies *during*
        # the exchange never held them, so they are orphans, not outstanding.
        skipped = {index for index, _ in refusals}
        handle.outstanding.extend(r for i, r in enumerate(batch) if i not in skipped)
        results = self._settle(handle, results)
        for index, reason in refusals:
            if trigger and index == len(batch) - 1:
                self.delivered.extend(results)
                raise ShardRefused(reason)
            self.refused.append((*batch[index], handle.worker_id, reason))
        return results

    def _send_all(self) -> List[RankedList]:
        return [got for handle in self.workers if handle.buffer for got in self._send(handle)]

    def poll(self) -> List[RankedList]:
        """Send every buffered request.  Workers flush on their own
        deadlines in real time and push the results; the housekeeping pass
        moves those to ``delivered``."""
        self._service()
        return self._send_all()

    def next_flush_due(self) -> Optional[float]:
        """When the oldest unsent request was buffered (``time.monotonic``,
        the fleet clock), ``None`` once every buffer is sent: due at once,
        since the flush deadline runs in the worker."""
        return min((h.buffered_at for h in self.workers if h.buffer), default=None)

    def flush(self) -> List[RankedList]:
        self._service()
        results = self._send_all()
        for handle in self.workers:
            try:
                results.extend(self._settle(handle, self._call(handle, "flush")))
            except ShardRefused:
                pass
        return results

    def reports(self, fresh: bool = False) -> List[Dict[str, Any]]:
        """Each slot's status row, on top of its live incarnation's latest
        report (none while the worker is down, or up but not yet heard
        from); ``fresh`` asks the workers instead of settling for their
        last heartbeat's."""
        if fresh:
            self._service()
        rows = []
        for handle in self.workers:
            if fresh:
                try:
                    handle.last_report = self._call(handle, "report")
                except ShardRefused:
                    pass
            rows.append({
                **(handle.last_report or {"shard": handle.worker_id}),
                "state": handle.state,
                "pid": handle.pid,
                "generation": handle.generation,
                "restarts": handle.restarts,
                "outstanding": len(handle.outstanding) + len(handle.buffer),
            })
        return rows

    def describe(self) -> Dict[str, Any]:
        """The transport's own lines of ``Fleet.summary()``."""
        return {
            "slab_bytes": self.slab.nbytes,
            "slab": self.slab.describe(),
            "recovered_segments": list(self.recovered_segments),
        }

    def swap(self, model: RankingModel, version: Optional[str]) -> List[RankedList]:
        """Atomic generation flip: publish → verify → flip workers → unlink.

        The new slab is published and verified first (torn publishes are
        destroyed and retried; exhaustion raises :class:`SwapFailed` with
        the fleet still consistently on the old generation).  Once the new
        slab is durable (buffered requests were sent before the publish)
        the supervisor commits: every worker restart from
        here attaches the *new* generation, each live worker drains its
        batcher and flips (drain → attach → ack — no flush can mix
        versions), and the old slab is unlinked only after every live
        worker has acked.  A worker that dies or refuses mid-flip is not
        rolled back: it restarts onto the new generation, so the fleet
        converges rather than mixing.
        """
        self._service()
        drained = self._send_all()
        old_slab = self.slab
        # Commit point: restarts now attach the new generation.
        self.slab = self._publish(model, version, generation=self.generation + 1)
        for handle in self.workers:
            try:
                drained.extend(
                    self._settle(handle, self._call(handle, "swap", self.slab.name))
                )
            except ShardRefused as refused:
                if handle.state == HEALTHY:  # a nack: alive, but still on the old one
                    self._on_death(handle, reason="swap_rejected", detail=refused.reason)
        self.generation += 1
        old_slab.destroy()
        self._event(
            "slab_unlinked", segment=old_slab.name,
            generation=self.generation - 1, reason="superseded",
        )
        return drained

    # ------------------------------------------------------------------
    # shutdown and crash drill
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown: final telemetry flush, kill stragglers,
        unlink the published slab, sweep anything left."""
        if self._stopped:
            return
        self._stopped = True
        for handle in self.workers:
            try:
                handle.last_report = self._call(handle, "stop", timeout=2.0)
            except ShardRefused:
                pass
            self._reap(handle, grace_s=1.0)
            handle.state = STOPPED
        self.slab.destroy()
        sweep_orphan_slabs(events=self.events, clock=time.monotonic)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.stop()
        except Exception:
            pass

    def kill(self, shard: int, sig: int = signal.SIGKILL) -> Optional[int]:
        """Send ``sig`` to a worker process — the crash-drill entry point.

        Returns the pid signalled (None if the worker has no live process).
        Detection, telemetry harvest, re-dispatch, and restart all happen
        through the normal supervision path on the next fleet operation.
        """
        process = self.workers[shard].process
        if process is None or not process.is_alive():
            return None
        os.kill(process.pid, sig)
        process.join(timeout=2.0)
        return process.pid

"""Seeded, deterministic fault injection.

The injector is a *schedule*, not a monkey-patch: components call
``injector.fire("point", **context)`` at named injection points on their
own hot paths, and the active :class:`FaultPlan` decides — deterministically
— whether that visit sleeps, raises, tears a write, or corrupts a file.
Determinism is the whole design: each :class:`FaultSpec` keeps its own
visit counter and its own seeded RNG stream, so a given ``(plan, seed)``
injects the same faults at the same visits on every run, and a chaos soak
is an ordinary reproducible test.

Fault kinds
-----------
``latency``
    ``fire`` sleeps ``latency_ms`` through a pluggable sleeper — tests pass
    ``ManualClock.advance`` so injected latency moves simulated time with
    zero wall-clock cost.
``transient``
    ``fire`` raises :class:`TransientFault` — the retryable family
    (network blips, flaky canary replays).  Callers wrap these in
    retry-with-backoff.
``crash``
    ``fire`` raises :class:`CrashFault` — the component is gone for this
    call (a shard dying mid-batch).  Callers fail over, not retry.
``torn_write``
    ``truncate_fraction`` returns the fraction of bytes that "made it to
    disk" before the simulated crash; writers cooperate by truncating and
    then failing the write.
``corrupt``
    ``corrupt_file`` flips bytes in the middle of a file in place —
    bit rot between checkpoint save and load.

The disabled path is the shared :data:`NULL_INJECTOR` singleton (mirroring
``repro.obs.trace.NULL_TRACER``): every method is an attribute-load + no-op
call with no branching, no clock reads and no RNG draws, so a fleet built
without a plan is bitwise-identical to one built before this module existed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KNOWN_POINTS",
    "FAULT_KINDS",
    "InjectedFault",
    "TransientFault",
    "CrashFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
]

#: Injection points threaded through the stack.  ``FaultSpec`` validates
#: against this set so a typo'd point fails at plan construction, not by
#: silently never firing.
KNOWN_POINTS = frozenset(
    {
        "batcher.submit",  # MicroBatcher.submit, before admission
        "batcher.flush",  # MicroBatcher.flush, before the batched forward
        "engine.retrieve",  # SearchEngine.retrieve (cascade or sampling)
        "cascade.build",  # SearchEngine.set_model, before the index rebuild
        "swap.shard",  # ShardWorker.swap, between drain and set_model
        "registry.save_index",  # ModelRegistry._save_index (torn index writes)
        "registry.checkpoint",  # ModelRegistry.register (checkpoint corruption)
        "clicklog.append",  # ClickLog disk append (torn log records)
        "trainer.update",  # IncrementalTrainer.update entry
        "canary.judge",  # CanaryGate.judge entry
        # Process backend (repro.serving.pipe):
        "worker.spawn",  # PipeTransport spawning a worker process
        "worker.exec",  # worker request execution (crash = simulated OOM kill)
        "worker.heartbeat",  # worker heartbeat send (crash = beat lost)
        "slab.publish",  # SnapshotSlab.publish (torn_write = partial segment)
    }
)

FAULT_KINDS = ("latency", "transient", "crash", "torn_write", "corrupt")

#: Kinds surfaced through ``fire`` (the others go through
#: ``truncate_fraction`` / ``corrupt_file``).
_FIRE_KINDS = ("latency", "transient", "crash")


class InjectedFault(RuntimeError):
    """Base class for every exception the injector raises."""


class TransientFault(InjectedFault):
    """A retryable failure — the operation may succeed if repeated."""


class CrashFault(InjectedFault):
    """A component crash — fail over, don't retry in place."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *where*, *what*, and *when*.

    Parameters
    ----------
    point:
        Injection point name (must be in :data:`KNOWN_POINTS`).
    kind:
        One of :data:`FAULT_KINDS`.
    after:
        Skip this many matching visits before the fault becomes eligible
        (``after=2`` → first two visits pass clean).
    times:
        Fire at most this many times; ``None`` means every eligible visit.
    probability:
        Per-eligible-visit firing probability, drawn from the spec's own
        seeded RNG stream (1.0 = always).
    latency_ms:
        Sleep duration for ``latency`` faults.
    truncate_at:
        Fraction of bytes written before a ``torn_write`` "crash".
    match:
        Context filter — the fault only applies when every ``key: value``
        pair equals the context passed to ``fire``/``truncate_fraction``/
        ``corrupt_file`` (e.g. ``{"shard": 1}`` targets one shard).
    """

    point: str
    kind: str
    after: int = 0
    times: Optional[int] = 1
    probability: float = 1.0
    latency_ms: float = 0.0
    truncate_at: float = 0.5
    match: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; known: {sorted(KNOWN_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")
        if not 0.0 <= self.truncate_at < 1.0:
            raise ValueError(f"truncate_at must be in [0, 1), got {self.truncate_at}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` entries."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))


class _SpecState:
    """Mutable per-spec bookkeeping: visit counter + private RNG stream."""

    __slots__ = ("spec", "rng", "visits", "fired")

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        # One independent stream per spec: adding spec N+1 to a plan never
        # shifts the draws (and therefore the schedule) of specs 0..N.
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        self.visits = 0
        self.fired = 0


def _scalar(value: Any) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


class FaultInjector:
    """Executes a :class:`FaultPlan` at the stack's injection points.

    Parameters
    ----------
    plan:
        The fault schedule; ``None``/empty means armed but silent.
    sleeper:
        Callable taking seconds, used by ``latency`` faults.  Defaults to
        :func:`time.sleep`; tests pass ``ManualClock.advance`` so injected
        latency advances simulated time instead of blocking.
    clock:
        Timestamp source for the fired-fault log and event records.
        Defaults to a monotonically increasing fire counter.
    events:
        Optional :class:`repro.obs.EventLog`; every fired fault records a
        typed ``fault_injected`` event alongside the injector's own log.
    """

    enabled = True

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        events: Any = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleeper if sleeper is not None else time.sleep
        self._clock = clock
        self.events = events
        self._states = [
            _SpecState(spec, self.plan.seed, index)
            for index, spec in enumerate(self.plan.specs)
        ]
        #: Every fired fault, in firing order: ``{"point", "kind", "visit", ...ctx}``.
        self.log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _firing(
        self, point: str, ctx: Mapping[str, Any], kinds: Sequence[str]
    ) -> List[FaultSpec]:
        fired: List[FaultSpec] = []
        for state in self._states:
            spec = state.spec
            if spec.point != point or spec.kind not in kinds:
                continue
            if spec.match and any(ctx.get(key) != value for key, value in spec.match.items()):
                continue
            state.visits += 1
            if state.visits <= spec.after:
                continue
            if spec.times is not None and state.fired >= spec.times:
                continue
            if spec.probability < 1.0 and state.rng.random() >= spec.probability:
                continue
            state.fired += 1
            record: Dict[str, Any] = {
                "point": point,
                "kind": spec.kind,
                "visit": state.visits,
            }
            record.update({key: value for key, value in ctx.items() if _scalar(value)})
            self.log.append(record)
            if self.events is not None:
                # ``kind`` names the event kind positionally; the fault kind
                # travels as ``fault_kind``.
                attrs = {key: value for key, value in record.items() if key != "kind"}
                self.events.record(
                    "fault_injected", self._now(), fault_kind=spec.kind, **attrs
                )
            fired.append(spec)
        return fired

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        return float(len(self.log))

    # ------------------------------------------------------------------
    # Injection surface (what components call)
    # ------------------------------------------------------------------
    def fire(self, point: str, **ctx: Any) -> None:
        """Visit ``point``: sleep for latency faults, raise for failures.

        Latency faults sleep *before* any scheduled failure raises, so a
        plan can model "slow, then dead".
        """
        for spec in self._firing(point, ctx, _FIRE_KINDS):
            if spec.kind == "latency":
                self._sleep(spec.latency_ms / 1000.0)
            elif spec.kind == "transient":
                raise TransientFault(f"injected transient fault at {point}")
            else:
                raise CrashFault(f"injected crash at {point}")

    def truncate_fraction(self, point: str, **ctx: Any) -> Optional[float]:
        """Torn-write check: the byte fraction that survives, or ``None``."""
        specs = self._firing(point, ctx, ("torn_write",))
        return specs[0].truncate_at if specs else None

    def corrupt_file(self, point: str, path: str, **ctx: Any) -> bool:
        """Maybe flip bytes in the middle of ``path``; True if corrupted."""
        if not self._firing(point, ctx, ("corrupt",)):
            return False
        size = os.path.getsize(path)
        if size == 0:
            return True
        middle = size // 2
        span = min(64, size - middle) or 1
        with open(path, "r+b") as handle:
            handle.seek(max(0, min(middle, size - span)))
            chunk = handle.read(span)
            handle.seek(max(0, min(middle, size - span)))
            handle.write(bytes(byte ^ 0xFF for byte in chunk))
        return True

    def bind(self, **ctx: Any) -> "BoundInjector":
        """A view that merges ``ctx`` into every visit (e.g. ``shard=2``)."""
        return BoundInjector(self, dict(ctx))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fired(self, point: Optional[str] = None) -> int:
        """How many faults have fired (optionally at one point)."""
        if point is None:
            return len(self.log)
        return sum(1 for record in self.log if record["point"] == point)

    def to_jsonl(self, path: str) -> str:
        """Export the fired-fault log, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.log:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return str(path)


class BoundInjector:
    """A :class:`FaultInjector` view carrying implicit context.

    Shards bind ``shard=<id>`` once so every visit they make is targetable
    by ``FaultSpec.match`` without threading the id through call sites.
    Explicit per-call context wins over bound context on key collisions.
    Shard code only visits fire points; the persistence points
    (``truncate_fraction`` / ``corrupt_file``) and the fired-fault log are
    reached through the unbound injector.
    """

    enabled = True

    def __init__(self, base: FaultInjector, ctx: Dict[str, Any]) -> None:
        self._base = base
        self._ctx = ctx

    def fire(self, point: str, **ctx: Any) -> None:
        self._base.fire(point, **{**self._ctx, **ctx})

    def bind(self, **ctx: Any) -> "BoundInjector":
        return BoundInjector(self._base, {**self._ctx, **ctx})


class NullInjector:
    """The disabled injector: every method is a bare no-op.

    Mirrors ``repro.obs.trace.NullTracer`` — components hold a reference
    unconditionally and call through without branching, so the disabled
    fleet pays one attribute load + empty call per injection point and
    stays bitwise-identical (no RNG draws, no clock reads).
    """

    enabled = False
    log: Tuple[Dict[str, Any], ...] = ()
    events = None

    def fire(self, point: str, **ctx: Any) -> None:
        pass

    def truncate_fraction(self, point: str, **ctx: Any) -> Optional[float]:
        return None

    def corrupt_file(self, point: str, path: str, **ctx: Any) -> bool:
        return False

    def bind(self, **ctx: Any) -> "NullInjector":
        return self

    def fired(self, point: Optional[str] = None) -> int:
        return 0

    def to_jsonl(self, path: str) -> str:
        with open(path, "w", encoding="utf-8"):
            pass
        return str(path)


#: Shared no-op singleton — the default ``injector=`` everywhere.
NULL_INJECTOR = NullInjector()

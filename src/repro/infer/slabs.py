"""Shared-memory snapshot slabs: zero-copy model/index publishing.

The compiled plan packs weights into contiguous float32 buffers (PR 3) and
the cascade's :class:`~repro.retrieval.index.ItemIndex` stores each
partition as one cell-ordered slab (PR 5) precisely so a process fleet can
*map* them instead of copying them.  This module is that mapping layer: a
:class:`SnapshotSlab` serializes an arbitrary payload (model, world,
detached cascade) into **one** POSIX shared-memory segment where every
numpy array is externalized into a 64-byte-aligned data region, and
attaching the segment from a worker process reconstructs the payload with
the arrays as *read-only views* into the shared pages — the weights exist
once in physical memory no matter how many workers serve from them.

Publish protocol (crash-safe by construction)::

    segment layout:  [header 32B][pickle bytes][pad][aligned array region]

    1. pickle the payload with an externalizing pickler (arrays → offsets)
    2. create the segment, write the array region, write the pickle bytes
    3. CRC32 the whole body
    4. commit by writing the header (magic + CRC) **last**

A reader attaching mid-publish sees a missing segment or a zeroed header —
never a half-written payload — so generation flips are atomic at the
segment level: publish new → verify → flip readers → unlink old.  A torn
publish (the ``slab.publish`` ``torn_write`` fault, or a real crash
mid-write) leaves an uncommitted segment that :func:`sweep_orphan_slabs`
reclaims at the next supervisor startup.

Lifecycle is managed manually (the supervisor unlinks; the sweep catches
crashes), so segments are unregistered from the CPython resource tracker —
otherwise every *attach* registers the segment and the first worker to
exit would unlink it under the rest of the fleet (bpo-39959).
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import struct
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.faults.injector import NULL_INJECTOR

try:  # pragma: no cover - exercised implicitly on every import
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _shm = None

__all__ = [
    "SnapshotSlab",
    "SlabFormatError",
    "TornSlabError",
    "sweep_orphan_slabs",
    "shared_memory_available",
    "SLAB_PREFIX",
]

#: Segment-name prefix; the orphan sweep reclaims anything under it whose
#: creator pid is gone.  Names are ``repro_slab_<pid>_<counter>``.
SLAB_PREFIX = "repro_slab"

_MAGIC = b"RPSLAB01"
_HEADER = struct.Struct("<8sIIQQ")  # magic, version, crc32, pickle_len, total_len
_HEADER_SIZE = 32
assert _HEADER.size <= _HEADER_SIZE
_FORMAT_VERSION = 1
_ALIGN = 64
_PID_TAG = "repro-slab-ndarray"

_name_counter = itertools.count()


class SlabFormatError(ValueError):
    """The segment exists but is not a committed slab (torn or foreign)."""


class TornSlabError(RuntimeError):
    """A publish was torn partway (injected or real); the partial segment
    is attached on ``.slab`` so the caller can destroy it before retrying."""

    def __init__(self, message: str, slab: "SnapshotSlab") -> None:
        super().__init__(message)
        self.slab = slab


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class _untracked:
    """Suppress resource-tracker registration for the enclosed segment ops.

    ``SharedMemory`` registers every create *and attach* with the CPython
    resource tracker, which (a) unlinks segments when any registering
    process exits — under the rest of a fleet still serving from them —
    and (b) collapses duplicate registrations across processes into one
    set entry, so unregister-after-the-fact races KeyError noise in the
    tracker (bpo-39959).  Slab lifecycle is owned by the supervisor (and
    the orphan sweep), so registration is suppressed at the source by
    patching ``resource_tracker.register`` for the construction only —
    ``shared_memory`` resolves it as a module attribute at call time.
    """

    def __enter__(self) -> "_untracked":
        try:
            from multiprocessing import resource_tracker

            self._module = resource_tracker
            self._originals = (resource_tracker.register, resource_tracker.unregister)
            resource_tracker.register = self._skipping(self._originals[0])
            resource_tracker.unregister = self._skipping(self._originals[1])
        except Exception:
            self._module = None
        return self

    @staticmethod
    def _skipping(original: Callable) -> Callable:
        def tracked(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original(name, rtype)

        return tracked

    def __exit__(self, *exc_info: Any) -> None:
        if self._module is not None:
            self._module.register, self._module.unregister = self._originals


class _SlabPickler(pickle.Pickler):
    """Externalize every plain ndarray into the slab's array region.

    Offsets are relative to the region start (the pickle's own length is
    unknown while pickling).  Arrays are deduplicated by object identity so
    a payload holding the same weight tensor twice (e.g. ``payload["model"]``
    and the cascade's ``_model``) stores its bytes once.
    """

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: List[Tuple[int, np.ndarray]] = []
        self.cursor = 0
        self._seen: Dict[int, Tuple] = {}

    def persistent_id(self, obj: Any) -> Optional[Tuple]:
        if type(obj) is not np.ndarray or obj.dtype.hasobject:
            return None
        key = id(obj)
        if key in self._seen:
            return self._seen[key]
        array = np.ascontiguousarray(obj)
        offset = _align(self.cursor)
        self.cursor = offset + array.nbytes
        self.arrays.append((offset, array))
        pid = (_PID_TAG, offset, array.shape, array.dtype.str)
        self._seen[key] = pid
        return pid


class _SlabUnpickler(pickle.Unpickler):
    """Resolve externalized arrays to read-only views over the segment."""

    def __init__(self, file: io.BytesIO, buf: memoryview, region_start: int) -> None:
        super().__init__(file)
        self._buf = buf
        self._region = region_start
        #: Distinct persistent ids resolved (a deduplicated array is one).
        self.pids: Set[Tuple] = set()

    def persistent_load(self, pid: Tuple) -> np.ndarray:
        tag, offset, shape, dtype = pid
        if tag != _PID_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        self.pids.add(pid)
        view = np.ndarray(shape, np.dtype(dtype), buffer=self._buf, offset=self._region + offset)
        view.flags.writeable = False
        return view


class SnapshotSlab:
    """One published payload in one shared-memory segment.

    Create with :meth:`publish` (writer side) or :meth:`attach` (reader
    side).  ``payload`` holds the reconstructed object graph on the reader;
    on the writer it is the object that was published.  A reader must keep
    its handle alive for as long as any payload array view is reachable
    (:meth:`close` unmaps immediately — views do not pin the mapping); the
    kernel does keep mapped pages valid after the *writer* unlinks the
    name, so a worker mid-query during a generation flip never faults.
    """

    def __init__(
        self,
        segment: Any,
        name: str,
        payload: Any,
        nbytes: int,
        pickle_bytes: int,
        array_bytes: int,
        arrays: int,
    ) -> None:
        self._segment = segment
        self.name = name
        self.payload = payload
        #: Committed segment size (header + pickle + aligned array region).
        self.nbytes = int(nbytes)
        self.pickle_bytes = int(pickle_bytes)
        self.array_bytes = int(array_bytes)
        #: Arrays externalized into the region: each costs a pickler
        #: callback at publish and a view construction at every attach.
        self.arrays = int(arrays)

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        payload: Any,
        name: Optional[str] = None,
        injector: Any = NULL_INJECTOR,
        **fault_ctx: Any,
    ) -> "SnapshotSlab":
        """Serialize ``payload`` into a fresh committed segment.

        ``injector`` visits the ``slab.publish`` point: ``latency`` /
        ``transient`` / ``crash`` faults fire before the segment is created
        (nothing to clean up); a ``torn_write`` fault zeroes the tail of the
        body and skips the header commit, then raises :class:`TornSlabError`
        carrying the partial segment — exactly the wreckage a real crash
        mid-publish leaves behind.
        """
        if _shm is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        buffer = io.BytesIO()
        pickler = _SlabPickler(buffer)
        pickler.dump(payload)
        pickled = buffer.getvalue()
        region_start = _align(_HEADER_SIZE + len(pickled))
        total = region_start + max(pickler.cursor, _ALIGN)
        if name is None:
            name = f"{SLAB_PREFIX}_{os.getpid()}_{next(_name_counter)}"
        injector.fire("slab.publish", slab=name, **fault_ctx)
        with _untracked():
            segment = _shm.SharedMemory(name=name, create=True, size=total)
        buf = segment.buf
        for offset, array in pickler.arrays:
            if array.nbytes == 0:
                continue
            dest = np.ndarray(
                array.shape, array.dtype, buffer=buf, offset=region_start + offset
            )
            dest[...] = array
        buf[_HEADER_SIZE : _HEADER_SIZE + len(pickled)] = pickled
        crc = zlib.crc32(buf[_HEADER_SIZE:total])
        slab = cls(
            segment, name, payload, total, len(pickled), pickler.cursor, len(pickler.arrays)
        )
        fraction = injector.truncate_fraction("slab.publish", slab=name, **fault_ctx)
        if fraction is not None:
            survived = _HEADER_SIZE + int((total - _HEADER_SIZE) * fraction)
            buf[survived:total] = bytes(total - survived)
            raise TornSlabError(
                f"slab {name!r} publish torn at {survived}/{total} bytes", slab
            )
        _HEADER.pack_into(
            buf, 0, _MAGIC, _FORMAT_VERSION, crc, len(pickled), total
        )
        return slab

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, name: str) -> "SnapshotSlab":
        """Map an existing segment and reconstruct its payload (zero-copy).

        Raises ``FileNotFoundError`` if the name does not exist and
        :class:`SlabFormatError` if the segment is present but uncommitted
        or corrupt (torn publish, CRC mismatch) — the caller treats both as
        "generation not available, keep the old one".
        """
        if _shm is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        with _untracked():
            segment = _shm.SharedMemory(name=name, create=False)
        buf = segment.buf
        try:
            if len(buf) < _HEADER_SIZE:
                raise SlabFormatError(f"slab {name!r}: segment shorter than header")
            magic, version, crc, pickle_len, total = _HEADER.unpack_from(buf, 0)
            if magic != _MAGIC:
                raise SlabFormatError(f"slab {name!r}: uncommitted or foreign segment")
            if version != _FORMAT_VERSION:
                raise SlabFormatError(f"slab {name!r}: format version {version}")
            if total > len(buf) or pickle_len > total:
                raise SlabFormatError(f"slab {name!r}: header lengths exceed segment")
            if zlib.crc32(buf[_HEADER_SIZE:total]) != crc:
                raise SlabFormatError(f"slab {name!r}: body CRC mismatch")
        except SlabFormatError:
            segment.close()
            raise
        region_start = _align(_HEADER_SIZE + pickle_len)
        pickled = io.BytesIO(bytes(buf[_HEADER_SIZE : _HEADER_SIZE + pickle_len]))
        unpickler = _SlabUnpickler(pickled, buf, region_start)
        payload = unpickler.load()
        return cls(
            segment, name, payload, total, pickle_len, total - region_start,
            len(unpickler.pids),
        )

    @staticmethod
    def exists(name: str) -> bool:
        """Whether a segment with ``name`` currently exists (any state)."""
        if _shm is None:
            return False
        try:
            with _untracked():
                segment = _shm.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            return False
        segment.close()
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap this process's view.

        WARNING: numpy views over the segment do **not** pin the mapping —
        ``SharedMemory.close`` unmaps under them and any later access is a
        segfault.  Only close once nothing reachable references the
        payload's arrays (readers that swap generations must retain the
        old handle instead; see the swap op of
        ``repro.serving.pipe._worker_main``)."""
        try:
            self._segment.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the name; pages persist until every mapping closes."""
        try:
            with _untracked():
                self._segment.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        """Unlink + close: the writer-side end of a generation's life."""
        self.unlink()
        self.close()

    def describe(self) -> Dict[str, int]:
        """Memory accounting for dashboards and the fleet runbook."""
        return {
            "nbytes": self.nbytes,
            "pickle_bytes": self.pickle_bytes,
            "array_bytes": self.array_bytes,
            "arrays": self.arrays,
        }


def shared_memory_available() -> bool:
    """Whether POSIX shared memory actually works here (not just imports)."""
    if _shm is None:
        return False
    try:
        with _untracked():
            probe = _shm.SharedMemory(create=True, size=_ALIGN)
    except Exception:
        return False
    try:
        with _untracked():
            probe.unlink()
    finally:
        probe.close()
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def sweep_orphan_slabs(
    exclude: Iterable[str] = (),
    events: Any = None,
    clock: Optional[Callable[[], float]] = None,
) -> List[str]:
    """Unlink stale ``repro_slab_*`` segments left by a crashed supervisor.

    A segment is an orphan when its embedded creator pid no longer runs (or
    it is unparseable), and it is not in ``exclude`` (the caller's own live
    generations).  Segments owned by *other live* processes are left alone —
    two supervisors on one host do not reap each other.  Each reclaimed
    segment records a ``state_recovered`` event on ``events`` (satellite of
    the same recovery contract the registry and click-log honor at startup).
    """
    base = "/dev/shm"
    if not os.path.isdir(base):  # non-POSIX or exotic mount: nothing to sweep
        return []
    excluded = set(exclude)
    removed: List[str] = []
    for entry in sorted(os.listdir(base)):
        if not entry.startswith(SLAB_PREFIX + "_") or entry in excluded:
            continue
        parts = entry.split("_")
        pid = int(parts[2]) if len(parts) >= 3 and parts[2].isdigit() else None
        if pid is not None and pid != os.getpid() and _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(base, entry))
        except OSError:
            continue
        removed.append(entry)
        if events is not None:
            now = clock() if clock is not None else float(len(removed))
            events.record(
                "state_recovered",
                now,
                component="slab",
                segment=entry,
                source="orphan_sweep",
            )
    return removed

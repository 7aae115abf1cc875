"""Crash-safe file writes: tmp + rename, CRC32 checksums, torn-line recovery.

The persistence layer's contract is *the old state or the new state, never
half of either*.  Writers stage into ``<path>.tmp`` and publish with
:func:`os.replace` (atomic on POSIX and NTFS within one filesystem), so a
crash mid-write leaves the previous file untouched.  Readers that append
(JSONL logs) get :func:`recover_jsonl`, which drops undecodable lines —
the torn tail of an interrupted append — and reports how many.

Torn writes are *injectable*: pass a :class:`~repro.faults.FaultInjector`
and a point name, and a scheduled ``torn_write`` fault writes only the
configured fraction of bytes into the tmp file before raising
:class:`~repro.faults.TransientFault` — exactly the on-disk state a crash
at that byte offset would leave, with the destination file intact.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.injector import NULL_INJECTOR, TransientFault

__all__ = [
    "crc32_bytes",
    "crc32_file",
    "atomic_write_bytes",
    "recover_jsonl",
]

_CHUNK = 1 << 20


def crc32_bytes(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_file(path: str) -> int:
    """Chunked CRC32 of a file (checkpoints can be large)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def atomic_write_bytes(
    path: str,
    data: bytes,
    injector: Any = NULL_INJECTOR,
    point: Optional[str] = None,
    **ctx: Any,
) -> None:
    """Write ``data`` to ``path`` via tmp + :func:`os.replace`.

    With an armed injector and a matching ``torn_write`` fault, only the
    scheduled fraction of ``data`` lands in the tmp file and
    :class:`TransientFault` is raised; ``path`` itself is never touched by
    a torn write, so retrying the call is always safe.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp"
    fraction = None
    if point is not None:
        fraction = injector.truncate_fraction(point, **ctx)
    with open(tmp, "wb") as handle:
        if fraction is not None:
            handle.write(data[: int(len(data) * fraction)])
            handle.flush()
        else:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    if fraction is not None:
        raise TransientFault(f"injected torn write at {point} ({tmp} truncated)")
    os.replace(tmp, path)


def recover_jsonl(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL file tolerating a torn tail.

    Returns ``(records, dropped)`` where ``records`` are the lines that
    decode to JSON objects and ``dropped`` counts lines that do not — the
    signature of an append interrupted mid-line (or mid-record corruption).
    A missing file is simply ``([], 0)``.
    """
    if not os.path.exists(path):
        return [], 0
    records: List[Dict[str, Any]] = []
    dropped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                dropped += 1
                continue
            if not isinstance(record, dict):
                dropped += 1
                continue
            records.append(record)
    return records, dropped

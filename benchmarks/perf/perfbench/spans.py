"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder replaces bound methods *on instances* (``setattr`` on the object,
never on the class), so the program's source is untouched and
:meth:`Recorder.detach` restores the exact untraced code path by deleting
the instance attributes again.  The driver is single-threaded, so one stack
gives every span its parent.

A span's *self time* is its duration minus the part its children cover;
children of one parent never overlap, so self times of a tree sum to the
root's duration (``tests``: ``test_self_times_sum_to_root``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Recorder", "Span"]

# Span record layout (a list, mutated in place while the span is open).
_ID, _PARENT, _NAME, _REQUEST, _SHARD, _START, _END, _COVERED, _COUNT = range(9)


class Span:
    """Read-only view of one finished span (seconds on the recorder clock)."""

    __slots__ = ("id", "parent", "name", "request", "shard", "start", "end", "covered", "count")

    def __init__(self, record: List[Any]) -> None:
        (self.id, self.parent, self.name, self.request, self.shard,
         self.start, self.end, self.covered, self.count) = record

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Recorder:
    """Records a span around every call of each wrapped bound method."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._records: List[List[Any]] = []
        self._stack: List[int] = []
        self._wrapped: List[Tuple[Any, str]] = []
        self.origin = clock()
        #: Id of the request the driver is submitting right now (-1 outside
        #: a submit); stamped on every span opened meanwhile.
        self.request = -1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str, shard: int) -> List[Any]:
        stack = self._stack
        record = [
            len(self._records), stack[-1] if stack else -1, name, self.request, shard,
            0.0, 0.0, 0.0, 1,
        ]
        self._records.append(record)
        stack.append(record[_ID])
        record[_START] = self._clock()
        return record

    def _close(self, record: List[Any]) -> None:
        end = self._clock()
        record[_END] = end
        stack = self._stack
        stack.pop()
        if stack:
            self._records[stack[-1]][_COVERED] += end - record[_START]

    @contextmanager
    def span(self, name: str) -> Iterator[List[Any]]:
        """A span around driver code (phase roots such as
        ``driver.closed_pass``); set ``record[-1]`` to attach a count."""
        record = self._open(name, -1)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        shard: int = -1,
        count: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Record a ``name`` span around every ``obj.attr(...)`` call.

        ``count`` maps the call's result to the span's ``count`` field (rows
        scored, answers flushed, …); default 1.  Wrapping an already wrapped
        method is a no-op, so shards may share an object (the IVF index).
        """
        method = getattr(obj, attr)
        if getattr(method, "_perfbench_span", False):
            return
        open_span, close_span = self._open, self._close

        def recorded(*args: Any, **kwargs: Any) -> Any:
            record = open_span(name, shard)
            try:
                result = method(*args, **kwargs)
            finally:
                close_span(record)
            if count is not None:
                record[_COUNT] = count(result)
            return result

        recorded._perfbench_span = True
        setattr(obj, attr, recorded)
        self._wrapped.append((obj, attr))

    def detach(self) -> None:
        """Remove every wrapper: calls resolve to the class's methods again."""
        for obj, attr in self._wrapped:
            if getattr(obj.__dict__.get(attr), "_perfbench_span", False):
                delattr(obj, attr)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans() called with a span still open")
        return [Span(record) for record in self._records]

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span; times in ms since the recorder started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(self._row(span)) + "\n")

    def _row(self, span: Span) -> Dict[str, Any]:
        return {
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "request": span.request,
            "shard": span.shard,
            "start_ms": (span.start - self.origin) * 1000.0,
            "end_ms": (span.end - self.origin) * 1000.0,
            "self_ms": span.self_time * 1000.0,
            "count": span.count,
        }

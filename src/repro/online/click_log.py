"""Append-only click log and its conversion into training data.

The serving fleet appends one :class:`ClickRecord` per served ranking (the
shown items in served order plus the simulated click indicators); the
incremental trainer consumes them through a cursor, so the log doubles as a
queue with explicit **lag** accounting (sessions appended but not yet
consumed — the freshness gauge the fleet metrics report).

:func:`build_dataset` turns a window of records back into a
:class:`~repro.data.dataset.RankingDataset` using the *same* public feature
assembly (:func:`repro.data.features.assemble_sessions`) the serving
engine used to score the session — the features the model trained on are
bit-identical to the features it served with, so the online loop introduces
no training/serving skew.  Mirroring the offline protocol (§IV-A1),
clicked impressions are positives and an equal number of sampled non-clicked
impressions per session are negatives (1:1) when an ``rng`` is supplied.

With a ``path``, the log is also **durable** (PR 8): every session appends
one JSONL line, and startup replays the file through a torn-write recovery
scan (:func:`repro.utils.atomic.recover_jsonl`) — a record whose append was
cut mid-line (process crash, full disk, injected ``clicklog.append`` fault)
is dropped, the clean prefix is kept, and the file is rewritten without the
damage.  Recovered history loads as already-consumed (``lag`` counts only
this process's unread sessions) and session ids continue from the highest
recovered id, so a restart never reuses or reorders ids.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import RankingDataset
from repro.data.features import UserState, assemble_sessions
from repro.data.synthetic import World
from repro.faults.injector import NULL_INJECTOR
from repro.utils.atomic import recover_jsonl

__all__ = ["ClickRecord", "ClickLog", "build_dataset"]


@dataclass(frozen=True)
class ClickRecord:
    """One served session's feedback: shown items (served order) + clicks."""

    session_id: int
    user: int
    query_category: int
    items: np.ndarray  # (S,) 0-based item ids, in served (ranked) order
    clicks: np.ndarray  # (S,) float {0, 1}
    model_version: Optional[str]
    timestamp: float

    @property
    def num_shown(self) -> int:
        return int(self.items.size)

    @property
    def num_clicks(self) -> int:
        return int(self.clicks.sum())


class ClickLog:
    """Append-only feedback log with a consumption cursor.

    ``append`` is the serving side; ``read_new`` is the training side.  The
    distance between them is :attr:`lag` — how far the incremental trainer
    has fallen behind live traffic.

    Parameters
    ----------
    path:
        Optional JSONL file.  When set, every session is appended durably
        and an existing file is recovered at startup (torn trailing records
        dropped, file rewritten clean; see the module docstring).
    injector:
        Optional :class:`~repro.faults.FaultInjector` for the
        ``clicklog.append`` torn-write point (only meaningful with a
        ``path``).
    """

    def __init__(self, path: Optional[str] = None, injector=None) -> None:
        self._records: List[ClickRecord] = []
        self._cursor = 0
        self._next_session = 0
        self.path = None if path is None else str(path)
        self.injector = injector if injector is not None else NULL_INJECTOR
        #: Startup-recovery stats (all zero for a fresh or in-memory log).
        self.recovered_sessions = 0
        self.dropped_records = 0
        #: Torn appends absorbed so far (each also drops one record on the
        #: *next* recovery — the record after a torn line is still intact
        #: because every append starts on its own line).
        self.torn_writes = 0
        if self.path is not None and os.path.exists(self.path):
            self._recover()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @staticmethod
    def _to_json(record: ClickRecord) -> str:
        return json.dumps(
            {
                "session_id": record.session_id,
                "user": record.user,
                "query_category": record.query_category,
                "items": [int(item) for item in record.items],
                "clicks": [float(click) for click in record.clicks],
                "model_version": record.model_version,
                "timestamp": record.timestamp,
            },
            sort_keys=True,
        )

    @staticmethod
    def _from_json(payload: dict) -> ClickRecord:
        return ClickRecord(
            session_id=int(payload["session_id"]),
            user=int(payload["user"]),
            query_category=int(payload["query_category"]),
            items=np.asarray(payload["items"], dtype=np.int64),
            clicks=np.asarray(payload["clicks"], dtype=np.float32),
            model_version=payload.get("model_version"),
            timestamp=float(payload.get("timestamp", 0.0)),
        )

    def _recover(self) -> None:
        """Load an existing log file, dropping torn/corrupt trailing records.

        Recovered history is pre-consumed (the trainer that logged it
        already read it — or died with it, in which case its candidate died
        too); only a damaged file is rewritten, so a clean restart is a pure
        read.
        """
        payloads, dropped = recover_jsonl(self.path)
        records: List[ClickRecord] = []
        for payload in payloads:
            try:
                records.append(self._from_json(payload))
            except (KeyError, TypeError, ValueError):
                dropped += 1
        records.sort(key=lambda record: record.session_id)
        self._records = records
        self._cursor = len(records)
        self._next_session = records[-1].session_id + 1 if records else 0
        self.recovered_sessions = len(records)
        self.dropped_records = dropped
        if dropped:
            with open(self.path, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(self._to_json(record) + "\n")

    def _append_durable(self, record: ClickRecord) -> None:
        line = self._to_json(record) + "\n"
        fraction = self.injector.truncate_fraction(
            "clicklog.append", session=record.session_id
        )
        if fraction is not None:
            # Simulated mid-append crash: a prefix of the line reaches disk.
            # The trailing newline keeps the *next* append parseable — the
            # torn record itself is what recovery drops.
            line = line[: max(1, int(len(line) * fraction))] + "\n"
            self.torn_writes += 1
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[ClickRecord]:
        return tuple(self._records)

    @property
    def total_clicks(self) -> int:
        return sum(record.num_clicks for record in self._records)

    @property
    def lag(self) -> int:
        """Sessions appended but not yet consumed by :meth:`read_new`."""
        return len(self._records) - self._cursor

    def log_session(
        self,
        user: int,
        query_category: int,
        items: np.ndarray,
        clicks: np.ndarray,
        model_version: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> ClickRecord:
        """Append one served session's feedback; assigns the session id."""
        items = np.asarray(items)
        clicks = np.asarray(clicks, dtype=np.float32)
        if items.shape != clicks.shape:
            raise ValueError(
                f"items and clicks must align, got {items.shape} vs {clicks.shape}"
            )
        record = ClickRecord(
            session_id=self._next_session,
            user=int(user),
            query_category=int(query_category),
            items=items.copy(),
            clicks=clicks.copy(),
            model_version=model_version,
            timestamp=float(timestamp),
        )
        self._next_session += 1
        self._records.append(record)
        if self.path is not None:
            self._append_durable(record)
        return record

    def read_new(self, max_sessions: Optional[int] = None) -> List[ClickRecord]:
        """Consume (advance the cursor past) the unread records, oldest first."""
        stop = len(self._records)
        if max_sessions is not None:
            stop = min(stop, self._cursor + int(max_sessions))
        window = self._records[self._cursor : stop]
        self._cursor = stop
        return window


def build_dataset(
    world: World,
    records: Sequence[ClickRecord],
    rng: Optional[np.random.Generator] = None,
) -> Optional[RankingDataset]:
    """Training dataset from click records; ``None`` if nothing is usable.

    Sessions contribute only when they hold at least one click and one
    non-click (clickless sessions carry no ranking signal under the
    session-grouped objective, all-clicked ones no contrast).  With an
    ``rng``, negatives are downsampled to 1:1 per session, mirroring the
    offline protocol of §IV-A1; without one, every shown impression of a
    usable session is kept (the canary-holdout convention, matching the
    offline *test*-split protocol).  The dataset keeps the window's
    :class:`~repro.data.schema.SessionBatch` as ``sessions``: the canary
    replays it session by session, as serving scored it.
    """
    usable: List[ClickRecord] = []
    items: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    for record in records:
        clicks = record.clicks
        if clicks.size == 0 or clicks.max() < 1 or clicks.min() > 0:
            continue
        keep = np.arange(record.num_shown)
        if rng is not None:
            positives = np.flatnonzero(clicks == 1)
            negatives = np.flatnonzero(clicks == 0)
            count = min(positives.size, negatives.size)
            sampled = rng.choice(negatives, size=count, replace=False)
            keep = np.sort(np.concatenate([positives, sampled]))
        usable.append(record)
        items.append(record.items[keep])
        labels.append(clicks[keep])
    if not usable:
        return None
    # One assembly for the whole window, each user tabulated once.
    states = {user: UserState(world, user) for user in {record.user for record in usable}}
    sessions = assemble_sessions(
        world,
        [states[record.user] for record in usable],
        [record.query_category for record in usable],
        items,
    )
    sessions.candidate["label"] = np.concatenate(labels).astype(np.float32)
    sessions.session["session_id"] = np.array(
        [record.session_id for record in usable], dtype=np.int64
    )
    dataset = RankingDataset(meta=world.meta(), **sessions.flat())
    dataset.sessions = sessions
    return dataset

"""Versioned model registry: the source of truth for what can be deployed.

Every refresh cycle registers its candidate as an immutable, numbered
version — a checkpoint file (built on :mod:`repro.nn.serialization`, holding
weights and, when a trainer is supplied, its full optimizer state) plus
metadata: the click-log window it trained on, its canary metrics, its parent
version, and a lifecycle status::

    candidate ──canary pass──► production ──newer version──► archived
        └───────canary fail──► rejected
        └───corrupt checkpoint─► quarantined

Exactly one version is ``production`` at a time; the hot-swap deployer reads
it from here and the canary gate writes verdicts back, so the registry's
JSON index (``registry.json`` under the root directory) is a complete,
persistent audit trail of the online loop.

Persistence is **crash-safe** (PR 8): the index is written tmp+rename with
an embedded CRC32 (a torn or corrupted index is detected, quarantined to
``registry.json.corrupt``, and recovered from the ``.bak`` copy of the
previous write — or, failing that, rebuilt by scanning the checkpoint
files); every checkpoint records a CRC32 at registration, and
:meth:`ModelRegistry.load_into` verifies it — plus the finiteness of every
restored tensor — raising a typed :class:`CorruptCheckpointError` instead
of silently serving garbage weights (previously only the canary's metric
gate stood between a flipped embedding bit and production).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import zipfile

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.faults.injector import NULL_INJECTOR, TransientFault
from repro.nn import load_module, load_training_state, save_module
from repro.online.incremental import IncrementalTrainer
from repro.utils.atomic import atomic_write_bytes, crc32_bytes, crc32_file

__all__ = ["CorruptCheckpointError", "ModelVersion", "ModelRegistry"]

#: Lifecycle states of a registered version.
_STATUSES = ("candidate", "production", "archived", "rejected", "quarantined")


class CorruptCheckpointError(RuntimeError):
    """A checkpoint failed its integrity check (CRC mismatch, unreadable
    archive, or non-finite restored tensors) and must not serve."""


@dataclass
class ModelVersion:
    """Metadata of one registered checkpoint."""

    version: int
    path: str
    parent: Optional[int]
    created_at: float
    #: Click-log session window ``[start, stop)`` the version trained on
    #: (``(0, 0)`` for offline-trained seeds).
    window: Tuple[int, int] = (0, 0)
    metrics: Dict[str, float] = field(default_factory=dict)
    status: str = "candidate"
    #: CRC32 of the checkpoint file at registration time (``None`` on
    #: records written before checksums existed — back-compat).
    checksum: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        record = asdict(self)
        record["window"] = list(self.window)
        return record

    @staticmethod
    def from_json(record: Dict[str, object]) -> "ModelVersion":
        record = dict(record)
        record["window"] = tuple(record.get("window", (0, 0)))
        return ModelVersion(**record)


class ModelRegistry:
    """Directory-backed store of versioned checkpoints with one production.

    Parameters
    ----------
    root:
        Directory for checkpoint files and the ``registry.json`` index.  An
        existing index is loaded, so a registry survives process restarts.
    clock:
        Timestamp source (injectable for deterministic tests).
    injector:
        Optional :class:`~repro.faults.FaultInjector` for the
        ``registry.save_index`` (torn index write) and
        ``registry.checkpoint`` (checkpoint corruption) points.
    """

    INDEX_NAME = "registry.json"
    #: Internal retries of a torn index write (the rewrite IS the recovery:
    #: tmp+rename means the previous index is intact between attempts).
    _SAVE_ATTEMPTS = 3

    def __init__(
        self,
        root: str,
        clock: Callable[[], float] = time.time,
        injector=None,
    ) -> None:
        self.root = str(root)
        self._clock = clock
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._versions: Dict[int, ModelVersion] = {}
        #: Startup-recovery report: ``None`` after a clean load, else
        #: ``{"source": "backup"|"scan", ...}`` describing what was repaired.
        self.recovery: Optional[Dict[str, object]] = None
        #: Torn index writes absorbed by the internal retry (observability).
        self.torn_index_writes = 0
        os.makedirs(self.root, exist_ok=True)
        self._load_index()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        model: RankingModel,
        parent: Optional[int] = None,
        window: Tuple[int, int] = (0, 0),
        metrics: Optional[Dict[str, float]] = None,
        trainer: Optional[IncrementalTrainer] = None,
    ) -> ModelVersion:
        """Checkpoint ``model`` as the next version (status ``candidate``).

        With a ``trainer``, the checkpoint carries full training state
        (optimizer buffers included) so a future cycle — or process — can
        warm-start from it; otherwise only the parameters are stored.
        """
        number = self.latest_version + 1
        path = os.path.join(self.root, f"v{number:04d}.npz")
        if trainer is not None:
            if trainer.model is not model:
                raise ValueError("trainer.model must be the model being registered")
            trainer.save(path)
        else:
            save_module(model, path)
        # Checksum the bytes as written; the injection point *after* it
        # models bit rot between save and load, which is exactly what the
        # CRC verification in load_into exists to catch.
        checksum = crc32_file(path)
        self.injector.corrupt_file("registry.checkpoint", path, version=number)
        entry = ModelVersion(
            version=number,
            path=path,
            parent=parent,
            created_at=float(self._clock()),
            window=(int(window[0]), int(window[1])),
            metrics=dict(metrics or {}),
            checksum=checksum,
        )
        self._versions[number] = entry
        self._save_index()
        return entry

    def load_into(
        self,
        version: int,
        model: RankingModel,
        trainer: Optional[IncrementalTrainer] = None,
    ) -> RankingModel:
        """Restore a version's weights into ``model`` (and training state
        into ``trainer`` when the checkpoint carries it).

        Integrity-gated: the checkpoint's CRC32 is verified against the
        value recorded at registration *before* any bytes deserialize, and
        every restored tensor is checked finite afterwards — a corrupted or
        NaN-poisoned checkpoint raises :class:`CorruptCheckpointError`
        instead of silently loading garbage weights (the failure mode
        ``canary.py`` documents as able to slip past ranking metrics).
        """
        entry = self.get(version)
        if trainer is not None and trainer.model is not model:
            raise ValueError("trainer.model must be the model being restored")
        self._verify_checksum(entry)
        try:
            if trainer is not None:
                trainer.load(entry.path)
            else:
                # Training-state checkpoints prefix parameters with
                # "model."; plain ones store them flat.  Accept both.
                try:
                    load_training_state(entry.path, model)
                except KeyError:
                    load_module(model, entry.path)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise CorruptCheckpointError(
                f"checkpoint {entry.path} is unreadable: {exc}"
            ) from exc
        self._verify_finite(entry, model)
        return model

    def _verify_checksum(self, entry: ModelVersion) -> None:
        if entry.checksum is None:  # pre-checksum record — nothing to compare
            return
        if not os.path.exists(entry.path):
            raise CorruptCheckpointError(f"checkpoint {entry.path} is missing")
        actual = crc32_file(entry.path)
        if actual != int(entry.checksum):
            raise CorruptCheckpointError(
                f"checkpoint {entry.path} failed CRC32 verification "
                f"(stored {int(entry.checksum):#010x}, actual {actual:#010x})"
            )

    @staticmethod
    def _verify_finite(entry: ModelVersion, model: RankingModel) -> None:
        for name, value in model.state_dict().items():
            if not np.all(np.isfinite(value)):
                raise CorruptCheckpointError(
                    f"checkpoint {entry.path} restored non-finite values in {name!r}"
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def promote(self, version: int, metrics: Optional[Dict[str, float]] = None) -> ModelVersion:
        """Make ``version`` production; the previous production archives."""
        entry = self.get(version)
        if entry.status in ("rejected", "quarantined"):
            raise ValueError(
                f"version {version} was {entry.status} and cannot be promoted"
            )
        current = self.production
        if current is not None and current.version != version:
            current.status = "archived"
        entry.status = "production"
        if metrics is not None:
            entry.metrics.update(metrics)
        self._save_index()
        return entry

    def reject(self, version: int, metrics: Optional[Dict[str, float]] = None) -> ModelVersion:
        """Mark a candidate as failed (the canary gate blocked it)."""
        entry = self.get(version)
        if entry.status == "production":
            raise ValueError(f"version {version} is production; demote by promoting another")
        entry.status = "rejected"
        if metrics is not None:
            entry.metrics.update(metrics)
        self._save_index()
        return entry

    def quarantine(self, version: int) -> ModelVersion:
        """Mark a version's checkpoint as corrupt — it can never be promoted.

        Distinct from :meth:`reject` (a metric verdict): quarantine records
        an *integrity* failure, so the online loop's recovery path can tell
        "this model was worse" apart from "this file is damaged".
        """
        entry = self.get(version)
        if entry.status == "production":
            raise ValueError(
                f"version {version} is production; promote a replacement first"
            )
        entry.status = "quarantined"
        self._save_index()
        return entry

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, version: int) -> ModelVersion:
        if version not in self._versions:
            raise KeyError(f"unknown model version {version}")
        return self._versions[version]

    @property
    def versions(self) -> List[ModelVersion]:
        """All versions, oldest first."""
        return [self._versions[number] for number in sorted(self._versions)]

    @property
    def latest_version(self) -> int:
        """Highest registered version number (0 when empty)."""
        return max(self._versions, default=0)

    @property
    def production(self) -> Optional[ModelVersion]:
        for entry in self._versions.values():
            if entry.status == "production":
                return entry
        return None

    @property
    def num_rejected(self) -> int:
        return sum(1 for entry in self._versions.values() if entry.status == "rejected")

    def label(self, version: int) -> str:
        """Human-readable version tag (what the serving fleet is stamped with)."""
        return f"v{version:04d}"

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _index_path(self) -> str:
        return os.path.join(self.root, self.INDEX_NAME)

    def _backup_path(self) -> str:
        return self._index_path() + ".bak"

    @staticmethod
    def _canonical_versions(versions: List[Dict[str, object]]) -> bytes:
        # Canonical encoding: the CRC is computed over exactly these bytes
        # at save time and recomputed over the re-encoded records at load
        # time, so any mutation of the version list is detected.
        return json.dumps(versions, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def _save_index(self) -> None:
        versions = [entry.to_json() for entry in self.versions]
        payload = {
            "versions": versions,
            "crc32": crc32_bytes(self._canonical_versions(versions)),
        }
        data = json.dumps(payload, indent=2).encode("utf-8")
        index = self._index_path()
        if os.path.exists(index):
            # Keep the previous good index as the first-line recovery source.
            shutil.copyfile(index, self._backup_path())
        last: Optional[TransientFault] = None
        for attempt in range(self._SAVE_ATTEMPTS):
            try:
                atomic_write_bytes(
                    index,
                    data,
                    injector=self.injector,
                    point="registry.save_index",
                    attempt=attempt,
                )
                return
            except TransientFault as exc:
                # Torn write hit the tmp file only; the published index (and
                # .bak) are intact, so retrying is safe and side-effect free.
                self.torn_index_writes += 1
                last = exc
        raise last  # pragma: no cover - exhausted retries surface the fault

    def _load_index(self) -> None:
        index = self._index_path()
        versions = self._read_index_file(index)
        if versions is not None:
            for record in versions:
                entry = ModelVersion.from_json(record)
                self._versions[entry.version] = entry
            return
        if not os.path.exists(index) and not os.path.exists(self._backup_path()):
            # Fresh directory (or one with loose checkpoints but no index
            # ever written) — scan for orphaned checkpoints.
            recovered = self._rebuild_from_checkpoints()
            if recovered:
                self.recovery = {"source": "scan", "versions": sorted(self._versions)}
                self._save_index()
            return
        # The index existed but was torn/corrupt: it has been quarantined to
        # *.corrupt by _read_index_file.  Fall back to the backup copy.
        backup = self._read_index_file(self._backup_path())
        if backup is not None:
            for record in backup:
                entry = ModelVersion.from_json(record)
                self._versions[entry.version] = entry
            # The backup predates the last (torn) write; scanning picks up
            # any checkpoint registered after it was taken.
            extra = self._rebuild_from_checkpoints()
            self.recovery = {
                "source": "backup",
                "versions": sorted(self._versions),
                "rescanned": extra,
            }
        else:
            self._rebuild_from_checkpoints()
            self.recovery = {"source": "scan", "versions": sorted(self._versions)}
        self._save_index()

    def _read_index_file(self, path: str) -> Optional[List[Dict[str, object]]]:
        """Parse + CRC-validate an index file.

        Returns the version records on success.  A missing file returns
        ``None``; a torn or corrupt file is renamed to ``<path>.corrupt``
        (preserved for forensics, out of the way of recovery) and also
        returns ``None``.
        """
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            versions = payload["versions"]
            if not isinstance(versions, list):
                raise ValueError("versions is not a list")
            stored = payload.get("crc32")
            if stored is not None:
                actual = crc32_bytes(self._canonical_versions(versions))
                if int(stored) != actual:
                    raise ValueError(
                        f"index CRC mismatch (stored {int(stored):#010x}, "
                        f"actual {actual:#010x})"
                    )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            corrupt = path + ".corrupt"
            try:
                os.replace(path, corrupt)
            except OSError:  # pragma: no cover - rename best-effort
                pass
            self.recovery = {"source": "pending", "error": str(exc)}
            return None
        return versions

    def _rebuild_from_checkpoints(self) -> List[int]:
        """Scan the root for ``v%04d.npz`` checkpoints not in the index.

        Readable files become ``candidate`` entries (lifecycle status was
        lost with the index, so nothing is assumed production); unreadable
        ones are renamed ``*.corrupt``.  Returns the recovered version
        numbers.
        """
        recovered: List[int] = []
        for name in sorted(os.listdir(self.root)):
            matched = re.fullmatch(r"v(\d{4})\.npz", name)
            if matched is None:
                continue
            number = int(matched.group(1))
            if number in self._versions:
                continue
            path = os.path.join(self.root, name)
            try:
                checksum = crc32_file(path)
                with np.load(path) as archive:
                    if not archive.files:
                        raise ValueError("empty checkpoint archive")
            except (OSError, ValueError, zipfile.BadZipFile):
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:  # pragma: no cover - rename best-effort
                    pass
                continue
            self._versions[number] = ModelVersion(
                version=number,
                path=path,
                parent=None,
                created_at=float(os.path.getmtime(path)),
                status="candidate",
                checksum=checksum,
            )
            recovered.append(number)
        return recovered

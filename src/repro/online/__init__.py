"""``repro.online`` — the online learning loop (serve → learn → deploy).

The paper's AW-MoE is a *deployed* ranker: it is refreshed continuously from
live click logs, not trained once offline (§III-F).  This package closes
that loop over the serving subsystem of :mod:`repro.serving`::

    traffic ──► Fleet ───────────rankings──► click model (position-biased)
                     ▲                            │
                     │ hot swap                   ▼ clicks
                model registry ◄── register ── click log (append-only)
                     │ promote/reject             │ windowed read
                  canary gate ◄── candidate ── incremental trainer
                                                  (warm-start AdamW)

* :mod:`~repro.online.click_model` — position-based click simulation
  (examination × ground-truth relevance) on served rankings;
* :mod:`~repro.online.click_log` — append-only feedback log with lag
  accounting and skew-free conversion back into training data;
* :mod:`~repro.online.incremental` — streaming warm-start trainer that
  preserves AdamW moment/step state across refresh cycles and checkpoints;
* :mod:`~repro.online.registry` — versioned checkpoint store with a
  candidate → production/rejected/quarantined lifecycle and a crash-safe
  (tmp+rename, CRC-verified, backup+scan-recovered) persistent JSON index;
* :mod:`~repro.online.canary` — AUC/NDCG regression gate replaying held-out
  traffic through candidate and production before any promotion;
* :mod:`~repro.online.loop` — the orchestrator running full refresh cycles
  and hot-swapping promoted versions into the fleet with zero downtime.
"""

from repro.online.canary import CanaryGate, CanaryReport
from repro.online.click_log import ClickLog, ClickRecord, build_dataset
from repro.online.click_model import ClickModelConfig, PositionBiasedClickModel
from repro.online.incremental import IncrementalTrainer
from repro.online.loop import CycleReport, OnlineLoop
from repro.online.registry import CorruptCheckpointError, ModelRegistry, ModelVersion

__all__ = [
    "CorruptCheckpointError",
    "CanaryGate",
    "CanaryReport",
    "ClickLog",
    "ClickRecord",
    "build_dataset",
    "ClickModelConfig",
    "PositionBiasedClickModel",
    "IncrementalTrainer",
    "CycleReport",
    "OnlineLoop",
    "ModelRegistry",
    "ModelVersion",
]

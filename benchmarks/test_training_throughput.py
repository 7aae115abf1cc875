"""Training-throughput benchmark: the fast path beside the eager reference.

Runs what the serve→learn→swap loop actually pays for (§III-F): ``train_step``
over one epoch of the AW-MoE contrastive configuration, and a full
:class:`~repro.online.incremental.IncrementalTrainer` refresh cycle.  The
fast path (``TrainConfig.fast_path``) runs packed-expert GEMMs, fused linear
kernels, the shared-trunk contrastive pair, and the gradient-buffer arena;
the eager path is the bitwise-reproducible reference.

Asserted: after one epoch over identical batches and rng streams the two
paths' losses agree.  The steps/sec and seconds columns are one reading each,
written to ``benchmarks/artifacts/training_throughput.json``; training speed
is judged by ``benchmarks/perf/run.py`` (``train_rows_per_s``, ``refresh_s``).

``REPRO_SMOKE=1`` shrinks the dataset so CI can run the training path on
every push.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import ModelConfig, TrainConfig, build_model
from repro.core.trainer import build_optimizers, build_strategy, train_step
from repro.data import WorldConfig, make_search_datasets
from repro.data.dataset import iterate_batches
from repro.nn import GradArena
from repro.online import IncrementalTrainer
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TRAIN_SESSIONS = 400 if SMOKE else 2000
REFRESH_SESSIONS = 120 if SMOKE else 500
BATCH_SIZE = 256
_SUFFIX = "_smoke" if SMOKE else ""
ARTIFACT = Path(__file__).parent / "artifacts" / f"training_throughput{_SUFFIX}.json"


def _train_config(fast: bool) -> TrainConfig:
    # The paper's training configuration: contrastive learning on, mask
    # augmentation — the heaviest (and production-default) step.
    return TrainConfig(
        epochs=1,
        batch_size=BATCH_SIZE,
        learning_rate=1.5e-3,
        contrastive=True,
        fast_path=fast,
    )


def _steps_per_second(model, batches, config) -> tuple:
    optimizer = build_optimizers(model, config)
    strategy = build_strategy(config)
    bank = SeedBank(7)
    cl_rng = bank.child("cl")
    arena = GradArena() if config.fast_path else None
    model.train()
    for batch in batches[:2]:  # warm caches, arena, BLAS threads
        train_step(model, batch, config, optimizer, strategy, cl_rng, arena)
    start = time.perf_counter()
    for batch in batches:
        metrics = train_step(model, batch, config, optimizer, strategy, cl_rng, arena)
    return len(batches) / (time.perf_counter() - start), metrics["loss"]


def test_training_throughput():
    world, train, _ = make_search_datasets(
        WorldConfig.small(), TRAIN_SESSIONS, 50, seed=3
    )
    bank = SeedBank(101)
    batches = list(
        iterate_batches(train, BATCH_SIZE, rng=bank.child("shuffle"), drop_last=True)
    )
    assert len(batches) >= 2, "world too small to fill two training batches"

    results = {}
    for label, fast in (("eager", False), ("fast", True)):
        model = build_model(
            "aw_moe", ModelConfig.small(), train.meta, SeedBank(101).child("model")
        )
        sps, loss = _steps_per_second(model, batches, _train_config(fast))
        results[label] = {"steps_per_sec": sps, "final_loss": loss}

    # -- refresh-cycle wall time (the online loop's unit of work) ---------
    _, refresh_window, _ = make_search_datasets(
        WorldConfig.small(), REFRESH_SESSIONS, 20, seed=11
    )
    refresh = {}
    for label, fast in (("eager", False), ("fast", True)):
        model = build_model(
            "aw_moe", ModelConfig.small(), refresh_window.meta, SeedBank(55).child("model")
        )
        trainer = IncrementalTrainer(model, _train_config(fast), seed=5)
        start = time.perf_counter()
        trainer.update(refresh_window)
        refresh[label] = {"seconds": time.perf_counter() - start}

    # The two paths optimize the same objective: after one epoch over
    # identical batches and rng streams the losses must agree tightly (the
    # bitwise parity claims live in tests/core/test_fast_training.py).
    assert np.isclose(
        results["fast"]["final_loss"], results["eager"]["final_loss"], rtol=5e-3
    ), "fast path diverged from the eager objective"

    report = {
        "smoke": SMOKE,
        "train_sessions": TRAIN_SESSIONS,
        "batch_size": BATCH_SIZE,
        "train_step": {
            "eager_steps_per_sec": results["eager"]["steps_per_sec"],
            "fast_steps_per_sec": results["fast"]["steps_per_sec"],
        },
        "refresh_cycle": {
            "sessions": REFRESH_SESSIONS,
            "eager_seconds": refresh["eager"]["seconds"],
            "fast_seconds": refresh["fast"]["seconds"],
        },
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2))

    print_table(
        ["Path", "eager", "fast"],
        [
            [
                "train_step throughput",
                f"{results['eager']['steps_per_sec']:.1f} steps/s",
                f"{results['fast']['steps_per_sec']:.1f} steps/s",
            ],
            [
                "refresh-cycle wall time",
                f"{refresh['eager']['seconds']:.2f} s",
                f"{refresh['fast']['seconds']:.2f} s",
            ],
        ],
        title=f"Training throughput — artifact: {ARTIFACT.name}"
        + (" [smoke]" if SMOKE else ""),
    )

"""Training-throughput benchmark: the fast path beside the eager reference.

Runs what the serve→learn→swap loop actually pays for (§III-F): ``train_step``
over one epoch of the AW-MoE contrastive configuration, and a full
:class:`~repro.online.incremental.IncrementalTrainer` refresh cycle.  The
fast path (``TrainConfig.fast_path``) runs AW-MoE's compiled train step
(:func:`repro.infer.compile_train_step`); the eager path is the
bitwise-reproducible reference.  A batch-size sweep (8 / 32 / 128 / 256)
records the median ms per step of both paths, their fixed-plus-per-row fit,
and the compiled step's persistent buffer bytes.

Asserted: after one epoch over identical batches and rng streams the two
paths' losses agree.  Every timing is one reading, written to
``benchmarks/artifacts/training_throughput.json`` and printed, never gated;
training speed is judged by ``benchmarks/perf/run.py`` (``train_rows_per_s``,
``refresh_s``).

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
from repro.infer import compile_train_step
from repro.online import IncrementalTrainer
from repro.utils import SeedBank, print_table

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TRAIN_SESSIONS = 400 if SMOKE else 2000
REFRESH_SESSIONS = 120 if SMOKE else 500
BATCH_SIZE = 256
SWEEP_SIZES = (8, 32, 128, 256)
SWEEP_STEPS = 5 if SMOKE else 40
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
    model.train()
    for batch in batches[:2]:  # warm caches, the compiled step's arena, BLAS threads
        train_step(model, batch, config, optimizer, strategy, cl_rng)
    start = time.perf_counter()
    for batch in batches:
        metrics = train_step(model, batch, config, optimizer, strategy, cl_rng)
    return len(batches) / (time.perf_counter() - start), metrics["loss"]


def _sweep(train) -> dict:
    """Median ms per step of the compiled and the eager step at each batch
    size (after two warm-up steps), a least-squares ``fixed + per_row·B``
    fit of each, and the compiled step's arena bytes after the sweep."""
    rng = np.random.default_rng(17)
    batches = {
        size: [train.batch_at(rng.choice(len(train), size, replace=False)) for _ in range(SWEEP_STEPS + 2)]
        for size in SWEEP_SIZES
    }
    sweep = {"batch_sizes": list(SWEEP_SIZES)}
    for label, fast in (("compiled", True), ("eager", False)):
        config = _train_config(fast)
        model = build_model("aw_moe", ModelConfig.small(), train.meta, SeedBank(101).child("model"))
        optimizer, strategy = build_optimizers(model, config), build_strategy(config)
        cl_rng = np.random.default_rng(19)
        compiled = compile_train_step(model, optimizer) if fast else None
        model.train()
        medians = []
        for size in SWEEP_SIZES:
            elapsed = []
            for batch in batches[size]:
                start = time.perf_counter()
                if compiled is None:
                    train_step(model, batch, config, optimizer, strategy, cl_rng)
                else:
                    compiled(batch, optimizer, strategy, cl_rng)
                elapsed.append(time.perf_counter() - start)
            medians.append(float(np.median(elapsed[2:])) * 1000.0)
        per_row, fixed = np.polyfit(SWEEP_SIZES, medians, 1)
        sweep[label] = {"ms_per_step": medians, "fixed_ms": fixed, "per_row_ms": per_row}
        if compiled is not None:
            sweep["compiled_buffer_bytes"] = compiled.nbytes
    return sweep


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

    sweep = _sweep(train)
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
        "step_sweep": sweep,
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
    print_table(
        ["Batch", "compiled ms/step", "eager ms/step"],
        [
            [size, f"{compiled:.2f}", f"{eager:.2f}"]
            for size, compiled, eager in zip(
                SWEEP_SIZES, sweep["compiled"]["ms_per_step"], sweep["eager"]["ms_per_step"]
            )
        ]
        + [
            [
                "fixed + per row",
                f"{sweep['compiled']['fixed_ms']:.2f} + {sweep['compiled']['per_row_ms']:.4f}·B",
                f"{sweep['eager']['fixed_ms']:.2f} + {sweep['eager']['per_row_ms']:.4f}·B",
            ]
        ],
        title=f"Train-step sweep — compiled step buffers {sweep['compiled_buffer_bytes'] / 2**20:.2f} MiB",
    )

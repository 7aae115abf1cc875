"""Streaming incremental trainer: warm-start refreshes from click feedback.

Production rankers are not retrained from scratch — each refresh cycle
continues optimizing the previous deployment's weights on the newest slice
of the click log (§III-F; the same continuous-update story as AMoE and the
Yandex system).  :class:`IncrementalTrainer` wraps the exact per-batch update
of :func:`repro.core.trainer.train_step` and holds its AdamW optimizer
**across** :meth:`update` calls, so the Adam moment estimates and bias-
correction step counts carry over between cycles instead of resetting (a
cold optimizer on warm weights wastes the first hundreds of steps
re-estimating curvature).

Checkpointing goes through :func:`repro.nn.serialization.save_training_state`:
model parameters, the optimizer's buffers, and the update counter travel
together, so ``save → load → update`` is bitwise-identical to never having
stopped (``tests/online/test_incremental.py`` asserts this).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.config import TrainConfig
from repro.core.ranking_model import RankingModel
from repro.core.trainer import build_optimizers, build_strategy, train_step
from repro.data.dataset import RankingDataset, iterate_batches
from repro.faults.injector import NULL_INJECTOR
from repro.nn import load_training_state, save_training_state
from repro.obs import NULL_TRACE, MetricsRegistry
from repro.utils.logging import RunLog
from repro.utils.rng import SeedBank

__all__ = ["IncrementalTrainer"]


class IncrementalTrainer:
    """Warm-start mini-batch trainer over successive click-log windows.

    Parameters
    ----------
    model:
        The training twin of the production model.  It is mutated in place
        by :meth:`update`; deployments should go through the model registry
        (register → canary → load a fresh serving copy), never by handing
        this object to the fleet directly.
    config:
        The same :class:`~repro.core.config.TrainConfig` the offline trainer
        uses; ``epochs`` is the number of passes per refresh window.
    seed:
        Root seed.  Every update derives its shuffle / contrastive streams
        from ``(seed, update_index)``, which makes a restored trainer's next
        update identical to an uninterrupted one.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  When attached, every
        train step streams its wall-clock (``train_step_ms``), loss
        (``train_loss``), and pre-clip gradient norm (``train_grad_norm``)
        into fixed-size histograms, plus the ``train_steps_total`` /
        ``train_positions_total`` / ``train_padded_positions_total``
        counters — the learning-loop half of the fleet's telemetry.
    injector:
        Optional :class:`~repro.faults.FaultInjector`; :meth:`update` visits
        the ``trainer.update`` point at entry, so a chaos plan can make a
        refresh fail transiently before any weight moves (the online loop
        retries it with backoff).
    """

    def __init__(
        self,
        model: RankingModel,
        config: TrainConfig,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        injector=None,
    ) -> None:
        if config.contrastive and not model.supports_contrastive:
            raise TypeError(
                f"contrastive training requested but {type(model).__name__} "
                "has no gate network"
            )
        self.model = model
        self.config = config
        self.seed = int(seed)
        self.metrics = metrics
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.optimizer = build_optimizers(model, config)
        self.strategy = build_strategy(config)
        self.updates = 0
        self.total_steps = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @property
    def min_batch_rows(self) -> int:
        """The fewest rows a batch must hold to train: ``l + 1`` under the
        contrastive objective (``l`` in-batch negatives besides the anchor),
        else 1.  A window smaller than this trains nothing."""
        return self.config.num_negatives + 1 if self.config.contrastive else 1

    def update(
        self,
        dataset: RankingDataset,
        log: Optional[RunLog] = None,
        trace=NULL_TRACE,
    ) -> RunLog:
        """One refresh cycle: ``config.epochs`` passes over ``dataset``.

        Windows smaller than ``config.batch_size`` train as a single full
        batch (a refresh must never be silently skipped because traffic was
        light); under the contrastive objective, batches too small for
        in-batch negative sampling are dropped instead.

        ``trace`` accepts the refresh cycle's :class:`~repro.obs.Trace`:
        each epoch becomes a child span (nested under the caller's open
        ``train`` span) carrying its mean loss and gradient norm and the work
        it did — ``steps``, the valid behaviour ``positions`` processed and the
        ``padded_positions`` (rows × M) they were cut from, exact counts — so a
        refresh trace shows *where inside training* the time and the loss
        went, not just that training happened.
        """
        self.injector.fire("trainer.update", update=self.updates)
        if log is None:
            log = RunLog(name=f"{type(self.model).__name__}-update{self.updates}")
        bank = SeedBank(self.seed)
        shuffle_rng = bank.child(f"update-{self.updates}-shuffle")
        cl_rng = bank.child(f"update-{self.updates}-contrastive")
        batch_size = min(self.config.batch_size, len(dataset))
        min_rows = self.min_batch_rows
        self.model.train()
        step = 0
        for epoch in range(self.config.epochs):
            epoch_steps = positions = padded = 0
            loss_sum = 0.0
            grad_norm_sum = 0.0
            with trace.span("epoch", index=epoch) as epoch_span:
                for batch in iterate_batches(dataset, batch_size, rng=shuffle_rng):
                    if batch["label"].shape[0] < min_rows:
                        continue
                    step += 1
                    step_start = time.perf_counter()
                    metrics = train_step(
                        self.model,
                        batch,
                        self.config,
                        self.optimizer,
                        self.strategy,
                        cl_rng,
                    )
                    log.log(step, epoch=epoch, **metrics)
                    epoch_steps += 1
                    mask = batch["behavior_mask"]
                    valid = int(np.count_nonzero(mask))
                    positions += valid
                    padded += mask.size
                    loss_sum += metrics["loss"]
                    grad_norm_sum += metrics.get("grad_norm", 0.0)
                    if self.metrics is not None:
                        self._record_step_metrics(
                            (time.perf_counter() - step_start) * 1000.0, metrics, valid, mask.size
                        )
                if epoch_steps:
                    epoch_span.set(
                        steps=epoch_steps,
                        positions=positions,
                        padded_positions=padded,
                        mean_loss=loss_sum / epoch_steps,
                        mean_grad_norm=grad_norm_sum / epoch_steps,
                    )
        self.model.eval()
        self.updates += 1
        self.total_steps += step
        return log

    def _record_step_metrics(
        self, elapsed_ms: float, metrics: dict, positions: int, padded: int
    ) -> None:
        registry = self.metrics
        registry.counter("train_steps_total", "train steps across all refreshes").inc()
        registry.counter("train_positions_total", "valid behaviour positions trained").inc(positions)
        registry.counter("train_padded_positions_total", "rows x M they were cut from").inc(padded)
        registry.histogram("train_step_ms", "per-step training wall-clock (ms)").record(
            elapsed_ms
        )
        registry.histogram("train_loss", "per-step training loss").record(
            max(metrics["loss"], 0.0)
        )
        if "grad_norm" in metrics:
            registry.histogram("train_grad_norm", "pre-clip global gradient norm").record(
                metrics["grad_norm"]
            )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Checkpoint weights, optimizer state, and the update counters."""
        save_training_state(
            path,
            self.model,
            self.optimizer,
            extra={
                "updates": self.updates,
                "total_steps": self.total_steps,
                "seed": self.seed,
            },
        )

    def load(self, path: str) -> None:
        """Restore a :meth:`save` checkpoint; continuing is then bitwise-
        identical to never having stopped."""
        extra = load_training_state(path, self.model, self.optimizer)
        self.updates = int(extra.get("updates", 0))
        self.total_steps = int(extra.get("total_steps", 0))
        if "seed" in extra and int(extra["seed"]) != self.seed:
            raise ValueError(
                f"checkpoint was trained under seed {int(extra['seed'])}, "
                f"trainer configured with {self.seed}"
            )

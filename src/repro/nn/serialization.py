"""Checkpointing: model state dicts, optimizer state, and full training state.

Two layers of API:

* :func:`save_state` / :func:`load_state` — flat ``name -> array`` dicts as
  ``.npz`` archives (the storage primitive everything else builds on);
* :func:`save_module` / :func:`load_module` — model parameters only (enough
  for inference / serving);
* :func:`optimizer_state` / :func:`load_optimizer_state` — the mutable state
  of an :class:`~repro.nn.optim.AdamW` (step count, learning rate, moment
  buffers), keyed by parameter *index* within the optimizer's list: the
  keys predate the flat moment buffers and read / write their per-index
  views; a parameter that never had a gradient has none (loads as zeros);
* :func:`save_training_state` / :func:`load_training_state` — one archive
  holding model parameters, the optimizer's state (if any), and arbitrary
  scalar ``extra`` metadata.  This is what warm-start / incremental training
  (:mod:`repro.online.incremental`) checkpoints between refresh cycles: a
  restore followed by more training is bitwise-identical to never having
  stopped, because the Adam moment estimates and bias-correction step counts
  survive the round trip.

Optimizer moment buffers are only meaningful when the restored optimizer was
built over the same parameters in the same order — which holds whenever the
model is reconstructed from the same config, as ``Module`` registration
order is deterministic.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import AdamW

__all__ = [
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "optimizer_state",
    "load_optimizer_state",
    "save_training_state",
    "load_training_state",
]

def save_state(state: Dict[str, np.ndarray], path: str) -> None:
    """Write a flat state dict to ``path`` (``.npz`` appended if missing)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state`."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def save_module(module: Module, path: str) -> None:
    """Checkpoint all parameters of ``module``."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Restore parameters saved with :func:`save_module` into ``module``."""
    module.load_state_dict(load_state(path))
    return module


# ----------------------------------------------------------------------
# optimizer state
# ----------------------------------------------------------------------
def optimizer_state(optimizer: AdamW) -> Dict[str, np.ndarray]:
    """Flat state dict of an optimizer's mutable state.

    Captures the step count (Adam bias correction), the current learning
    rate, and copies of the moments of every parameter that ever had a
    gradient, keyed by its index in ``optimizer.params``.
    """
    state: Dict[str, np.ndarray] = {
        "step_count": np.asarray(optimizer._step_count, dtype=np.int64),
        "lr": np.asarray(optimizer.lr, dtype=np.float64),
    }
    for slot, views in (("m", optimizer._m), ("v", optimizer._v)):
        for index in sorted(optimizer._seen):
            state[f"{slot}.{index}"] = views[index].copy()
    return state


def load_optimizer_state(optimizer: AdamW, state: Dict[str, np.ndarray]) -> AdamW:
    """Restore :func:`optimizer_state` output into ``optimizer`` in place.

    The optimizer must manage the same parameter list (same count, same
    shapes) it was saved with; buffer shape mismatches raise.
    """
    optimizer._step_count = int(state["step_count"])
    optimizer.lr = float(state["lr"])
    moments = {"m": optimizer._m, "v": optimizer._v}
    for flat in optimizer._flats:
        flat.m.fill(0.0)
        flat.v.fill(0.0)
    optimizer._seen.clear()
    for name, value in state.items():
        slot, _, index = name.partition(".")
        if slot not in moments:
            continue
        index = int(index)
        if index >= len(optimizer.params):
            raise ValueError(
                f"optimizer state references parameter {index} but the "
                f"optimizer holds only {len(optimizer.params)}"
            )
        expected = optimizer.params[index].data.shape
        if value.shape != expected:
            raise ValueError(
                f"buffer shape mismatch for {name}: "
                f"checkpoint {value.shape} vs parameter {expected}"
            )
        moments[slot][index][...] = value
        optimizer._seen.add(index)
    return optimizer


# ----------------------------------------------------------------------
# full training state (model + optimizer + metadata)
# ----------------------------------------------------------------------
def save_training_state(
    path: str,
    module: Module,
    optimizer: Optional[AdamW] = None,
    extra: Optional[Dict[str, float]] = None,
) -> None:
    """Checkpoint model parameters, optimizer state, and scalar metadata.

    ``extra`` holds scalars the caller needs to resume exactly (e.g. the
    incremental trainer's update counter); they round-trip as floats.  The
    archive counts its optimizers (``num_optimizers``: 0 or 1) and prefixes
    the one's state ``optim0.``.
    """
    state: Dict[str, np.ndarray] = {
        f"model.{name}": value for name, value in module.state_dict().items()
    }
    state["num_optimizers"] = np.asarray(int(optimizer is not None), dtype=np.int64)
    if optimizer is not None:
        for name, value in optimizer_state(optimizer).items():
            state[f"optim0.{name}"] = value
    for name, value in (extra or {}).items():
        state[f"extra.{name}"] = np.asarray(float(value), dtype=np.float64)
    save_state(state, path)


def load_training_state(
    path: str, module: Module, optimizer: Optional[AdamW] = None
) -> Dict[str, float]:
    """Restore :func:`save_training_state`; returns the ``extra`` metadata.

    Without an ``optimizer`` only the model is restored (e.g. for serving);
    with one, the checkpoint must hold an optimizer state.
    """
    state = load_state(path)
    saved_optimizers = int(state.pop("num_optimizers", np.asarray(0)))
    if optimizer is not None and saved_optimizers != 1:
        raise ValueError(
            f"checkpoint holds {saved_optimizers} optimizer states, caller passed one"
        )
    module.load_state_dict(
        {
            name[len("model.") :]: value
            for name, value in state.items()
            if name.startswith("model.")
        }
    )
    if optimizer is not None:
        load_optimizer_state(
            optimizer,
            {
                name[len("optim0.") :]: value
                for name, value in state.items()
                if name.startswith("optim0.")
            },
        )
    return {
        name[len("extra.") :]: float(value)
        for name, value in state.items()
        if name.startswith("extra.")
    }

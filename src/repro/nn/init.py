"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so every model in
the reproduction is deterministic given a seed (see ``repro.utils.rng``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["zeros", "normal", "he_normal"]


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float32)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Gaussian initialization with the given standard deviation."""
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 2:
        raise ValueError(f"fan-in/fan-out requires >= 2 dimensions, got {shape}")
    fan_in = int(np.prod(shape[:-1]))
    fan_out = shape[-1]
    return fan_in, fan_out


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization for ReLU layers."""
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)

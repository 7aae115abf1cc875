"""Deterministic random-number management.

Every stochastic component in the reproduction (weight init, data generation,
masking augmentation, negative sampling) draws from a named child
generator derived from one experiment seed, so results are reproducible and
components do not perturb each other's streams when code is added or removed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeedBank"]


class SeedBank:
    """Derive independent, named random generators from a root seed.

    Examples
    --------
    >>> bank = SeedBank(7)
    >>> init_rng = bank.child("model-init")
    >>> data_rng = bank.child("data")

    Calling :meth:`child` twice with the same name returns generators with the
    same stream, which makes component-level reproducibility explicit.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def child(self, name: str) -> np.random.Generator:
        """Return a generator whose stream depends on (root seed, name)."""
        digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
        derived = np.random.SeedSequence(
            entropy=self.seed, spawn_key=tuple(int(b) for b in digest)
        )
        return np.random.default_rng(derived)

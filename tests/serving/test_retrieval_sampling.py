"""Popularity-weighted candidate sampling without a cascade.

``SearchEngine.retrieve`` draws ``k`` members of the query category without
replacement by an exponential race (keys ``E / p``, ``E ~ Exp(1)``, the ``k``
smallest win).  Its contract is successive sampling — the distribution of
``rng.choice(members, k, replace=False, p=p)`` — so the engine's empirical
inclusion frequencies are checked against the exact successive-sampling
inclusion probabilities, enumerated over every ordered draw.
"""

import itertools

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.serving import SearchEngine

#: A deliberately skewed 6-item prior: a uniform sampler (inclusion 1/2
#: each) misses the head item's ≈ 0.88 by over a hundred standard errors.
WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0, 1.0, 0.5])
K = 3
DRAWS = 20_000


def exact_inclusion(probs: np.ndarray, k: int) -> np.ndarray:
    """P(item i is among k successive draws without replacement)."""
    inclusion = np.zeros(probs.size)
    for order in itertools.permutations(range(probs.size), k):
        chance, left = 1.0, 1.0
        for item in order:
            chance *= probs[item] / left
            left -= probs[item]
        inclusion[list(order)] += chance
    return inclusion


@pytest.fixture()
def engine_factory(unit_world, train_set):
    """Engines over the unit world whose category 0 is the 6-item skewed
    category above (rebound tables; the world's own stay untouched)."""
    model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
    members = unit_world.category_items[0][: WEIGHTS.size]
    probs = WEIGHTS / WEIGHTS.sum()

    def make(seed, k=K):
        engine = SearchEngine(
            unit_world, model, np.random.default_rng(seed), candidates_per_query=k, compile=False
        )
        engine._by_category = (members, *engine._by_category[1:])
        engine._category_inv_probs = (1.0 / probs, *engine._category_inv_probs[1:])
        return engine

    return make, members, probs


def test_world_race_scale_is_reciprocal_prior(unit_world):
    for probs, inverse in zip(
        unit_world.category_popularity, unit_world.category_inverse_popularity
    ):
        np.testing.assert_array_equal(inverse, 1.0 / probs)


def test_inclusion_matches_successive_sampling(engine_factory):
    make, members, probs = engine_factory
    engine = make(seed=2029)
    draws = np.stack([engine.retrieve(0) for _ in range(DRAWS)])

    assert draws.shape == (DRAWS, K)
    assert np.isin(draws, members).all()
    ordered = np.sort(draws, axis=1)
    assert (np.diff(ordered, axis=1) > 0).all()  # k distinct ids per call

    expected = exact_inclusion(probs, K)
    assert expected.sum() == pytest.approx(K)
    observed = (draws[..., None] == members).any(axis=1).mean(axis=0)
    stderr = np.sqrt(expected * (1.0 - expected) / DRAWS)
    assert np.all(np.abs(observed - expected) < 5.0 * stderr), (observed, expected)


def test_equal_seeds_give_equal_candidates(engine_factory):
    make, _, _ = engine_factory
    first, second = make(seed=11), make(seed=11)
    for _ in range(50):
        np.testing.assert_array_equal(first.retrieve(0), second.retrieve(0))


def test_small_category_returns_inventory_without_drawing(engine_factory):
    make, members, _ = engine_factory
    engine = make(seed=3, k=members.size)
    before = engine._rng.bit_generator.state
    np.testing.assert_array_equal(engine.retrieve(0), members)
    assert engine._rng.bit_generator.state == before

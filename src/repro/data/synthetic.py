"""Synthetic JD-search-like world generator.

The paper's in-house dataset is proprietary, so this module builds a
generative stand-in that plants exactly the structure the paper's method
exploits:

* **Personalized feature-interaction patterns** — every user has a latent
  *archetype* (price-sensitive, brand-loyal, trend-follower, quality-seeker).
  The ground-truth purchase probability combines features *differently per
  archetype*, and the archetype is **not** exposed as an input feature: it is
  only recoverable from the user's behaviour sequence.  A single shared FFN
  therefore cannot represent the label function well, while a mixture whose
  gate reads the behaviour sequence (AW-MoE) can — this is Fig. 1's argument.
* **Category-new vs category-old behaviour (Fig. 2)** — when the user has no
  history in the target item's category, the label depends on popularity and
  price (following the general trend); with history it depends on the
  archetype-specific and two-sided features.  This mirrors the paper's
  XGBoost feature-importance observation.
* **Long-tail users (§III-D)** — activity is heavy-tailed and correlated with
  an age group; elderly users have systematically shorter histories.  This
  yields the two long-tail test sets of Tables III–IV.
* **Style affinity** — every item has a 1-D style coordinate; every user a
  preferred style that shapes their history.  The label rewards target items
  whose style matches the user's, and the preference is *only* recoverable
  from the behaviour sequence (it is not a cross feature) — this is the
  signal target-aware attention (DIN, Eq. 3) extracts better than sum
  pooling.
* **Per-category interaction weights** — the popularity/price effects are
  modulated by category-specific weights, giving the category-specialized
  experts of Category-MoE [34] their advantage over single-FFN models, as in
  the paper's Tables II–V ordering.

Everything is deterministic given the ``numpy.random.Generator`` passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.data.dataset import RankingDataset
from repro.data.features import ItemSlab, UserState, assemble_sessions, cross_features
from repro.data.schema import BATCH_KEYS, DatasetMeta, concat_batches

__all__ = [
    "ARCHETYPES",
    "AGE_GROUPS",
    "WorldConfig",
    "World",
    "SearchLog",
    "generate_world",
    "simulate_search_log",
    "build_train_dataset",
    "build_test_dataset",
    "make_search_datasets",
    "true_relevance",
    "drift_world",
]

#: Latent user archetypes; the ground-truth label model weights features
#: differently per archetype (the personalization signal AW-MoE's gate learns).
ARCHETYPES: Tuple[str, ...] = ("price_sensitive", "brand_loyal", "trend_follower", "quality_seeker")

#: Age groups; "elderly" users have shorter histories (long-tail test set 2).
AGE_GROUPS: Tuple[str, ...] = ("young", "mid", "elderly")

_PRICE, _BRAND, _TREND, _QUALITY = range(4)
_YOUNG, _MID, _ELDERLY = range(3)

#: Age group probabilities (young, mid, elderly).
_AGE_PROBS = (0.35, 0.45, 0.20)
#: Mean history length by age group (heavy-tailed around these).
_MEAN_HISTORY = (10.0, 8.0, 2.0)
#: Fraction of users with empty histories ("new users" in Fig. 7).
_NEW_USER_FRACTION = 0.08
#: Global intercept of the label model; tuned for ~10% positive rate.
_LABEL_BIAS = -4.4
#: Std of the label-model noise.
_LABEL_NOISE = 0.3


@dataclass(frozen=True)
class WorldConfig:
    """Size and behaviour knobs of the synthetic world."""

    num_users: int = 3000
    num_items: int = 800
    num_categories: int = 20
    brands_per_category: int = 6
    num_shops: int = 120
    num_query_specificities: int = 3
    max_seq_len: int = 20
    #: Candidates shown per search session.
    items_per_session: int = 12

    @staticmethod
    def unit() -> "WorldConfig":
        """Tiny world for unit tests."""
        return WorldConfig(
            num_users=200,
            num_items=120,
            num_categories=8,
            brands_per_category=3,
            num_shops=20,
            max_seq_len=8,
            items_per_session=8,
        )

    @staticmethod
    def small() -> "WorldConfig":
        """Benchmark/example scale (CPU-friendly)."""
        return WorldConfig()

    @staticmethod
    def large_catalog(num_items: int = 120_000, num_categories: int = 12) -> "WorldConfig":
        """Catalog-dominated scale for the retrieval-cascade benchmarks.

        Items outnumber users by orders of magnitude (the e-commerce regime
        the cascade exists for): ~10k items per category, so exhaustive
        full-model scoring of one query category is visibly linear while
        the ANN index + prefilter stays sublinear.  User count and history
        length stay modest — the cost under test is the catalog scan, not
        behaviour encoding.
        """
        return WorldConfig(
            num_users=3000,
            num_items=num_items,
            num_categories=num_categories,
            brands_per_category=40,
            num_shops=2000,
            max_seq_len=12,
            items_per_session=12,
        )


@dataclass
class World:
    """Generated entities; all entity ids are 0-based (padding added later)."""

    config: WorldConfig
    # items
    item_category: np.ndarray  # (I,) int
    item_brand: np.ndarray  # (I,) int, global brand ids
    item_shop: np.ndarray  # (I,) int
    item_price_pct: np.ndarray  # (I,) float in [0, 1], percentile within category
    item_popularity: np.ndarray  # (I,) float in [0, 1]
    item_sales: np.ndarray  # (I,) float in [0, 1], noisy proxy of popularity
    item_quality: np.ndarray  # (I,) float in [0, 1]
    item_style: np.ndarray  # (I,) float in [0, 1], 1-D style coordinate
    # categories
    category_trend_weight: np.ndarray  # (C,) popularity-effect modulation
    category_price_weight: np.ndarray  # (C,) price-effect modulation
    # users
    user_archetype: np.ndarray  # (U,) int in [0, 4)
    user_age: np.ndarray  # (U,) int in [0, 3)
    user_interests: np.ndarray  # (U, C) rows sum to 1
    user_style: np.ndarray  # (U,) float in [0, 1], preferred style
    histories: List[np.ndarray]  # per user: chronological item ids, oldest first

    @property
    def num_items(self) -> int:
        return len(self.item_category)

    @property
    def num_users(self) -> int:
        return len(self.user_archetype)

    @property
    def num_categories(self) -> int:
        return self.config.num_categories

    @property
    def num_brands(self) -> int:
        return self.config.num_categories * self.config.brands_per_category

    @cached_property
    def item_slab(self) -> ItemSlab:
        """The item-only feature columns, built on first use and shared by
        every assembly over this world (it pickles, and publishes through
        :mod:`repro.infer.slabs`, with the world).  Item arrays never change
        after generation: :func:`drift_world` moves preferences only."""
        return ItemSlab(self)

    @cached_property
    def category_items(self) -> Tuple[np.ndarray, ...]:
        """Each category's item ids, ascending (one table for every reader
        of this world: a tuple, so no reader can swap an entry)."""
        return tuple(
            np.flatnonzero(self.item_category == cat) for cat in range(self.config.num_categories)
        )

    @cached_property
    def category_popularity(self) -> Tuple[np.ndarray, ...]:
        """Per category, the popularity prior over :attr:`category_items`
        (``popularity ** 0.7 + 1e-3``, normalised within the category): what
        candidate retrieval samples from, and the cascade's popularity
        feature."""
        weights = [self.item_popularity[members] ** 0.7 + 1e-3 for members in self.category_items]
        return tuple(w / w.sum() for w in weights)

    @cached_property
    def category_inverse_popularity(self) -> Tuple[np.ndarray, ...]:
        """``1 / p`` of :attr:`category_popularity`: the per-item scale of
        serving retrieval's exponential race (keys ``E / p``)."""
        return tuple(1.0 / probs for probs in self.category_popularity)

    def meta(self) -> DatasetMeta:
        """Dataset metadata; +1 everywhere for the padding id 0."""
        cfg = self.config
        return DatasetMeta(
            num_items=self.num_items + 1,
            num_categories=cfg.num_categories + 1,
            num_queries=cfg.num_categories * cfg.num_query_specificities + 1,
            num_brands=self.num_brands + 1,
            num_shops=cfg.num_shops + 1,
            max_seq_len=cfg.max_seq_len,
            task="search",
        )


def generate_world(config: WorldConfig, rng: np.random.Generator) -> World:
    """Sample a full world: items, users, and user behaviour histories."""
    cfg = config
    n_items, n_cats = cfg.num_items, cfg.num_categories

    item_category = rng.integers(0, n_cats, size=n_items)
    brand_within = rng.integers(0, cfg.brands_per_category, size=n_items)
    item_brand = item_category * cfg.brands_per_category + brand_within
    item_shop = rng.integers(0, cfg.num_shops, size=n_items)

    # Price percentile within each category; quality weakly tracks price.
    item_price_pct = np.empty(n_items)
    for cat in range(n_cats):
        members = np.flatnonzero(item_category == cat)
        if members.size:
            ranks = rng.permutation(members.size)
            item_price_pct[members] = (ranks + 0.5) / members.size
    item_quality = np.clip(
        0.55 * item_price_pct + 0.45 * rng.beta(5, 2, size=n_items), 0.0, 1.0
    )

    # Zipf-like popularity within category.
    item_popularity = np.empty(n_items)
    for cat in range(n_cats):
        members = np.flatnonzero(item_category == cat)
        if members.size:
            ranks = rng.permutation(members.size) + 1
            pop = 1.0 / ranks ** 0.8
            item_popularity[members] = pop / pop.max()
    item_sales = np.clip(item_popularity + rng.normal(0, 0.08, size=n_items), 0.0, 1.0)
    item_style = rng.random(n_items)

    category_trend_weight = rng.uniform(0.5, 1.5, size=n_cats)
    category_price_weight = rng.uniform(0.5, 1.5, size=n_cats)

    n_users = cfg.num_users
    user_archetype = rng.integers(0, len(ARCHETYPES), size=n_users)
    user_age = rng.choice(len(AGE_GROUPS), size=n_users, p=_AGE_PROBS)
    user_interests = rng.dirichlet(np.full(n_cats, 0.3), size=n_users)
    user_style = rng.random(n_users)

    histories = _sample_histories(
        cfg, rng, user_archetype, user_age, user_interests, user_style,
        item_category, item_brand, item_price_pct, item_popularity, item_quality,
        item_style,
    )

    return World(
        config=cfg,
        item_category=item_category,
        item_brand=item_brand,
        item_shop=item_shop,
        item_price_pct=item_price_pct,
        item_popularity=item_popularity,
        item_sales=item_sales,
        item_quality=item_quality,
        item_style=item_style,
        category_trend_weight=category_trend_weight,
        category_price_weight=category_price_weight,
        user_archetype=user_archetype,
        user_age=user_age,
        user_interests=user_interests,
        user_style=user_style,
        histories=histories,
    )


def _sample_histories(
    cfg: WorldConfig,
    rng: np.random.Generator,
    archetype: np.ndarray,
    age: np.ndarray,
    interests: np.ndarray,
    user_style: np.ndarray,
    item_category: np.ndarray,
    item_brand: np.ndarray,
    item_price_pct: np.ndarray,
    item_popularity: np.ndarray,
    item_quality: np.ndarray,
    item_style: np.ndarray,
) -> List[np.ndarray]:
    """Sample per-user chronological behaviour sequences.

    Item choice within a category follows the user's archetype and style, so
    the sequence *reveals* both latent traits: cheap items for
    price-sensitive users, one dominant brand for brand-loyal users, popular
    items for trend-followers, high-quality items for quality-seekers — all
    concentrated near the user's style coordinate.
    """
    n_cats = cfg.num_categories
    by_category = [np.flatnonzero(item_category == cat) for cat in range(n_cats)]
    histories: List[np.ndarray] = []
    means = np.asarray(_MEAN_HISTORY)

    for user in range(len(archetype)):
        if rng.random() < _NEW_USER_FRACTION:
            histories.append(np.empty(0, dtype=np.int64))
            continue
        length = int(min(cfg.max_seq_len, 1 + rng.poisson(max(means[age[user]] - 1, 0.1))))
        chosen: List[int] = []
        favourite_brand: Dict[int, int] = {}
        for _ in range(length):
            cat = int(rng.choice(n_cats, p=interests[user]))
            members = by_category[cat]
            if members.size == 0:
                continue
            logits = -4.0 * np.abs(item_style[members] - user_style[user])
            kind = archetype[user]
            if kind == _PRICE:
                logits = logits - 3.0 * item_price_pct[members]
            elif kind == _BRAND:
                if cat in favourite_brand:
                    logits = logits + 2.5 * (item_brand[members] == favourite_brand[cat])
            elif kind == _TREND:
                logits = logits + 3.0 * item_popularity[members]
            else:  # quality seeker
                logits = logits + 3.0 * item_quality[members]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            pick = int(rng.choice(members, p=probs))
            chosen.append(pick)
            if kind == _BRAND and cat not in favourite_brand:
                favourite_brand[cat] = int(item_brand[pick])
        histories.append(np.asarray(chosen, dtype=np.int64))
    return histories


def true_relevance(
    world: World, user: int, candidates: np.ndarray, query_category: int
) -> np.ndarray:
    """Ground-truth purchase probability for each candidate (0-based ids).

    This is the sigmoid of the label model's log-odds — the same quantity
    :func:`simulate_search_log` thresholds to produce purchase labels.  The
    online-loop click simulator (:mod:`repro.online.click_model`) uses it as
    the relevance term of the position-biased click model, so simulated
    clicks carry exactly the signal the offline labels carry.
    """
    candidates = np.asarray(candidates)
    state = UserState(world, user)
    cross = cross_features(state, world, candidates)
    z = _true_logits(world, user, candidates, query_category, cross)
    return 1.0 / (1.0 + np.exp(-z))


def drift_world(
    world: World,
    rng: np.random.Generator,
    interest_drift: float = 0.2,
    trend_drift: float = 0.15,
) -> None:
    """Shift the world's preference structure in place (concept drift).

    Models the non-stationarity a deployed ranker faces between refresh
    cycles: user category interests blend toward a freshly sampled profile
    (``interest_drift`` is the mixing weight) and the per-category
    popularity/price effect weights random-walk (``trend_drift`` scale,
    clipped to the generator's [0.5, 1.5] range).  Features and labels both
    read these arrays live, so serving, click simulation, and evaluation all
    see the drifted world consistently — no retraining-time skew.
    """
    if not 0.0 <= interest_drift <= 1.0:
        raise ValueError(f"interest_drift must be in [0, 1], got {interest_drift}")
    cfg = world.config
    fresh = rng.dirichlet(np.full(cfg.num_categories, 0.3), size=world.num_users)
    world.user_interests *= 1.0 - interest_drift
    world.user_interests += interest_drift * fresh
    world.user_interests /= world.user_interests.sum(axis=1, keepdims=True)
    for weights in (world.category_trend_weight, world.category_price_weight):
        weights += rng.normal(0.0, trend_drift, size=weights.shape)
        np.clip(weights, 0.5, 1.5, out=weights)


# ----------------------------------------------------------------------
# session simulation
# ----------------------------------------------------------------------
@dataclass
class SearchLog:
    """Impression-level log of simulated search sessions (pre-sampling):
    the world plus one column per :data:`~repro.data.schema.BATCH_KEYS` name,
    as :func:`~repro.data.features.assemble_sessions` lays them out."""

    world: World
    behavior_items: np.ndarray  # (N, M) 1-based, 0-padded
    behavior_categories: np.ndarray  # (N, M)
    behavior_dense: np.ndarray  # (N, M, D)
    behavior_mask: np.ndarray  # (N, M)
    target_item: np.ndarray  # (N,) 1-based item ids
    target_category: np.ndarray  # (N,) 1-based category ids
    target_dense: np.ndarray  # (N, D)
    query: np.ndarray  # (N,) 1-based query ids
    query_category: np.ndarray  # (N,) 1-based category ids
    other_features: np.ndarray  # (N, F) float32
    label: np.ndarray  # (N,) float {0, 1}
    session_id: np.ndarray  # (N,)
    user_id: np.ndarray  # (N,)


def _true_logits(
    world: World,
    user: int,
    candidates: np.ndarray,
    query_cat: int,
    cross: Dict[str, np.ndarray],
) -> np.ndarray:
    """Ground-truth purchase log-odds for each candidate (the label model).

    Category-new impressions (no history in the item's category) are driven
    by popularity and price — with *category-specific* weights (the structure
    Category-MoE exploits); category-old impressions by the archetype's
    preferred features plus two-sided history features (the structure
    AW-MoE's user-oriented gate exploits) — matching the paper's Fig. 2.
    A style-match term rewards items near the user's latent style, which is
    only recoverable from the behaviour sequence (DIN's attention signal).
    """
    cats = world.item_category[candidates]
    interest = world.user_interests[user, cats]
    rel = (cats == query_cat).astype(float)
    pop = world.item_popularity[candidates]
    price = world.item_price_pct[candidates]
    quality = world.item_quality[candidates]
    style_match = 1.0 - 3.0 * np.abs(world.item_style[candidates] - world.user_style[user])

    z = _LABEL_BIAS + 1.4 * rel + 1.2 * interest + 1.2 * style_match

    cat_old = cross["category_click_cnt"] > 0
    # Category-new behaviour: follow the trend, anchor on price; effect sizes
    # are modulated per category.
    trend_w = world.category_trend_weight[cats]
    price_w = world.category_price_weight[cats]
    z = z + np.where(cat_old, 0.0, 1.7 * trend_w * pop - 1.1 * price_w * (price - 0.5))

    # Category-old behaviour: archetype-specific interactions.
    kind = world.user_archetype[user]
    if kind == _PRICE:
        habit = 2.6 * (0.5 - price) * price_w
    elif kind == _BRAND:
        brand_seen = cross["brand_click_cnt"] > 0
        habit = 2.2 * brand_seen + 0.8 * np.minimum(cross["brand_click_cnt"], 4) / 4.0
        habit = habit - 0.6 * np.where(brand_seen, cross["brand_click_time_diff"], 0.0)
    elif kind == _TREND:
        habit = 2.6 * pop * trend_w
    else:
        habit = 2.6 * (quality - 0.5)
    two_sided = (
        0.8 * np.minimum(cross["item_click_cnt"], 2) / 2.0
        + 0.4 * np.minimum(cross["shop_click_cnt"], 4) / 4.0
    )
    z = z + np.where(cat_old, habit + two_sided, 0.0)
    return z


#: Sessions joined per :func:`assemble_sessions` call while a log is built.
#: A chunk stacks one user table per session, so this bounds the join's
#: working set however long the log is.
_LOG_CHUNK_SESSIONS = 256


def simulate_search_log(
    world: World,
    num_sessions: int,
    rng: np.random.Generator,
    start_session_id: int = 0,
) -> SearchLog:
    """Simulate search sessions: query issue, candidate retrieval, purchases.

    Users are sampled proportionally to activity (active users search more,
    as in a real log); the retrieval step is popularity-biased within the
    query category, mimicking an engine's candidate generator.  The loop
    draws sessions and labels only; the feature columns are the serving
    path's own dump (§III-F2, Fig. 6) — the collected sessions joined
    through :func:`~repro.data.features.assemble_sessions`, a chunk at a time.
    """
    cfg = world.config
    n_users = world.num_users
    lengths = np.asarray([len(h) for h in world.histories], dtype=float)
    user_probs = (lengths + 1.0) / (lengths + 1.0).sum()

    n_cats = cfg.num_categories
    all_items = np.arange(world.num_items)

    states: Dict[int, UserState] = {}
    # Per session, in ``assemble_sessions`` argument order:
    # (user state, query category, candidates, specificity).
    sessions: List[Tuple[UserState, int, np.ndarray, int]] = []
    labels: List[np.ndarray] = []

    for _ in range(num_sessions):
        user = int(rng.choice(n_users, p=user_probs))
        state = states.get(user)
        if state is None:
            state = UserState(world, user)
            states[user] = state

        # Query: mostly driven by interests, with exploration.
        if rng.random() < 0.7:
            query_cat = int(rng.choice(n_cats, p=world.user_interests[user]))
        else:
            query_cat = int(rng.integers(0, n_cats))
        spec = int(rng.integers(0, cfg.num_query_specificities))

        # Retrieval: popularity-biased within category, a few off-category.
        members = world.category_items[query_cat]
        k_in = min(members.size, max(1, int(round(cfg.items_per_session * 0.9))))
        in_cat = rng.choice(
            members, size=k_in, replace=False, p=world.category_popularity[query_cat]
        )
        k_out = cfg.items_per_session - k_in
        if k_out > 0:
            out_cat = rng.choice(all_items, size=k_out, replace=False)
            candidates = np.unique(np.concatenate([in_cat, out_cat]))
        else:
            candidates = np.unique(in_cat)

        cross = cross_features(state, world, candidates)
        logits = _true_logits(world, user, candidates, query_cat, cross)
        logits = logits + rng.normal(0, _LABEL_NOISE, size=logits.size)
        purchased = rng.random(logits.size) < 1.0 / (1.0 + np.exp(-logits))
        labels.append(purchased.astype(np.float32))
        sessions.append((state, query_cat, candidates, spec))

    columns = concat_batches(
        [
            assemble_sessions(world, *zip(*sessions[start : start + _LOG_CHUNK_SESSIONS])).flat()
            for start in range(0, num_sessions, _LOG_CHUNK_SESSIONS)
        ]
    )
    columns["label"] = np.concatenate(labels)
    columns["session_id"] = np.repeat(
        np.arange(start_session_id, start_session_id + num_sessions, dtype=np.int64),
        [candidates.size for _, _, candidates, _ in sessions],
    )
    return SearchLog(world=world, **columns)


# ----------------------------------------------------------------------
# log -> dataset
# ----------------------------------------------------------------------
def _dataset_from_rows(log: SearchLog, rows: np.ndarray) -> RankingDataset:
    return RankingDataset(
        meta=log.world.meta(), **{key: getattr(log, key)[rows] for key in BATCH_KEYS}
    )


def build_train_dataset(log: SearchLog, rng: np.random.Generator) -> RankingDataset:
    """Training split per §IV-A1: purchased items positive, an equal number
    of sampled non-purchased impressions negative (1:1), per session."""
    keep: List[np.ndarray] = []
    for _, rows in _sessions(log):
        positives = rows[log.label[rows] == 1]
        negatives = rows[log.label[rows] == 0]
        if positives.size == 0 or negatives.size == 0:
            continue
        count = min(positives.size, negatives.size)
        sampled = rng.choice(negatives, size=count, replace=False)
        keep.append(positives)
        keep.append(sampled)
    if not keep:
        raise ValueError("no sessions with both positives and negatives; increase sessions")
    rows = np.sort(np.concatenate(keep))
    return _dataset_from_rows(log, rows)


def build_test_dataset(log: SearchLog) -> RankingDataset:
    """Test split per §IV-A1: all impressions of sessions that contain at
    least one purchase and one non-purchase."""
    keep: List[np.ndarray] = []
    for _, rows in _sessions(log):
        labels = log.label[rows]
        if labels.max() == 1 and labels.min() == 0:
            keep.append(rows)
    if not keep:
        raise ValueError("no evaluable sessions; increase sessions")
    rows = np.sort(np.concatenate(keep))
    return _dataset_from_rows(log, rows)


def _sessions(log: SearchLog):
    """Yield (session_id, row_indices) pairs; rows are contiguous by build."""
    boundaries = np.flatnonzero(np.diff(log.session_id)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(log.session_id)]])
    for start, stop in zip(starts, stops):
        yield int(log.session_id[start]), np.arange(start, stop)


def make_search_datasets(
    config: WorldConfig,
    num_train_sessions: int,
    num_test_sessions: int,
    seed: int = 0,
) -> Tuple[World, RankingDataset, RankingDataset]:
    """One-call pipeline: world → logs → (train 1:1, test full) datasets."""
    from repro.utils.rng import SeedBank

    bank = SeedBank(seed)
    world = generate_world(config, bank.child("world"))
    train_log = simulate_search_log(world, num_train_sessions, bank.child("train-sessions"))
    test_log = simulate_search_log(
        world, num_test_sessions, bank.child("test-sessions"), start_session_id=num_train_sessions
    )
    train = build_train_dataset(train_log, bank.child("negative-sampling"))
    test = build_test_dataset(test_log)
    return world, train, test

"""The four workloads and their frozen inputs.

A workload is a :class:`WorkloadSpec`: which world and weights, which fleet,
what traffic shape, and how many requests each pass consumes.  Everything
the ``--seed`` argument does *not* touch — the world, the pre-trained
weights, the fixed fine-tune window, the probe / warm-up / evaluation lists —
is built once per checkout by :func:`load_inputs` and cached under
``out/cache``, keyed by the spec and a digest of ``src/repro`` so a code
change can never be measured against stale inputs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig
from repro.data.synthetic import (
    World,
    build_train_dataset,
    generate_world,
    simulate_search_log,
)
from repro.online import ClickModelConfig, PositionBiasedClickModel
from repro.retrieval import CascadeConfig
from repro.serving import FleetConfig, ZipfLoadGenerator, build_fleet, shard_for_user
from repro.utils import SeedBank

__all__ = [
    "WORKLOADS",
    "NUM_SHARDS",
    "PROBE_REQUESTS",
    "Inputs",
    "RequestStream",
    "WorkloadSpec",
    "click_sessions",
    "fresh_model",
    "load_inputs",
]

NUM_SHARDS = 2
#: Requests every new fleet (set-up sample, post-swap) must answer at the
#: full tier before it counts as serving; half land on each shard.
PROBE_REQUESTS = 64

Request = Tuple[int, int]  # (user, query category)
#: One logged session of the fixed fine-tune window:
#: (user, category, shown items, clicks).
Session = Tuple[int, int, np.ndarray, np.ndarray]

_SMALL_PRETRAIN = TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3)
#: Every refresh fine-tunes with the paper's full objective (rank + λ·CL)
#: through the fused training path.
_REFRESH = TrainConfig(
    epochs=2, batch_size=128, learning_rate=1.5e-3, fast_path=True
).with_contrastive()


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: inputs, fleet, traffic shape, and per-round counts.
    Why each exists is recorded in ``BENCHMARK.json`` and the README."""

    name: str
    backend: str  # "inprocess" | "process"
    world: WorldConfig
    world_seed: int
    model: ModelConfig
    pretrain_sessions: int
    pretrain: TrainConfig
    refresh: TrainConfig
    cascade: Optional[CascadeConfig]
    cache_capacity: int
    #: The batcher's deadline, sized to the service time as an operator
    #: would: 5 ms where a request costs ≈ 0.5 ms, 15 ms where it costs ≈ 7 ms
    #: (two requests' worth — below that the deadline never batches, and the
    #: latency tail swings with every batch-size step; README, "Measured noise").
    flush_deadline_ms: float
    zipf: float
    #: Fixed open-loop arrival rate (req/s); never adapted to measured speed.
    rate_rps: float
    closed_requests: int
    open_requests: int
    #: Open-loop segments per round, each ``open_requests`` long.  Tail
    #: latency of a segment is the noisiest sample a round takes; where a
    #: request costs milliseconds and a segment holds few of them, a round
    #: takes two (README, "Measured noise").
    open_segments: int
    #: Sessions in the fixed fine-tune window each refresh replays; 0 means
    #: the refresh trains on live clicks simulated on this round's
    #: closed-loop answers (``refresh-loop``).
    window_sessions: int
    #: Drift the world between rounds (``refresh-loop``).
    drift: bool
    canary_tolerance: float
    eval_requests: int
    setups_per_round: int
    #: Whether a set-up sample also assembles and bootstraps the online
    #: loop (``refresh-loop``) or stops at a serving fleet.
    loop_in_setup: bool
    #: Length of one round on the reference box; ``--seconds`` buys
    #: ``seconds // round_seconds`` rounds (a count, not a stopwatch).
    round_seconds: float
    min_rounds: int

    def inputs_key(self) -> tuple:
        """The fields the frozen inputs depend on (``head-inproc`` and
        ``head-process`` agree on all of them and share one cache entry)."""
        return (
            self.world, self.world_seed, self.model, self.pretrain_sessions, self.pretrain,
            self.cascade, self.zipf, self.window_sessions, self.eval_requests,
        )

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, int(seconds / self.round_seconds))

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            num_workers=NUM_SHARDS,
            seed=0,
            max_batch_size=8,
            flush_deadline_ms=self.flush_deadline_ms,
            cache_capacity=self.cache_capacity,
            cascade=self.cascade,
        )

    def smoke(self) -> "WorkloadSpec":
        """Seconds-scale variant for the harness tests: same code paths,
        unit-size world and model, a handful of requests per pass."""
        world = WorldConfig.unit()
        if self.cascade is not None:
            world = replace(
                WorldConfig.large_catalog(900, 3), num_users=200, brands_per_category=6,
                num_shops=40,
            )
        return replace(
            self,
            world=world,
            model=ModelConfig.unit(),
            pretrain_sessions=250,
            pretrain=replace(self.pretrain, epochs=1),
            cascade=None
            if self.cascade is None
            else replace(
                self.cascade, retrieve_n=64, prune=32, nprobe=4,
                calibration_queries=16, calibration_items=32,
            ),
            cache_capacity=min(self.cache_capacity, 64),
            rate_rps=min(self.rate_rps * 2.0, 600.0),
            closed_requests=48,
            open_requests=24,
            window_sessions=0 if self.window_sessions == 0 else 80,
            eval_requests=8,
            setups_per_round=1,
            min_rounds=2,
            round_seconds=1e9,
        )


def _head(name: str, backend: str) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        backend=backend,
        world=WorldConfig.small(),
        world_seed=23,
        model=ModelConfig.small(),
        pretrain_sessions=600,
        pretrain=_SMALL_PRETRAIN,
        refresh=_REFRESH,
        cascade=None,
        cache_capacity=512,
        flush_deadline_ms=5.0,
        zipf=1.1,
        rate_rps=500.0,
        closed_requests=1000,
        open_requests=600,
        open_segments=1,
        window_sessions=800,
        drift=False,
        canary_tolerance=1.0,
        eval_requests=128,
        setups_per_round=2,
        loop_in_setup=False,
        round_seconds=2.9,
        min_rounds=3,
    )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _head("head-inproc", "inprocess"),
        # Same world, weights, traffic and FleetConfig: the pair isolates IPC.
        _head("head-process", "process"),
        WorkloadSpec(
            name="catalog-cascade",
            backend="inprocess",
            world=WorldConfig.large_catalog(30_000, 3),
            world_seed=29,
            model=ModelConfig.unit(),
            pretrain_sessions=4000,
            pretrain=TrainConfig(epochs=4, batch_size=256, learning_rate=2e-3),
            refresh=replace(_REFRESH, batch_size=256),
            cascade=CascadeConfig(retrieve_n=3072, prune=1280, nprobe=48),
            cache_capacity=96,
            flush_deadline_ms=15.0,
            zipf=0.6,
            rate_rps=50.0,
            closed_requests=128,
            open_requests=200,
            open_segments=2,
            window_sessions=2000,
            drift=False,
            canary_tolerance=1.0,
            eval_requests=12,
            setups_per_round=1,
            loop_in_setup=False,
            round_seconds=13.5,
            min_rounds=3,
        ),
        WorkloadSpec(
            name="refresh-loop",
            backend="inprocess",
            world=WorldConfig.small(),
            world_seed=23,
            model=ModelConfig.small(),
            pretrain_sessions=600,
            pretrain=_SMALL_PRETRAIN,
            refresh=_REFRESH,
            cascade=None,
            cache_capacity=1024,
            flush_deadline_ms=5.0,
            zipf=1.1,
            rate_rps=500.0,
            closed_requests=2000,
            open_requests=500,
            open_segments=1,
            window_sessions=0,
            drift=True,
            canary_tolerance=0.02,
            eval_requests=128,
            setups_per_round=3,
            loop_in_setup=True,
            round_seconds=4.2,
            min_rounds=3,
        ),
    )
}


# ----------------------------------------------------------------------
# frozen inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a run needs that the seed does not change."""

    world: World
    weights: Dict[str, np.ndarray]
    window: List[Session]
    probes: List[Request]
    warm: List[List[Request]]  # per shard: 1 + 2 + … + max_batch_size requests
    evals: List[Request]


def fresh_model(spec: WorkloadSpec, inputs: Inputs):
    """A new model object carrying the workload's pre-trained weights."""
    model = build_model("aw_moe", spec.model, inputs.world.meta(), np.random.default_rng(0))
    model.load_state_dict(inputs.weights)
    model.eval()
    return model


def _top_category(world: World, user: int) -> int:
    return int(np.argmax(world.user_interests[user]))


def _request_lists(spec: WorkloadSpec, world: World):
    """Probe, warm-up and evaluation lists: fixed users, fixed categories."""
    rng = np.random.default_rng(20240229)
    by_shard: List[List[Request]] = [[] for _ in range(NUM_SHARDS)]
    for user in rng.permutation(world.num_users).tolist():
        by_shard[shard_for_user(user, NUM_SHARDS)].append((user, _top_category(world, user)))
    half = PROBE_REQUESTS // NUM_SHARDS
    batch = spec.fleet_config().max_batch_size
    warm_size = batch * (batch + 1) // 2
    if min(len(requests) for requests in by_shard) < half + warm_size:
        raise ValueError("world too small for the probe and warm-up lists")
    probes = [request for requests in by_shard for request in requests[:half]]
    warm = [requests[half : half + warm_size] for requests in by_shard]
    users = rng.choice(world.num_users, size=spec.eval_requests, replace=False)
    evals = [
        (int(user), int(rng.choice(world.num_categories, p=world.user_interests[user])))
        for user in users
    ]
    return probes, warm, evals


def click_sessions(click_model: PositionBiasedClickModel, rankings) -> List[Session]:
    """One loggable session per ranking: the positions the click model
    shows, and its click draws on them (in ranking order: the draws consume
    the model's RNG)."""
    sessions = []
    for ranking in rankings:
        shown = click_model.shown_positions(ranking)
        sessions.append(
            (ranking.user, ranking.query_category, ranking.items[:shown].copy(),
             click_model.clicks(ranking))
        )
    return sessions


def _fixed_window(spec: WorkloadSpec, world: World, model) -> List[Session]:
    """The click window every refresh of a serving workload replays: one
    fixed traffic slice served by the pre-trained model, with fixed clicks."""
    if spec.window_sessions == 0:
        return []
    fleet = build_fleet(world, model, spec.fleet_config(), backend="inprocess")
    clicks = PositionBiasedClickModel(world, np.random.default_rng(41), ClickModelConfig())
    events = ZipfLoadGenerator(
        np.random.default_rng(43), world=world, zipf_exponent=spec.zipf
    ).generate(spec.window_sessions)
    answers = []
    for event in events:
        answers.extend(fleet.submit(event.user, event.query_category))
    answers.extend(fleet.flush())
    return click_sessions(clicks, answers)


def _build_inputs(spec: WorkloadSpec) -> Inputs:
    bank = SeedBank(spec.world_seed)
    world = generate_world(spec.world, bank.child("world"))
    log = simulate_search_log(world, spec.pretrain_sessions, bank.child("sessions"))
    train = build_train_dataset(log, bank.child("negatives"))
    model = build_model("aw_moe", spec.model, train.meta, bank.child("model"))
    train_model(model, train, spec.pretrain, seed=7)
    model.eval()
    probes, warm, evals = _request_lists(spec, world)
    return Inputs(
        world=world,
        weights=model.state_dict(),
        window=_fixed_window(spec, world, model),
        probes=probes,
        warm=warm,
        evals=evals,
    )


def _source_digest(repo_root: Path) -> str:
    digest = hashlib.sha256(np.__version__.encode())
    for path in sorted((repo_root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(repo_root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_inputs(spec: WorkloadSpec, repo_root: Path, out_dir: Path) -> Inputs:
    """The workload's frozen inputs, from the on-disk cache when it holds
    them for this spec and this source tree, else built (≈ 10 s for the
    large catalog) and cached.  Always a private copy: ``refresh-loop``
    drifts its world in place.

    The cache holds only bytes this function pickled itself.
    """
    key = hashlib.sha256(
        (repr(spec.inputs_key()) + _source_digest(repo_root)).encode()
    ).hexdigest()[:16]
    path = out_dir / "cache" / f"inputs-{key}.pkl"
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    inputs = _build_inputs(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_suffix(f".{os.getpid()}.tmp")
    with open(staging, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(staging, path)
    # Hand back what a cache hit would: the unpickled copy (float-for-float
    # the same arrays, but never aliasing the builder's scratch fleet).
    with open(path, "rb") as handle:
        return pickle.load(handle)


# ----------------------------------------------------------------------
# seeded traffic
# ----------------------------------------------------------------------
class RequestStream:
    """The run's one seeded request stream; each pass takes the next slice.

    ``--seed`` reaches the program only through this class (which user each
    request draws, its category, the Poisson arrival offsets) and the live
    click draws.

    The Zipf *user permutation* — which users are the hot head — is frozen
    per workload.  It decides which shard and which history lengths most of
    the traffic lands on, and redrawing it per seed moved ``latency_p50_ms``
    by 6 % and ``latency_p95_ms`` by up to 45 % between seeds, identically in
    both A/A sets: input spread, not machine spread (README, "Measured
    noise").  The generator draws its permutation first, from a fixed
    stream; the seed then selects which far-apart segment of that stream
    every later draw comes from.
    """

    def __init__(self, world: World, seed: int, zipf: float, rate_rps: float) -> None:
        self._world = world
        self._seed = int(seed)
        self._zipf = zipf
        self._rate = rate_rps
        self._epoch = 0
        self._generator = self._make()

    def _make(self) -> ZipfLoadGenerator:
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(self._epoch,)))
        generator = ZipfLoadGenerator(
            rng, world=self._world, zipf_exponent=self._zipf, target_qps=self._rate
        )
        rng.bit_generator.advance((self._seed + 1) << 64)
        return generator

    def take(self, count: int):
        """The next ``count`` events; times are seconds from the slice start."""
        return self._generator.generate(count)

    def redraw(self) -> None:
        """Start a new generator after the world drifted (the generator
        caches per-user interest CDFs, which drift makes stale); its
        permutation is again the same for every seed."""
        self._epoch += 1
        self._generator = self._make()

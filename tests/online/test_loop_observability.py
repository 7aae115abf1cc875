"""Learning-loop observability: refresh traces, drift lifecycle, alert path.

Every test builds its OWN world (``make_search_datasets``) instead of the
session fixture: the drift scenarios mutate the world in place via
``drift_world`` and must not poison other tests.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model, train_model
from repro.data import WorldConfig, make_search_datasets
from repro.data.synthetic import drift_world
from repro.obs import (
    AlertManager,
    DriftMonitor,
    MetricsRegistry,
    SloTracker,
    Tracer,
)
from repro.online import (
    CanaryGate,
    ClickModelConfig,
    IncrementalTrainer,
    ModelRegistry,
    OnlineLoop,
    PositionBiasedClickModel,
)
from repro.serving import FleetConfig, FleetContext, ManualClock, ZipfLoadGenerator, build_fleet


def _build_loop(tmp_path, learning_rate=1e-3, rules=(), min_samples=10):
    """A fresh world + fully wired observable loop (own mutable world)."""
    world, train, _ = make_search_datasets(WorldConfig.unit(), 400, 150, seed=2)
    model = build_model("aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(0))
    train_model(
        model, train, TrainConfig(epochs=1, batch_size=64, learning_rate=3e-3), seed=8
    )
    state = model.state_dict()

    def make_model(trained=False):
        fresh = build_model("aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(1))
        if trained:
            fresh.load_state_dict(state)
        return fresh

    clock = ManualClock()
    registry = MetricsRegistry()
    trainer = IncrementalTrainer(
        make_model(trained=True),
        TrainConfig(epochs=2, batch_size=64, learning_rate=learning_rate),
        seed=5,
        metrics=registry,
    )
    drift = DriftMonitor(min_samples=min_samples)
    alerts = AlertManager(rules) if rules else None
    cluster = build_fleet(
        world,
        make_model(trained=True),
        FleetConfig(
            num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
            cache_capacity=128,
        ),
        backend="inprocess",
        ctx=FleetContext(
            clock=clock, slo=SloTracker(latency_slo_ms=50.0), drift=drift, alerts=alerts
        ),
    )
    tracer = Tracer(sample_rate=1.0, clock=clock.now)
    loop = OnlineLoop(
        world=world,
        cluster=cluster,
        trainer=trainer,
        model_factory=make_model,
        registry=ModelRegistry(str(tmp_path / "registry"), clock=lambda: 0.0),
        canary=CanaryGate(tolerance=1.0),
        click_model=PositionBiasedClickModel(
            world, np.random.default_rng(3), ClickModelConfig()
        ),
        seed=11,
        tracer=tracer,
    )
    loop.bootstrap()
    gen = ZipfLoadGenerator(np.random.default_rng(7), world=world, target_qps=500.0)
    return loop, gen, tracer


class TestRefreshTracing:
    def test_cycle_emits_nested_span_tree(self, tmp_path):
        loop, gen, tracer = _build_loop(tmp_path)
        windows = []
        update = loop.trainer.update
        loop.trainer.update = lambda dataset, **kw: windows.append(dataset) or update(dataset, **kw)
        report = loop.run_cycle(gen.generate(200))
        assert report.promoted

        (record,) = [r for r in tracer.finished if r["name"] == "refresh"]
        assert record["attrs"]["cycle"] == 0
        assert record["attrs"]["promoted"] is True
        assert record["attrs"]["version"] == "v0002"

        spans = {span["name"]: span for span in record["spans"]}
        for stage in ("serve", "read_new", "train", "register", "canary", "swap"):
            assert stage in spans, f"missing {stage} span"

        # Stage spans are roots; per-epoch children nest under train, and the
        # canary's replays nest under canary.
        assert spans["train"]["parent"] is None
        epochs = [s for s in record["spans"] if s["name"] == "epoch"]
        assert len(epochs) == 2  # config.epochs
        assert all(e["parent"] == spans["train"]["id"] for e in epochs)
        assert epochs[0]["attrs"]["index"] == 0
        assert epochs[0]["attrs"]["steps"] > 0
        assert "mean_loss" in epochs[0]["attrs"]
        assert "mean_grad_norm" in epochs[0]["attrs"]
        # How much work the steps did, as exact counts: every row of the
        # window trains once per epoch, so an epoch processes the window's
        # valid behaviour positions out of rows x M padded ones.
        (window,) = windows
        for epoch in epochs:
            assert epoch["attrs"]["positions"] == int(window.behavior_lengths().sum())
            assert epoch["attrs"]["padded_positions"] == window.behavior_mask.size
        registry = loop.trainer.metrics
        assert registry.counter("train_positions_total").value == sum(
            e["attrs"]["positions"] for e in epochs
        )
        assert registry.counter("train_padded_positions_total").value == sum(
            e["attrs"]["padded_positions"] for e in epochs
        )

        replays = [s for s in record["spans"] if s["name"] == "replay"]
        assert {r["attrs"]["model"] for r in replays} == {"candidate", "production"}
        assert all(r["parent"] == spans["canary"]["id"] for r in replays)
        # A slow judgement is sized from the trace alone: rows, sessions and
        # the plan executions (chunks) the replay took.
        for replay in replays:
            assert replay["attrs"]["rows"] == spans["read_new"]["attrs"]["holdout_rows"]
            assert 0 < replay["attrs"]["sessions"] < replay["attrs"]["rows"]
            assert replay["attrs"]["chunks"] == 1  # < 1024 rows: one slice

        assert spans["serve"]["attrs"]["events"] == 200
        assert spans["read_new"]["attrs"]["train_rows"] == report.train_rows
        assert spans["canary"]["attrs"]["passed"] is True

    def test_no_feedback_cycle_traces_early_return(self, tmp_path):
        loop, _, tracer = _build_loop(tmp_path)
        report = loop.run_cycle([])
        assert not report.promoted
        (record,) = [r for r in tracer.finished if r["name"] == "refresh"]
        assert record["attrs"]["reason"] == "no_usable_feedback"

    def test_train_step_metrics_stream_into_registry(self, tmp_path):
        loop, gen, _ = _build_loop(tmp_path)
        loop.run_cycle(gen.generate(200))
        registry = loop.trainer.metrics
        steps = registry.counter("train_steps_total").value
        assert steps > 0
        assert registry.histogram("train_step_ms").count == steps
        assert registry.histogram("train_loss").count == steps
        assert registry.histogram("train_grad_norm").count == steps
        assert registry.histogram("train_grad_norm").mean > 0.0


class TestDriftLifecycle:
    def test_promotion_freezes_live_window_as_reference(self, tmp_path):
        loop, gen, _ = _build_loop(tmp_path)
        assert not loop.cluster.ctx.drift.has_reference
        report = loop.run_cycle(gen.generate(200))
        assert report.promoted
        assert loop.cluster.ctx.drift.has_reference
        assert loop.cluster.ctx.drift.scores()["ctr"]["live_samples"] == 0  # fresh window after freeze
        # First cycle has no reference yet, so no scores in its report.
        assert report.drift is None

    def test_second_cycle_reports_scores_and_logs_event(self, tmp_path):
        loop, gen, _ = _build_loop(tmp_path)
        loop.run_cycle(gen.generate(200))
        report = loop.run_cycle(gen.generate(200))
        assert report.drift is not None
        assert set(report.drift) == {
            "ctr", "mean_score", "top_score", "calibration_gap", "price", "popularity"
        }
        events = loop.cluster.control.events
        (drift_event,) = events.events("drift_score")
        assert "worst_feature" in drift_event.attrs
        assert "psi_ctr" in drift_event.attrs

    def test_psi_is_scored_once_per_cycle(self, tmp_path, monkeypatch):
        """The drift event and the alert snapshot share one scoring pass:
        one ``psi_from_counts`` call per feature, not two."""
        from repro.obs import drift as drift_module

        loop, gen, _ = _build_loop(tmp_path, rules=("drift_psi_worst > 100",))
        loop.run_cycle(gen.generate(200))  # promote + freeze reference
        calls = []
        psi = drift_module.psi_from_counts
        monkeypatch.setattr(
            drift_module, "psi_from_counts", lambda *a: calls.append(1) or psi(*a)
        )
        report = loop.run_cycle(gen.generate(200))
        assert len(report.drift) == 6
        assert len(calls) == 6


class TestEndToEndAlertPath:
    """ISSUE acceptance: drifted traffic -> drift rule fires -> typed event
    -> surfaced in fleet_report() and the rendered dashboard.

    The near-zero learning rate keeps the promoted model weight-identical to
    its predecessor, so the reference window and the live window are served
    by the same scoring function: any PSI movement is *traffic* drift, not a
    deployment artifact.

    The windows are 1,000 events: PSI between two CTR windows carries a
    sampling-noise floor that shrinks with the window.  Measured over eight
    (fleet, traffic) seed pairs under both candidate samplers (the numpy
    ``choice`` draw and the exponential race that replaced it), 16 runs per
    window size:

    * 250 events: stationary 0.001–0.193, above the 0.04 line in 7/16 runs;
      drifted 0.040–0.166.  The line separated the cases by one seed's luck.
    * 1,000 events: stationary 0.003–0.050 (15/16 ≤ 0.034); drifted
      0.052–0.166 (16/16 above 0.04); drifted / stationary ≥ 1.7 (15/16
      ≥ 2.5).  At this file's seeds (fleet 0, traffic 7) the race reads
      0.022 stationary and 0.113 drifted.
    """

    RULES = ("ctr-drift: drift_psi_ctr > 0.04 for 1 severity critical",)
    WINDOW = 1000  # events per cycle

    def test_stationary_traffic_stays_quiet(self, tmp_path):
        loop, gen, _ = _build_loop(tmp_path, learning_rate=1e-7, rules=self.RULES)
        loop.run_cycle(gen.generate(self.WINDOW))
        report = loop.run_cycle(gen.generate(self.WINDOW))
        assert report.drift["ctr"]["psi"] < 0.04
        assert not any(row["firing"] for row in loop.cluster.ctx.alerts.status())
        assert loop.cluster.control.events.events("alert_fired") == ()

    def test_drifted_traffic_fires_alert_through_to_dashboard(self, tmp_path):
        loop, gen, _ = _build_loop(tmp_path, learning_rate=1e-7, rules=self.RULES)
        loop.run_cycle(gen.generate(self.WINDOW))  # promote + freeze reference

        drift_world(
            loop.world, np.random.default_rng(9), interest_drift=1.0, trend_drift=0.8
        )
        report = loop.run_cycle(gen.generate(self.WINDOW))

        # 1. The drift monitor measured the shift.
        assert report.drift["ctr"]["psi"] > 0.04

        # 2. The rule fired and the manager holds it as firing.
        assert report.alerts == [
            {"rule": "ctr-drift", "action": "fired", "value": pytest.approx(
                report.drift["ctr"]["psi"]
            )}
        ]
        (status,) = loop.cluster.ctx.alerts.status()
        assert status["firing"] is True

        # 3. A typed event landed in the fleet's control-plane log.
        (fired,) = loop.cluster.control.events.events("alert_fired")
        assert fired.attrs["rule"] == "ctr-drift"
        assert fired.attrs["metric"] == "drift_psi_ctr"
        assert fired.attrs["severity"] == "critical"
        assert fired.attrs["value"] > 0.04

        # 4. The fleet report surfaces the firing rule and the drift table.
        text = loop.cluster.fleet_report()
        assert "ctr-drift" in text
        assert "alert" in text.lower()
        assert "drift" in text.lower()

        # 5. The rendered dashboard shows the alert as FIRING.
        path = tmp_path / "dashboard.html"
        loop.cluster.dashboard(str(path), registry=loop.trainer.metrics)
        html = path.read_text()
        assert "ctr-drift" in html
        assert "FIRING" in html
        assert "alert_fired" in html  # event tail renders the typed event

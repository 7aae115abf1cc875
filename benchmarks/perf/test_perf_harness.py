"""Tests of the repo benchmark's harness (``--smoke`` sizes, a few seconds).

What they pin down: the printed metric names and units are exactly those of
``BENCHMARK.json``; a seed fixes every count and both quality metrics; the
span arithmetic, the percentile helpers and the answer matcher do what the
README says; and a run that imported numpy before pinning BLAS is refused.
"""

import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERF_DIR = Path(__file__).resolve().parent
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))

from perfbench import cli, env, stats  # noqa: E402
from perfbench.audit import Ledger, check_answer  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.serving import TIER_FULL, TIER_POPULARITY, RankedList  # noqa: E402

BENCHMARK = json.loads((cli.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json ↔ harness
# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_the_harness_metrics():
    assert sorted(BENCHMARK) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]


@pytest.fixture()
def restored_affinity():
    """``cli.main`` pins the process to one CPU; undo that for later tests."""
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_equal_benchmark_json(trace, capsys, restored_affinity):
    code = cli.main(
        ["--workload", "head-inproc", "--seed", "5", "--trace", str(trace), "--smoke"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = json.loads(lines[-1])
    assert sorted(printed) == ["attempted", "correct", "failed", "metrics"]
    assert printed["correct"] is True and printed["failed"] == 0 and printed["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    # ... and by name with its unit, one metric per line, before the JSON.
    assert [line.split()[0] for line in lines[:-1]] == [m["name"] for m in expected]
    assert [line.split()[-1] for line in lines[:-1]] == [m["unit"] for m in expected]
    if trace:
        assert 0.9 <= printed["metrics"]["driver.budget_coverage"]["value"] <= 1.0
        spans = [
            json.loads(line)
            for line in (cli.OUT_DIR / "trace-head-inproc-smoke.jsonl").read_text().splitlines()
        ]
        assert set(spans[0]) == {
            "id", "parent", "name", "request", "shard", "start_ms", "end_ms", "self_ms", "count",
        }
    else:
        assert all(v["value"] > 0 for v in printed["metrics"].values())


# ----------------------------------------------------------------------
# a seed fixes every count and both quality metrics
# ----------------------------------------------------------------------
REPEATING = ("closed_requests", "open_requests", "sessions", "clicks", "train_rows", "promoted")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_counts_and_quality(workload):
    first, _, _ = cli.execute(workload, 3, 1.0, False, True)
    second, _, _ = cli.execute(workload, 3, 1.0, False, True)
    assert first.attempted == second.attempted > 0
    assert first.failures == second.failures == []
    assert first.duplicates == second.duplicates == 0
    assert len(first.rounds) == len(second.rounds) == 2
    for a, b in zip(first.rounds, second.rounds):
        assert [a[key] for key in REPEATING] == [b[key] for key in REPEATING]
        assert a["train_rows"] > 0
    assert first.quality == second.quality  # exact: ndcg_at_10, recall_at_10, recall_min
    assert 0.0 < first.quality["ndcg_at_10"] <= 1.0
    if WORKLOADS[workload].cascade is None:
        assert first.quality["recall_at_10"] == 1.0  # compiled ↔ eager parity


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _Layered:
    """outer() → inner() twice → leaf() once each, with some own work."""

    def outer(self):
        time.sleep(0.002)
        return [self.inner(), self.inner()]

    def inner(self):
        time.sleep(0.001)
        return self.leaf()

    def leaf(self):
        time.sleep(0.001)
        return np.zeros((3, 2))


def test_span_self_times_sum_to_the_root():
    recorder, target = Recorder(), _Layered()
    recorder.wrap(target, "outer", "t.outer", count=len)
    recorder.wrap(target, "inner", "t.inner", shard=1)
    recorder.wrap(target, "leaf", "t.leaf", count=lambda out: out.shape[0])
    recorder.wrap(target, "leaf", "t.again")  # second wrap of one method: no-op
    recorder.request = 7
    with recorder.span("driver.phase"):
        target.outer()
    spans = recorder.spans()
    assert [s.name for s in spans] == [
        "driver.phase", "t.outer", "t.inner", "t.leaf", "t.inner", "t.leaf",
    ]
    assert [s.parent for s in spans] == [-1, 0, 1, 2, 1, 4]
    assert [s.count for s in spans] == [1, 2, 1, 3, 1, 3]
    assert {s.request for s in spans} == {7} and spans[2].shard == 1
    root = spans[0]
    assert sum(s.self_time for s in spans) == pytest.approx(root.duration, abs=1e-9)
    assert all(s.self_time >= 0 for s in spans)
    assert spans[1].self_time == pytest.approx(0.002, abs=0.0015)
    recorder.detach()
    assert "outer" not in vars(target) and "leaf" not in vars(target)
    target.outer()
    assert len(recorder.spans()) == 6  # detached: nothing more recorded


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_and_samples_beyond():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert stats.percentile(values, 30) == 20.0
    assert stats.percentile(values, 40) == 20.0
    assert stats.percentile(values, 50) == 35.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(list(range(1, 201)), 95) == 190
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(600, 95) == 30
    assert stats.samples_beyond(5, 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_best_quartile_is_the_second_best_of_seven_and_never_interpolates():
    slow_heavy = [1600.0, 1565.0, 1607.0, 2150.0, 1871.0, 2140.0, 1560.0]
    assert stats.best_quartile(slow_heavy, "higher") == 2140.0
    assert stats.best_quartile([0.51, 0.44, 0.46, 0.80, 0.43, 0.45, 0.57], "lower") == 0.44
    assert stats.best_quartile([3.0, 1.0, 2.0], "lower") == 1.0
    assert stats.best_quartile([3.0, 1.0, 2.0], "higher") == 3.0
    assert stats.best_quartile(list(range(1, 15)), "lower") == 4


def test_spread_and_gap_follow_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.quartiles(values) == (10.5, 13.5)
    assert stats.quartile_spread(values) == pytest.approx(0.25)
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)


# ----------------------------------------------------------------------
# answer matcher
# ----------------------------------------------------------------------
ITEM_CATEGORY = np.array([0, 0, 0, 1, 1, 1])


def _answer(user, category, items=(0, 1, 2), scores=(0.9, 0.5, 0.1), **kwargs):
    return RankedList(
        user=user, query_category=category, items=np.array(items),
        scores=np.array(scores, dtype=np.float32), latency_ms=1.0,
        model_version=kwargs.pop("version", "v1"), **kwargs,
    )


def test_matcher_flags_an_injected_duplicate_and_a_dropped_answer():
    ledger = Ledger(ITEM_CATEGORY)
    ids = ledger.submit([(1, 0), (2, 0), (1, 0), (3, 0)], "v1")
    assert list(ids) == [0, 1, 2, 3]
    matched = ledger.settle(
        [(10.0, [_answer(1, 0), _answer(2, 0)]), (11.0, [_answer(1, 0), _answer(2, 0)])]
    )
    assert matched == [0, 1, 2]  # FIFO per (user, category); the 2nd (2, 0) is a duplicate
    assert ledger.duplicates == 1 and len(ledger.failures) == 1
    assert ledger.answered_at == [10.0, 10.0, 11.0, None]
    ledger.close()  # request 3 was dropped
    assert len(ledger.failures) == 2 and "never answered" in ledger.failures[1]
    assert ledger.attempted == 4


@pytest.mark.parametrize(
    "answer, problem",
    [
        (_answer(1, 0), None),
        (_answer(1, 0, tier=TIER_POPULARITY), "tier"),
        (_answer(1, 0, version="v0"), "version"),
        (_answer(1, 0, items=(0, 1, 4)), "category"),
        (_answer(1, 0, items=(0, 1, 1)), "repeated"),
        (_answer(1, 0, scores=(0.9, np.nan, 0.1)), "non-finite"),
        (_answer(1, 0, scores=(0.5, 0.9, 0.1)), "descending"),
        (_answer(1, 0, items=(), scores=()), "shape"),
    ],
)
def test_check_answer(answer, problem):
    assert answer.tier in (TIER_FULL, TIER_POPULARITY)
    verdict = check_answer(ITEM_CATEGORY, answer, "v1")
    assert (verdict is None) if problem is None else (problem in verdict)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def test_numpy_before_pin_is_refused():
    loaded = {"numpy": np}
    with pytest.raises(RuntimeError, match="numpy was imported before"):
        env.pin_threads(environ={}, modules=loaded)
    with pytest.raises(RuntimeError):
        env.pin_threads(environ={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"},
                        modules=loaded)
    fresh = {}
    env.pin_threads(environ=fresh, modules={})
    assert fresh == {name: "1" for name in env.THREAD_VARS}
    env.pin_threads(environ=fresh, modules=loaded)  # pinned before numpy loaded: fine


def test_proc_readers_read_this_process():
    assert env.proc_cpu_seconds(os.getpid()) > 0
    assert env.proc_status_mb(os.getpid(), "VmHWM") >= env.proc_status_mb(os.getpid(), "VmRSS") > 0
    assert env.steal_ticks() >= 0
    assert env.leaked_slabs("repro_slab") == []

"""Durable ClickLog: torn-append recovery, id continuity, clean restarts."""

import numpy as np

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.online import ClickLog
from repro.utils import recover_jsonl


def _log_n(log, n, start_user=0):
    for offset in range(n):
        log.log_session(
            user=start_user + offset,
            query_category=offset % 3,
            items=np.array([1, 2, 3]),
            clicks=np.array([1.0, 0.0, 0.0]),
            model_version="v0001",
            timestamp=float(offset),
        )


class TestDurability:
    def test_clean_restart_recovers_everything(self, tmp_path):
        path = str(tmp_path / "clicks.jsonl")
        log = ClickLog(path=path)
        _log_n(log, 5)
        reloaded = ClickLog(path=path)
        assert len(reloaded) == 5
        assert reloaded.recovered_sessions == 5
        assert reloaded.dropped_records == 0
        first = recover_jsonl(path)[0][0]
        assert first["session_id"] == 0
        assert first["items"] == [1, 2, 3]
        assert first["clicks"] == [1.0, 0.0, 0.0]
        assert first["model_version"] == "v0001"

    def test_recovered_history_is_pre_consumed(self, tmp_path):
        path = str(tmp_path / "clicks.jsonl")
        _log_n(ClickLog(path=path), 4)
        reloaded = ClickLog(path=path)
        assert reloaded.lag == 0
        assert reloaded.read_new() == []
        # New traffic after the restart is unread as usual.
        _log_n(reloaded, 2, start_user=100)
        assert reloaded.lag == 2
        assert [r.user for r in reloaded.read_new()] == [100, 101]

    def test_session_ids_continue_after_restart(self, tmp_path):
        path = str(tmp_path / "clicks.jsonl")
        _log_n(ClickLog(path=path), 3)
        reloaded = ClickLog(path=path)
        record = reloaded.log_session(
            user=9, query_category=0, items=np.array([4]), clicks=np.array([1.0])
        )
        assert record.session_id == 3  # continues, never reuses

    def test_in_memory_log_unchanged(self):
        log = ClickLog()
        _log_n(log, 3)
        assert log.path is None
        assert log.lag == 3


class TestTornAppends:
    def test_torn_append_dropped_on_recovery(self, tmp_path):
        path = str(tmp_path / "clicks.jsonl")
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("clicklog.append", "torn_write", after=2, times=1)
                ]
            )
        )
        log = ClickLog(path=path, injector=inj)
        _log_n(log, 5)  # session 2's line is truncated mid-write
        assert log.torn_writes == 1
        reloaded = ClickLog(path=path)
        assert reloaded.dropped_records == 1
        # The damaged file was rewritten clean: next restart drops nothing.
        assert [r["session_id"] for r in recover_jsonl(path)[0]] == [0, 1, 3, 4]
        again = ClickLog(path=path)
        assert again.dropped_records == 0
        assert len(again) == 4

    def test_ids_continue_past_a_dropped_tail(self, tmp_path):
        path = str(tmp_path / "clicks.jsonl")
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("clicklog.append", "torn_write", after=2, times=None)
                ]
            )
        )
        log = ClickLog(path=path, injector=inj)
        _log_n(log, 3)  # last session torn
        reloaded = ClickLog(path=path)
        assert [r["session_id"] for r in recover_jsonl(path)[0]] == [0, 1]
        record = reloaded.log_session(
            user=1, query_category=0, items=np.array([7]), clicks=np.array([0.0])
        )
        assert record.session_id == 2  # the torn id is reused only after it died

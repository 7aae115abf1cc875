"""Control-plane event log: ring bounds, typed kinds, fleet merge."""

import pytest

from repro.obs import EVENT_KINDS, Event, EventLog
from repro.obs import events as events_module


class TestRecord:
    def test_typed_kinds_only(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event kind"):
            log.record("model_sawp", 0.0)
        for kind in EVENT_KINDS:
            log.record(kind, 1.0)
        assert log.recorded == len(EVENT_KINDS)

    def test_event_payload(self):
        log = EventLog()
        event = log.record("hot_swap", 12.5, version="v3", shards=2)
        assert event == Event("hot_swap", 12.5, {"version": "v3", "shards": 2})
        assert event.to_dict() == {
            "kind": "hot_swap",
            "timestamp": 12.5,
            "attrs": {"version": "v3", "shards": 2},
        }

    def test_ring_evicts_oldest_but_counts_survive(self, monkeypatch):
        monkeypatch.setattr(events_module, "CAPACITY", 3)
        log = EventLog()
        for i in range(8):
            log.record("hot_swap", float(i), n=i)
        assert len(log) == 3
        assert [event.attrs["n"] for event in log.events()] == [5, 6, 7]
        assert log.dropped == 5
        assert log.recorded == 8
        assert log.counts() == {"hot_swap": 8}  # eviction-proof

    def test_filter_and_tail(self):
        log = EventLog()
        log.record("hot_swap", 1.0)
        log.record("canary_verdict", 2.0, passed=True)
        log.record("hot_swap", 3.0)
        assert [event.timestamp for event in log.events("hot_swap")] == [1.0, 3.0]
        assert [event.timestamp for event in log.tail(2)] == [2.0, 3.0]


class TestMerge:
    def test_chronological_union(self):
        a, b = EventLog(), EventLog()
        a.record("hot_swap", 1.0)
        a.record("hot_swap", 5.0)
        b.record("canary_verdict", 3.0)
        merged = a.merge(b)
        assert [event.timestamp for event in merged.events()] == [1.0, 3.0, 5.0]
        assert merged.counts() == {"hot_swap": 2, "canary_verdict": 1}
        assert merged.recorded == 3

    def test_overflowing_merge_keeps_latest(self, monkeypatch):
        monkeypatch.setattr(events_module, "CAPACITY", 2)
        a, b = EventLog(), EventLog()
        for t in (1.0, 2.0):
            a.record("hot_swap", t)
        for t in (3.0, 4.0):
            b.record("hot_swap", t)
        merged = a.merge(b)
        assert len(merged) == 2
        assert [event.timestamp for event in merged.events()] == [3.0, 4.0]
        assert merged.dropped == 2  # the two that fell off the union
        assert merged.counts()["hot_swap"] == 4

"""Atomic writes and torn-tail recovery: old state or new state, never half."""

import json

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, TransientFault
from repro.utils import atomic_write_bytes, crc32_bytes, recover_jsonl


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "state.bin"
        atomic_write_bytes(str(path), b"hello")
        assert path.read_bytes() == b"hello"
        atomic_write_bytes(str(path), b"world")
        assert path.read_bytes() == b"world"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "state.bin"
        atomic_write_bytes(str(path), b"x")
        assert path.read_bytes() == b"x"

    def test_torn_write_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "state.bin"
        atomic_write_bytes(str(path), b"previous-good-state")
        inj = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec("registry.save_index", "torn_write", truncate_at=0.5)
                ]
            )
        )
        with pytest.raises(TransientFault):
            atomic_write_bytes(
                str(path), b"new-state", injector=inj, point="registry.save_index"
            )
        # The published file is the previous state; the torn bytes are in tmp.
        assert path.read_bytes() == b"previous-good-state"
        tmp = tmp_path / "state.bin.tmp"
        assert tmp.read_bytes() == b"new-state"[: int(len(b"new-state") * 0.5)]
        # Retrying (fault spent) succeeds.
        atomic_write_bytes(
            str(path), b"new-state", injector=inj, point="registry.save_index"
        )
        assert path.read_bytes() == b"new-state"

    def test_crc32_is_stable(self):
        assert crc32_bytes(b"abc") == crc32_bytes(b"abc")
        assert crc32_bytes(b"abc") != crc32_bytes(b"abd")


class TestRecoverJsonl:
    def test_missing_file(self, tmp_path):
        assert recover_jsonl(str(tmp_path / "nope.jsonl")) == ([], 0)

    def test_clean_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [{"i": 0}, {"i": 1}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        records, dropped = recover_jsonl(str(path))
        assert records == rows
        assert dropped == 0

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps({"i": 0}) + "\n" + '{"i": 1, "x"\n')
        records, dropped = recover_jsonl(str(path))
        assert records == [{"i": 0}]
        assert dropped == 1

    def test_non_object_lines_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"i": 0}\n[1, 2]\n42\n\n{"i": 1}\n')
        records, dropped = recover_jsonl(str(path))
        assert records == [{"i": 0}, {"i": 1}]
        assert dropped == 2

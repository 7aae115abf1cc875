"""Shared-memory snapshot slabs: publish/attach roundtrip, corruption
detection, the startup orphan sweep, and a world's histories travelling
as one array."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.data import WorldConfig, generate_world
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.infer import (
    SlabFormatError,
    SnapshotSlab,
    TornSlabError,
    shared_memory_available,
    sweep_orphan_slabs,
)
from repro.infer.slabs import SLAB_PREFIX
from repro.obs import EventLog

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


def _publish(payload, **kwargs):
    slab = SnapshotSlab.publish(payload, **kwargs)
    return slab


class TestRoundtrip:
    def test_payload_roundtrips_with_zero_copy_arrays(self):
        rng = np.random.default_rng(3)
        payload = {
            "weights": rng.standard_normal((17, 5)).astype(np.float32),
            "ids": np.arange(40, dtype=np.int64),
            "meta": {"version": "v3", "count": 7},
            "empty": np.zeros((0, 4), dtype=np.float64),
        }
        slab = _publish(payload)
        try:
            reader = SnapshotSlab.attach(slab.name)
            try:
                np.testing.assert_array_equal(
                    reader.payload["weights"], payload["weights"]
                )
                np.testing.assert_array_equal(reader.payload["ids"], payload["ids"])
                assert reader.payload["meta"] == payload["meta"]
                assert reader.payload["empty"].shape == (0, 4)
                # Arrays are views over the mapped segment, not copies.
                assert not reader.payload["weights"].flags.owndata
            finally:
                reader.payload = None
                reader.close()
        finally:
            slab.destroy()

    def test_reader_views_are_read_only(self):
        slab = _publish({"a": np.ones(8)})
        try:
            reader = SnapshotSlab.attach(slab.name)
            try:
                assert not reader.payload["a"].flags.writeable
                with pytest.raises(ValueError):
                    reader.payload["a"][0] = 2.0
            finally:
                reader.payload = None
                reader.close()
        finally:
            slab.destroy()

    def test_duplicate_arrays_are_stored_once_and_share_memory(self):
        shared = np.arange(1000, dtype=np.float64)
        slab = _publish({"a": shared, "same": shared, "other": shared + 1})
        try:
            # Byte-level dedup: two references, one copy in the region.
            assert slab.array_bytes < 3 * shared.nbytes
            reader = SnapshotSlab.attach(slab.name)
            try:
                # Reconstructed views are distinct objects over one buffer.
                assert np.shares_memory(reader.payload["a"], reader.payload["same"])
                assert not np.shares_memory(
                    reader.payload["a"], reader.payload["other"]
                )
            finally:
                reader.payload = None
                reader.close()
        finally:
            slab.destroy()

    def test_describe_accounts_for_every_byte(self):
        slab = _publish({"w": np.zeros((32, 8), dtype=np.float32)})
        try:
            stats = slab.describe()
            assert stats["nbytes"] >= stats["pickle_bytes"] + stats["array_bytes"]
            assert stats["array_bytes"] >= 32 * 8 * 4
        finally:
            slab.destroy()

    def test_describe_counts_each_distinct_array_once_on_both_sides(self):
        shared = np.arange(10.0)
        slab = _publish({"a": shared, "same": shared, "b": np.ones(3), "n": 7})
        try:
            assert slab.describe()["arrays"] == 2
            reader = SnapshotSlab.attach(slab.name)
            try:
                assert reader.describe()["arrays"] == 2
            finally:
                reader.payload = None
                reader.close()
        finally:
            slab.destroy()

    def test_exists_tracks_lifecycle(self):
        slab = _publish({"x": 1})
        name = slab.name
        assert SnapshotSlab.exists(name)
        slab.destroy()
        assert not SnapshotSlab.exists(name)


class TestCorruptionDetection:
    def test_attach_unknown_name_raises_file_not_found(self):
        with pytest.raises(FileNotFoundError):
            SnapshotSlab.attach(f"{SLAB_PREFIX}_0_999999")

    def test_torn_publish_raises_and_leaves_uncommitted_segment(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec("slab.publish", "torn_write", times=1),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(TornSlabError) as excinfo:
            SnapshotSlab.publish({"w": np.ones(64)}, injector=injector)
        torn = excinfo.value.slab
        try:
            # The header never committed, so a reader rejects the segment
            # (this is the no-mixed-generations guarantee: attach sees a
            # complete payload or an error, nothing in between).
            with pytest.raises(SlabFormatError):
                SnapshotSlab.attach(torn.name)
            assert SnapshotSlab.exists(torn.name)
        finally:
            torn.destroy()
        assert not SnapshotSlab.exists(torn.name)

    def test_flipped_body_byte_fails_crc(self):
        slab = _publish({"w": np.arange(128, dtype=np.int64)})
        try:
            buf = slab._segment.buf
            buf[slab.nbytes - 1] ^= 0xFF
            with pytest.raises(SlabFormatError, match="CRC"):
                SnapshotSlab.attach(slab.name)
        finally:
            slab.destroy()


class TestOrphanSweep:
    def test_sweeps_own_dead_segments_and_records_events(self):
        slab = _publish({"x": np.ones(4)})
        name = slab.name
        slab.close()  # handle gone, name still linked: an orphan-to-be
        events = EventLog()
        removed = sweep_orphan_slabs(events=events, clock=lambda: 1.5)
        assert name in removed
        assert not SnapshotSlab.exists(name)
        recovered = events.events("state_recovered")
        assert any(e.attrs["segment"] == name for e in recovered)
        assert all(e.attrs["source"] == "orphan_sweep" for e in recovered)

    def test_excluded_segments_survive_the_sweep(self):
        slab = _publish({"x": 1})
        try:
            removed = sweep_orphan_slabs(exclude=(slab.name,))
            assert slab.name not in removed
            assert SnapshotSlab.exists(slab.name)
        finally:
            slab.destroy()

    def test_other_live_processes_segments_are_left_alone(self):
        # Fake a segment owned by a live foreign pid (pid 1 is always up).
        path = f"/dev/shm/{SLAB_PREFIX}_1_0"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            removed = sweep_orphan_slabs()
            assert f"{SLAB_PREFIX}_1_0" not in removed
            assert os.path.exists(path)
        finally:
            os.unlink(path)

    def test_dead_pid_segment_is_reclaimed(self):
        # A pid far beyond pid_max cannot be running.
        name = f"{SLAB_PREFIX}_99999999_7"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        removed = sweep_orphan_slabs()
        assert name in removed
        assert not os.path.exists(path)


_CACHED = ("item_slab", "category_items", "category_popularity", "category_inverse_popularity")


def _world(num_users=200):
    """A unit world whose cached catalog tables are built (so they travel)."""
    config = replace(WorldConfig.unit(), num_users=num_users)
    world = generate_world(config, np.random.default_rng(4))
    for name in _CACHED:
        getattr(world, name)
    return world


def _assert_same_world(got, want):
    assert len(got.histories) == len(want.histories)
    for ours, theirs in zip(got.histories, want.histories):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        np.testing.assert_array_equal(ours, theirs)
    for name in _CACHED:
        assert name in vars(got), f"{name} was rebuilt, not carried"
    for name in _CACHED[1:]:
        assert len(getattr(got, name)) == len(getattr(want, name))
        for ours, theirs in zip(getattr(got, name), getattr(want, name)):
            np.testing.assert_array_equal(ours, theirs)
    for column in type(want.item_slab).__slots__:
        np.testing.assert_array_equal(
            getattr(got.item_slab, column), getattr(want.item_slab, column)
        )


class TestWorldHistoriesTravelAsOneArray:
    def test_pickle_roundtrip_keeps_every_history(self):
        world = _world()
        assert any(len(h) == 0 for h in world.histories)
        _assert_same_world(pickle.loads(pickle.dumps(world)), world)

    def test_worlds_without_users_roundtrip(self):
        world = _world()
        empty = replace(world, histories=[])
        assert pickle.loads(pickle.dumps(empty)).histories == []
        blank = replace(world, histories=[np.empty(0, dtype=np.int64)] * 3)
        got = pickle.loads(pickle.dumps(blank)).histories
        assert [(h.dtype, h.shape) for h in got] == [(np.dtype(np.int64), (0,))] * 3

    def test_slab_roundtrip_gives_read_only_views(self):
        world = _world()
        slab = _publish({"world": world})
        try:
            reader = SnapshotSlab.attach(slab.name)
            try:
                got = reader.payload["world"]
                _assert_same_world(got, world)
                rich = next(h for h in got.histories if len(h))
                assert not rich.flags.writeable and not rich.flags.owndata
                with pytest.raises(ValueError):
                    rich[0] = 0
                # Every history is a slice of one externalized array.
                flat = got.histories[0].base
                assert isinstance(flat, np.ndarray)
                assert flat.size == sum(len(h) for h in world.histories)
                assert all(h.base is flat for h in got.histories)
            finally:
                reader.payload = None
                reader.close()
        finally:
            slab.destroy()

    def test_array_count_does_not_grow_with_users(self):
        counts = []
        for num_users in (100, 400):
            slab = _publish({"world": _world(num_users)})
            try:
                counts.append(slab.describe()["arrays"])
            finally:
                slab.destroy()
        assert counts[0] == counts[1]

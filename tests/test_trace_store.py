"""Tests for the binary trace store and the array-backed collector.

Covers the capture-once/replay-many substrate: ``.npz`` round-trips,
content-addressed key invalidation, the collector's memory accounting and
spill-to-disk path, and the 32-bit masking on bulk memory image loads.
"""

import numpy as np
import pytest

import repro.core  # noqa: F401  -- resolves the core<->ecache import cycle
from repro.ecache.memory import Memory, MemoryFault
from repro.traces.capture import TraceCollector
from repro.traces.store import (CapturedTrace, TraceStore, canonical_json,
                                descriptor_key)


class TestCapturedTrace:
    def test_npz_round_trip(self, tmp_path):
        trace = CapturedTrace(
            arrays={"addresses": np.arange(100, dtype=np.int64),
                    "is_store": np.array([0, 1, 1], dtype=np.int8)},
            meta={"kind": "test", "length": 100, "nested": {"a": [1, 2]}})
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = CapturedTrace.load(path)
        assert loaded.meta == trace.meta
        assert set(loaded.arrays) == {"addresses", "is_store"}
        for name in trace.arrays:
            np.testing.assert_array_equal(loaded[name], trace[name])
            assert loaded[name].dtype == trace[name].dtype

    def test_save_is_atomic_on_failure(self, tmp_path):
        # nothing but the final .npz may remain after a successful save
        trace = CapturedTrace(arrays={"a": np.zeros(4, dtype=np.int64)})
        path = tmp_path / "sub" / "trace.npz"
        trace.save(path)
        assert [p.name for p in path.parent.iterdir()] == ["trace.npz"]

    def test_nbytes_sums_arrays(self):
        trace = CapturedTrace(
            arrays={"a": np.zeros(10, dtype=np.int64),
                    "b": np.zeros(10, dtype=np.int8)})
        assert trace.nbytes() == 10 * 8 + 10


class TestDescriptorKey:
    def test_key_is_order_independent(self):
        assert (descriptor_key({"a": 1, "b": "x"})
                == descriptor_key({"b": "x", "a": 1}))

    def test_key_changes_with_any_field(self):
        base = {"kind": "synthetic-fetch", "length": 1000, "seed": 7}
        key = descriptor_key(base)
        for field, value in (("length", 1001), ("seed", 8),
                             ("kind", "synthetic-data")):
            assert descriptor_key(dict(base, **{field: value})) != key

    def test_tuples_and_lists_are_interchangeable(self):
        assert (descriptor_key({"points": (1, "a", 2.5)})
                == descriptor_key({"points": [1, "a", 2.5]}))

    def test_canonical_json_is_key_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_is_stable_and_filename_safe(self):
        key = descriptor_key({"kind": "x"})
        assert key == descriptor_key({"kind": "x"})
        assert len(key) == 24
        assert all(c in "0123456789abcdef" for c in key)


class TestTraceStore:
    def _descriptor(self):
        return {"kind": "unit-test", "n": 5}

    def _capture(self, calls):
        def capture():
            calls.append(1)
            return CapturedTrace(arrays={"a": np.arange(5, dtype=np.int64)},
                                 meta={"kind": "unit-test"})
        return capture

    def test_miss_captures_then_hit_skips(self, tmp_path):
        store = TraceStore(root=tmp_path)
        calls = []
        trace, elapsed, hit = store.get_or_capture(
            self._descriptor(), self._capture(calls))
        assert not hit and calls == [1] and elapsed >= 0.0
        trace2, elapsed2, hit2 = store.get_or_capture(
            self._descriptor(), self._capture(calls))
        assert hit2 and calls == [1] and elapsed2 == 0.0
        np.testing.assert_array_equal(trace["a"], trace2["a"])

    def test_reuse_false_recaptures(self, tmp_path):
        store = TraceStore(root=tmp_path)
        calls = []
        store.get_or_capture(self._descriptor(), self._capture(calls))
        store.get_or_capture(self._descriptor(), self._capture(calls),
                             reuse=False)
        assert calls == [1, 1]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceStore(root=tmp_path)
        calls = []
        store.get_or_capture(self._descriptor(), self._capture(calls))
        store.path_for(self._descriptor()).write_bytes(b"not an npz")
        assert store.get(self._descriptor()) is None
        _, _, hit = store.get_or_capture(self._descriptor(),
                                         self._capture(calls))
        assert not hit and calls == [1, 1]
        # the re-capture repaired the entry
        assert store.get(self._descriptor()) is not None

    def test_different_descriptors_do_not_collide(self, tmp_path):
        store = TraceStore(root=tmp_path)
        store.put({"n": 1},
                  CapturedTrace(arrays={"a": np.array([1], dtype=np.int64)}))
        store.put({"n": 2},
                  CapturedTrace(arrays={"a": np.array([2], dtype=np.int64)}))
        assert store.get({"n": 1})["a"][0] == 1
        assert store.get({"n": 2})["a"][0] == 2


class TestTraceStoreIntegrity:
    def _descriptor(self):
        return {"kind": "integrity-test", "n": 3}

    def _put_one(self, store):
        store.put(self._descriptor(),
                  CapturedTrace(arrays={"a": np.arange(3, dtype=np.int64)}))

    def test_put_writes_sha256_sidecar(self, tmp_path):
        import hashlib

        store = TraceStore(root=tmp_path)
        self._put_one(store)
        payload = store.path_for(self._descriptor()).read_bytes()
        sidecar = store.digest_path_for(self._descriptor())
        assert sidecar.exists()
        assert sidecar.read_text().strip() == (
            hashlib.sha256(payload).hexdigest())

    def test_truncated_payload_is_a_counted_miss(self, tmp_path, caplog):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        path = store.path_for(self._descriptor())
        path.write_bytes(path.read_bytes()[:-16])  # truncate
        with caplog.at_level("WARNING", logger="repro.traces.store"):
            assert store.get(self._descriptor()) is None
        assert store.integrity_failures == 1
        assert store.misses == 1
        assert any("sha256 mismatch" in r.message for r in caplog.records)

    def test_missing_sidecar_is_a_counted_miss(self, tmp_path, caplog):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        store.digest_path_for(self._descriptor()).unlink()
        with caplog.at_level("WARNING", logger="repro.traces.store"):
            assert store.get(self._descriptor()) is None
        assert store.integrity_failures == 1
        assert any("no sha256 sidecar" in r.message for r in caplog.records)

    def test_counters_track_hits_and_misses(self, tmp_path):
        store = TraceStore(root=tmp_path)
        assert store.get(self._descriptor()) is None   # cold miss
        self._put_one(store)
        assert store.get(self._descriptor()) is not None
        assert (store.hits, store.misses, store.integrity_failures) \
            == (1, 1, 0)

    def test_recapture_repairs_a_corrupt_entry(self, tmp_path):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        store.path_for(self._descriptor()).write_bytes(b"garbage")
        trace, _, hit = store.get_or_capture(
            self._descriptor(),
            lambda: CapturedTrace(
                arrays={"a": np.arange(3, dtype=np.int64)}))
        assert not hit
        assert store.get(self._descriptor()) is not None

    def test_put_releases_its_lockfile(self, tmp_path):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert not any(name.endswith(".lock") for name in leftovers)
        assert not any(".tmp" in name for name in leftovers)

    def test_dead_holder_lock_is_broken_immediately(self, tmp_path):
        import multiprocessing
        import time

        from repro import fileio

        worker = multiprocessing.Process(target=lambda: None)
        worker.start()
        worker.join()                            # pid now provably dead
        store = TraceStore(root=tmp_path)
        lock = store.lock_path_for(self._descriptor())
        lock.write_text(str(worker.pid))         # fresh mtime, dead pid
        start = time.monotonic()
        self._put_one(store)                     # must not wait for age-out
        assert time.monotonic() - start < fileio.LOCK_STALE_SECONDS / 2
        assert store.get(self._descriptor()) is not None
        assert not lock.exists()

    def test_kill9_mid_put_leaves_recoverable_store(self, tmp_path):
        # SIGKILL a writer between the payload write and the rename: the
        # next producer must break the dead lock, rewrite the entry, and
        # leave no stale debris behind.
        import multiprocessing
        import os
        import signal

        descriptor = self._descriptor()

        def doomed_put():
            store = TraceStore(root=tmp_path)
            original = os.replace

            def die(*args, **kwargs):
                os.kill(os.getpid(), signal.SIGKILL)
                return original(*args, **kwargs)  # pragma: no cover

            os.replace = die
            store.put(descriptor, CapturedTrace(
                arrays={"a": np.arange(3, dtype=np.int64)}))

        worker = multiprocessing.Process(target=doomed_put)
        worker.start()
        worker.join()
        assert worker.exitcode == -signal.SIGKILL
        store = TraceStore(root=tmp_path)
        lock = store.lock_path_for(descriptor)
        assert lock.exists()                     # the crash orphaned it
        assert store.get(descriptor) is None     # no entry, not garbage
        self._put_one(store)                     # dead lock broken, rewritten
        assert store.get(descriptor) is not None
        assert not lock.exists()
        store.TMP_STALE_SECONDS = 0.0
        assert store.get({"kind": "other"}) is None  # miss sweeps debris
        assert not any(".tmp" in p.name for p in tmp_path.iterdir())

    def test_orphaned_tmp_is_aged_out_on_miss(self, tmp_path):
        import os
        import time

        store = TraceStore(root=tmp_path)
        old_tmp = tmp_path / "dead-writer.npz.tmp"
        old_tmp.write_bytes(b"partial")
        ancient = time.time() - store.TMP_STALE_SECONDS - 10
        os.utime(old_tmp, (ancient, ancient))
        fresh_tmp = tmp_path / "live-writer.npz.tmp"
        fresh_tmp.write_bytes(b"in flight")
        assert store.get(self._descriptor()) is None   # a miss sweeps
        assert not old_tmp.exists()
        assert fresh_tmp.exists()                # live writer untouched


class TestCollectorMemory:
    def _feed(self, collector, events):
        for i in range(events):
            collector.on_fetch(i)
            collector.on_data(i, i * 3, i % 2 == 0)
            collector.on_ecache(i % 3, i * 3)

    def test_approx_bytes_grows_with_capture(self):
        collector = TraceCollector(ecache=True)
        before = collector.approx_bytes()
        self._feed(collector, 1000)
        after = collector.approx_bytes()
        # 8B fetch + 8B+1B data + 1B+8B ecache per event
        assert after - before == 1000 * 26

    def test_spill_keeps_streams_identical(self):
        reference = TraceCollector(ecache=True)
        spilling = TraceCollector(ecache=True, max_bytes=4096)
        events = 3 * 4096  # several spill checks past the cap
        self._feed(reference, events)
        self._feed(spilling, events)
        assert spilling._spill_dir is not None  # the cap actually tripped
        np.testing.assert_array_equal(spilling.fetch_array(),
                                      reference.fetch_array())
        for got, want in zip(spilling.data_arrays(),
                             reference.data_arrays()):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(spilling.ecache_arrays(),
                             reference.ecache_arrays()):
            np.testing.assert_array_equal(got, want)
        # accounting still sees the spilled bytes
        assert spilling.approx_bytes() == reference.approx_bytes()

    def test_spilled_collector_keeps_appending(self):
        collector = TraceCollector(ecache=True, max_bytes=1024)
        self._feed(collector, 4096)
        self._feed(collector, 100)  # appends after a spill must not raise
        assert len(collector.fetch_array()) == 4196


class TestMemoryLoadImage:
    def test_values_are_masked_to_32_bits(self):
        memory = Memory(64)
        memory.load_image({0: 1 << 35 | 7, 1: -1 & 0xFFFFFFFFFF})
        assert memory.read(0) == 7
        assert memory.read(1) == 0xFFFFFFFF

    def test_out_of_range_image_loads_nothing(self):
        memory = Memory(16)
        with pytest.raises(MemoryFault):
            memory.load_image({0: 1, 99: 2})
        assert len(memory) == 0  # bounds-checked before any word lands

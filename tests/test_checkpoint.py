"""Tests for checkpoint/restore (:mod:`repro.checkpoint`).

The contract under test, end to end:

* snapshots are taken only at **quiescent cycle boundaries** (nothing
  transient in flight), and a run sliced by snapshot/restore finishes
  **bit-identical** to an uninterrupted run -- same registers, PSW/MD,
  cache arrays and LRU state, memory, coprocessors, stats, console;
* the JSON payload survives a serialization round trip (what lands on
  disk is what restores);
* the :class:`~repro.checkpoint.store.SnapshotStore` generation ladder
  is durable (sha256 sidecars, atomic writes, pid-stamped locks; the
  two file primitives are tested in ``tests/test_fileio.py``) and
  **rejects** truncated, bit-flipped, mis-versioned, and wrong-config
  snapshots with named errors, falling back to older generations;
* the fuzz oracle's checkpoint pair finds no divergence.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.checkpoint import (FORMAT, SnapshotConfigError, SnapshotFormatError,
                              SnapshotIntegrityError, SnapshotStore,
                              drain_machine, machine_state, restore_machine)
from repro.checkpoint.state import machine_signature
from repro.checkpoint.store import state_cycles
from repro.core.config import MachineConfig
from repro.core.processor import Machine
from repro.workloads import cached_program


def _fresh(name="sieve", **overrides):
    machine = Machine(MachineConfig(**overrides))
    machine.load_program(cached_program(name))
    return machine


def _run_to_completion(machine, budget=10_000_000):
    machine.run(budget)
    assert machine.halted, "workload did not halt within budget"
    return machine


# ------------------------------------------------------------- quiescence
class TestQuiescence:
    def test_halted_machine_is_quiescent(self):
        machine = _run_to_completion(_fresh())
        assert machine.pipeline.quiescent

    def test_drain_reaches_quiescence_mid_run(self):
        machine = _fresh()
        machine.run(10_000)
        drained = drain_machine(machine)
        assert machine.pipeline.quiescent
        assert drained >= 0

    def test_snapshot_refuses_nothing_after_drain(self):
        # machine_state drains internally; the state it captures must
        # describe a quiescent machine (drain cycles are real cycles)
        machine = _fresh()
        machine.run(10_000)
        state = machine_state(machine)
        assert state["format"] == FORMAT
        assert state_cycles(state) >= 10_000


# ------------------------------------------------------------- round trip
class TestRoundTrip:
    @pytest.mark.parametrize("jit", [False, True],
                             ids=["interp", "jit"])
    def test_half_run_snapshot_finishes_bit_identical(self, jit):
        straight = _run_to_completion(_fresh(jit=jit))
        total = straight.stats.cycles

        first = _fresh(jit=jit)
        first.run(total // 2)
        # force the same JSON round trip the store performs
        state = json.loads(json.dumps(machine_state(first)))

        second = _fresh(jit=jit)
        restore_machine(second, state)
        _run_to_completion(second)

        assert machine_signature(second) == machine_signature(straight)
        assert list(second.console.values) == list(straight.console.values)

    def test_snapshot_is_pure_json(self):
        machine = _fresh()
        machine.run(5_000)
        state = machine_state(machine)
        json.dumps(state)   # raises on any non-JSON value

    def test_multi_machine_round_trip(self):
        from repro.checkpoint import multi_state, restore_multi
        from repro.multi.system import MultiMachine
        from repro.workloads.parallel import parallel_program

        def build():
            multi = MultiMachine(2)
            multi.load_program(parallel_program("psieve", 2))
            return multi

        straight = build()
        straight.run(10_000_000)
        assert straight.all_halted
        total = straight.cycles

        first = build()
        first.run(total // 2)
        state = json.loads(json.dumps(multi_state(first)))
        second = build()
        restore_multi(second, state)
        second.run(10_000_000)
        assert second.all_halted

        # one config on both sides, so the whole state compares: header,
        # shared memory, every node, the bus and the clock
        assert multi_state(second) == multi_state(straight)


# ---------------------------------------------------------------- store
class TestStore:
    def _laddered_store(self, tmp_path):
        """A store holding two generations of a sieve run."""
        store = SnapshotStore(root=tmp_path / "ckpt")
        machine = _fresh()
        machine.run(2_000)
        store.save("t", machine_state(machine))
        machine.run(4_000)
        store.save("t", machine_state(machine))
        return store, machine

    def test_generation_files_and_sidecars(self, tmp_path):
        store, _machine = self._laddered_store(tmp_path)
        generations = store.generations("t")
        assert len(generations) == 2
        for path in generations:
            assert path.name.startswith("gen-")
            assert path.with_suffix(".json.sha256").exists()
        # sorted oldest -> newest by embedded cycle count
        assert [p.name for p in generations] == sorted(
            p.name for p in generations)

    def test_load_latest_returns_newest(self, tmp_path):
        store, machine = self._laddered_store(tmp_path)
        state, newest = store.load_latest("t")
        assert newest == store.generations("t")[-1]
        assert state_cycles(state) == machine.stats.cycles

    def test_save_releases_its_lockfile(self, tmp_path):
        store, _machine = self._laddered_store(tmp_path)
        leftovers = [p.name for p in store.run_dir("t").iterdir()]
        assert ".lock" not in leftovers
        assert not any(name.endswith(".tmp") for name in leftovers)

    def test_dead_pid_lock_is_broken(self, tmp_path):
        store = SnapshotStore(root=tmp_path / "ckpt")
        machine = _fresh()
        machine.run(2_000)
        # simulate a crashed writer: lock stamped with a dead pid
        child = multiprocessing.Process(target=_noop)
        child.start()
        child.join()
        run_dir = store.run_dir("t")
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / ".lock").write_text(str(child.pid))
        store.save("t", machine_state(machine))   # must not dead-lock
        state, _path = store.load_latest("t")
        assert state is not None
        assert not (run_dir / ".lock").exists()


def _noop():
    pass


# ------------------------------------------------------------- rejection
class TestRejection:
    def _saved(self, tmp_path):
        store = SnapshotStore(root=tmp_path / "ckpt")
        machine = _fresh()
        machine.run(2_000)
        older = store.save("t", machine_state(machine))
        machine.run(4_000)
        newer = store.save("t", machine_state(machine))
        return store, older, newer

    def test_truncated_snapshot_rejected_with_fallback(self, tmp_path):
        store, older, newer = self._saved(tmp_path)
        data = newer.read_bytes()
        newer.write_bytes(data[:len(data) // 2])
        with pytest.raises(SnapshotIntegrityError):
            store.load(newer)
        state, fallback = store.load_latest("t")
        assert fallback == older
        assert state_cycles(state) == state_cycles(
            json.loads(older.read_text()))
        assert store.fallbacks >= 1

    def test_flipped_byte_rejected(self, tmp_path):
        store, older, newer = self._saved(tmp_path)
        data = bytearray(newer.read_bytes())
        data[len(data) // 2] ^= 0x01
        newer.write_bytes(bytes(data))
        with pytest.raises(SnapshotIntegrityError):
            store.load(newer)
        state, fallback = store.load_latest("t")
        assert fallback == older
        assert state_cycles(state) == state_cycles(
            json.loads(older.read_text()))

    def test_missing_sidecar_rejected(self, tmp_path):
        store, _older, newer = self._saved(tmp_path)
        newer.with_suffix(".json.sha256").unlink()
        with pytest.raises(SnapshotIntegrityError):
            store.load(newer)

    def test_future_format_rejected(self, tmp_path):
        store, _older, newer = self._saved(tmp_path)
        state = json.loads(newer.read_text())
        state["format"] = FORMAT + 999
        forged = store.save("t2", state)   # re-saved: checksum *valid*
        with pytest.raises(SnapshotFormatError):
            store.load(forged)
        # the ladder has no valid generation left -- clean miss, no crash
        assert store.load_latest("t2") == (None, None)
        assert store.fallbacks >= 1

    def test_wrong_config_rejected(self, tmp_path):
        store, _older, newer = self._saved(tmp_path)
        state = store.load(newer)
        other = MachineConfig(
            icache=dataclasses.replace(MachineConfig().icache, ways=4))
        machine = Machine(other)
        machine.load_program(cached_program("sieve"))
        with pytest.raises(SnapshotConfigError):
            restore_machine(machine, state)


# ------------------------------------------------------------ fuzz oracle
class TestOracleIntegration:
    def test_checkpoint_pair_finds_no_divergence(self):
        from repro.fuzz.gen import GenConfig, generate_program
        from repro.fuzz.oracle import (_programs_for,
                                       check_checkpoint_equivalence,
                                       run_pipeline)

        generated = generate_program(7, GenConfig(mode="isa", quick=True))
        _naive, reorganized = _programs_for(generated)
        reference = run_pipeline(reorganized, generated)
        report = check_checkpoint_equivalence(reorganized, generated,
                                              reference)
        assert report is None


"""Exact-equivalence tests for the trace-driven replay models.

The capture-once/replay-many pipeline is only admissible because the
replay models are *bit-exact* against the live simulators; these tests
pin that down three ways:

* randomized (hypothesis) address streams through the Icache and Ecache
  replay models vs. the live caches, across organizations and policies,
  and stride-1 loop streams -- the runs the Icache replay resolves a
  portion at a time -- down to one-line sets;
* real pipeline-captured streams: a workload runs on the cycle-accurate
  machine with a :class:`TraceCollector` attached and the recorded
  streams replay to the machine's own cache statistics;
* the Table 1 branch study replayed from stored counts/plans equals the
  live evaluation, and the traced sweeps agree with the live points.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EcacheConfig, IcacheConfig
from repro.ecache import trace_sim as ecache_sim
from repro.ecache.ecache import Ecache
from repro.icache import trace_sim as icache_sim
from repro.icache.cache import simulate
from repro.traces.store import TraceStore


geometries = st.sampled_from([
    (4, 8, 16),   # the paper's organization
    (2, 4, 8),
    (8, 2, 4),
    (1, 4, 4),    # fully associative
    (16, 1, 2),   # direct mapped
    (4, 2, 1),    # single-word blocks (the replay fast path)
])

#: stride-1 loops (base, length, trips), back to back: random addresses
#: almost never form the runs the replay resolves a portion at a time
loop_traces = st.lists(
    st.tuples(st.integers(0, 600), st.integers(1, 48), st.integers(1, 4)),
    min_size=1, max_size=12,
).map(lambda loops: [address for base, length, trips in loops
                     for _ in range(trips)
                     for address in range(base, base + length)])


class TestIcacheReplayEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries,
           fetchback=st.integers(0, 4),
           policy=st.sampled_from(["lru", "fifo", "random"]),
           addresses=st.lists(st.integers(0, 4095),
                              min_size=1, max_size=400) | loop_traces)
    def test_replay_matches_live_simulation(self, geometry, fetchback,
                                            policy, addresses):
        sets, ways, block = geometry
        config = IcacheConfig(sets=sets, ways=ways, block_words=block,
                              fetchback=fetchback, replacement=policy)
        live = simulate(config, addresses)
        replayed = icache_sim.replay(
            config, np.asarray(addresses, dtype=np.int64))
        assert replayed == live

    @settings(max_examples=20, deadline=None)
    @given(addresses=st.lists(st.integers(0, 2047),
                              min_size=1, max_size=300))
    def test_repeated_runs_stay_exact(self, addresses):
        # stress the run/repeat collapse: loop the same window many times
        looped = addresses * 5
        config = IcacheConfig()
        live = simulate(config, looped)
        replayed = icache_sim.replay(
            config, np.asarray(looped, dtype=np.int64))
        assert replayed == live

    # One-line sets, where a fetch-back spill can evict the block being
    # walked, and one-word blocks with fetch-back past the set count,
    # where the replay cannot step over the fetched-back words.
    @pytest.mark.parametrize("geometry", [(1, 1, 16), (1, 1, 1), (2, 1, 1)])
    @pytest.mark.parametrize("fetchback", range(5))
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @settings(max_examples=8, deadline=None)
    @given(addresses=loop_traces)
    def test_one_line_sets_match_live_simulation(self, geometry, fetchback,
                                                 policy, addresses):
        sets, ways, block = geometry
        config = IcacheConfig(sets=sets, ways=ways, block_words=block,
                              fetchback=fetchback, replacement=policy)
        replayed = icache_sim.replay(
            config, np.asarray(addresses, dtype=np.int64))
        assert replayed == simulate(config, addresses)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_hits_after_a_spill_touch_the_walked_block(self, policy):
        # Word 2's miss fetches words 2-4, spilling into block 1 of the
        # same set; the hit on word 3 then makes block 0 most recent
        # again under LRU, so block 2 evicts block 1 and word 2 still hits.
        config = IcacheConfig(sets=1, ways=2, block_words=4, fetchback=3,
                              replacement=policy)
        addresses = [2, 3, 8, 2]
        replayed = icache_sim.replay(
            config, np.asarray(addresses, dtype=np.int64))
        assert replayed == simulate(config, addresses)

    def test_empty_trace(self):
        stats = icache_sim.replay(IcacheConfig(),
                                  np.empty(0, dtype=np.int64))
        assert stats.accesses == 0 and stats.misses == 0


class TestEcacheReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(size_words=st.sampled_from([64, 256, 1024]),
           line_words=st.sampled_from([1, 4, 8]),
           write_through=st.booleans(),
           refs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8191)),
                         min_size=1, max_size=400))
    def test_replay_matches_live_ecache(self, size_words, line_words,
                                        write_through, refs):
        config = EcacheConfig(size_words=size_words, line_words=line_words,
                              write_through=write_through)
        cache = Ecache(config)
        live_stall = 0
        for kind, address in refs:
            if kind == ecache_sim.KIND_READ:
                live_stall += cache.read(address, True)
            elif kind == ecache_sim.KIND_WRITE:
                live_stall += cache.write(address, True)
            else:
                live_stall += cache.ifetch(address, True)
        kinds = np.array([k for k, _ in refs], dtype=np.int8)
        addresses = np.array([a for _, a in refs], dtype=np.int64)
        stats, stall = ecache_sim.replay(config, kinds, addresses)
        assert stats == cache.stats
        assert stall == live_stall

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ecache_sim.replay(EcacheConfig(), [0, 0], [1])


class TestPipelineCapturedStreams:
    """A real workload's captured streams replay to the machine's stats."""

    @pytest.fixture(scope="class")
    def captured(self):
        from repro.core import Machine, MachineConfig
        from repro.traces.capture import TraceCollector
        from repro.workloads import cached_program

        machine = Machine(MachineConfig())
        collector = TraceCollector(ecache=True)
        machine.set_trace(collector)
        machine.load_program(cached_program("sieve"))
        machine.run(2_000_000)
        assert machine.halted
        return machine, collector

    def test_fetch_stream_replays_to_icache_stats(self, captured):
        machine, collector = captured
        replayed = icache_sim.replay(machine.config.icache,
                                     collector.fetch_array())
        assert replayed == machine.icache.stats

    def test_ecache_stream_replays_to_ecache_stats(self, captured):
        machine, collector = captured
        kinds, addresses = collector.ecache_arrays()
        stats, _ = ecache_sim.replay(machine.config.ecache, kinds, addresses)
        assert stats == machine.ecache.stats


class TestTable1Replay:
    NAMES = ("sieve", "bubble")

    def test_traced_equals_live(self, tmp_path):
        from repro.analysis.branch_schemes import table1
        from repro.analysis.trace_replay import ReplayTiming, table1_traced

        live = table1(self.NAMES)
        timing = ReplayTiming()
        store = TraceStore(root=tmp_path)
        traced = table1_traced(self.NAMES, store=store, timing=timing)
        assert timing.cache_misses > 0 and timing.cache_hits >= 0
        for a, b in zip(live, traced):
            assert a.scheme.name == b.scheme.name
            assert (a.executions, a.cycles) == (b.executions, b.cycles)
            assert a.cycles_per_branch == pytest.approx(b.cycles_per_branch)

        # a warm second pass is served entirely from the store
        warm = ReplayTiming()
        again = table1_traced(self.NAMES, store=store, timing=warm)
        assert warm.cache_misses == 0
        assert warm.capture_s == 0.0
        assert [(e.executions, e.cycles) for e in again] == \
            [(e.executions, e.cycles) for e in traced]

    def test_source_hash_keys_the_store(self, tmp_path):
        from repro.analysis.trace_replay import (
            branch_counts_descriptor,
            workload_source_hash,
        )

        key = branch_counts_descriptor("sieve")
        assert key["source"] == workload_source_hash("sieve")
        assert (branch_counts_descriptor("sieve")["source"]
                != branch_counts_descriptor("bubble")["source"])


class TestTracedSweepsMatchLivePoints:
    def test_icache_sweep_row_matches_live_point(self, tmp_path):
        from repro.harness.experiments import (
            icache_organization_point,
            sweep_jobs,
            traced_icache_sweep,
        )

        outcome = traced_icache_sweep(quick=True,
                                      store=TraceStore(root=tmp_path))
        rows = {row["id"]: row for row in outcome["rows"]}
        # every row, the fetch-back study included, under its live job id
        live_jobs = sweep_jobs("icache-organizations", quick=True)
        assert [job.id for job in live_jobs] == list(rows)
        for job in live_jobs:
            live = icache_organization_point(**job.params)
            row = rows[job.id]
            assert row["miss_ratio"] == live["miss_ratio"], job.id
            assert row["fetch_cost"] == pytest.approx(live["fetch_cost"])

    def test_ecache_sweep_row_matches_live_point(self, tmp_path):
        from repro.harness.experiments import (
            ecache_size_point,
            traced_ecache_sweep,
        )

        outcome = traced_ecache_sweep(quick=True,
                                      store=TraceStore(root=tmp_path))
        rows = {row["id"]: row for row in outcome["rows"]}
        live = ecache_size_point(16384, references=80_000)
        assert rows["ecache/16384w"]["miss_rate"] == live["miss_rate"]
        assert (rows["ecache/16384w"]["stall_per_ref"]
                == pytest.approx(live["stall_per_ref"]))

    def test_warm_sweep_hits_the_store(self, tmp_path):
        from repro.harness.experiments import traced_ecache_sweep

        store = TraceStore(root=tmp_path)
        cold = traced_ecache_sweep(quick=True, store=store)
        warm = traced_ecache_sweep(quick=True, store=store)
        assert cold["cache_misses"] == 1 and cold["cache_hits"] == 0
        assert warm["cache_hits"] == 1 and warm["cache_misses"] == 0
        assert warm["capture_s"] == 0.0
        assert warm["rows"] == cold["rows"]

"""Tests for the on-chip instruction cache: organization, sub-block
placement, double fetch-back, replacement, and live-pipeline timing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.checkpoint.state import _icache_state, _restore_icache
from repro.core import IcacheConfig, Machine, MachineConfig
from repro.icache import Icache, contents_invariants, simulate


def paper_config(**overrides) -> IcacheConfig:
    return IcacheConfig(**overrides)


class TestGeometry:
    def test_paper_organization_totals(self):
        config = paper_config()
        assert config.total_words == 512
        assert config.tags == 32
        assert config.valid_bits == 512

    def test_first_access_misses_then_hits(self):
        cache = Icache(paper_config())
        assert not cache.fetch(100).hit
        assert cache.fetch(100).hit

    def test_double_fetchback_covers_next_word(self):
        cache = Icache(paper_config(fetchback=2))
        result = cache.fetch(100)
        assert result.fill_addresses == [100, 101]
        assert cache.fetch(101).hit

    def test_single_fetchback_does_not_cover_next_word(self):
        cache = Icache(paper_config(fetchback=1))
        cache.fetch(100)
        assert not cache.fetch(101).hit

    def test_subblock_fill_keeps_other_words_invalid(self):
        cache = Icache(paper_config())
        cache.fetch(0)  # fills words 0, 1 of block 0
        assert cache.lookup(0) and cache.lookup(1)
        assert not cache.lookup(2)
        assert not cache.lookup(15)

    def test_subblock_miss_same_tag_does_not_allocate(self):
        cache = Icache(paper_config())
        cache.fetch(0)
        allocations = cache.stats.tag_allocations
        cache.fetch(4)  # same block, different word
        assert cache.stats.tag_allocations == allocations

    def test_fetchback_across_block_boundary(self):
        cache = Icache(paper_config())
        cache.fetch(15)  # last word of block 0; next word is block 1
        assert cache.lookup(15)
        assert cache.lookup(16)
        assert cache.stats.tag_allocations == 2

    def test_set_mapping(self):
        """Blocks map to sets by block address modulo the number of sets."""
        cache = Icache(paper_config())
        # addresses 0 and 4*16=64 share set 0; fill 8 ways + 1 to evict
        addresses = [k * 4 * 16 for k in range(9)]
        for address in addresses:
            cache.fetch(address)
        assert not cache.fetch(addresses[0]).hit  # LRU victim was block 0

    def test_mode_bit_in_tag(self):
        cache = Icache(paper_config())
        cache.fetch(100, system_mode=True)
        assert not cache.fetch(100, system_mode=False).hit


class TestReplacement:
    def _fill_set_zero(self, cache):
        stride = cache.config.sets * cache.config.block_words
        for k in range(cache.config.ways):
            cache.fetch(k * stride)
        return stride

    def test_lru_evicts_least_recently_used(self):
        cache = Icache(paper_config(replacement="lru"))
        stride = self._fill_set_zero(cache)
        cache.fetch(0)                      # make way for block 0 most recent
        cache.fetch(cache.config.ways * stride)  # evicts block 1*stride
        assert cache.fetch(0).hit
        assert not cache.fetch(stride).hit

    def test_fifo_ignores_recency(self):
        cache = Icache(paper_config(replacement="fifo"))
        stride = self._fill_set_zero(cache)
        cache.fetch(0)                      # touch; FIFO does not care
        cache.fetch(cache.config.ways * stride)  # evicts block 0 (oldest)
        assert not cache.fetch(0).hit

    def test_random_is_deterministic_across_runs(self):
        addresses = [(k * 7919) % 4096 for k in range(2000)]
        a = simulate(paper_config(replacement="random"), addresses)
        b = simulate(paper_config(replacement="random"), addresses)
        assert a.misses == b.misses


class _MemoFree(Icache):
    """The reference for the same-block memo: the same cache with the
    memo forgotten before every probe, so each fetch takes the full tag
    lookup and LRU touch."""

    def fetch(self, address, system_mode=True):
        self._memo_key = -1
        return super().fetch(address, system_mode)


def _cache_state(cache):
    return (cache.stats, cache._order, cache._rand_state,
            [[(way.tag, list(way.valid)) for way in cache_set]
             for cache_set in cache._sets])


class TestSameBlockMemo:
    """A seeded random interleaving of every writer of Icache state,
    run on a memo cache and on the memo-free reference, must leave both
    in the same state after every step."""

    STEPS = 4000

    def _interleave(self, config, seed):
        rng = random.Random(seed)
        cache, reference = Icache(config), _MemoFree(config)
        span = 2 * config.sets * config.ways * config.block_words
        loops = [rng.randrange(span) for _ in range(4)]
        pc, mode, saved = 0, True, None
        memo_served = 0
        for step in range(self.STEPS):
            roll = rng.random()
            if roll < 0.96:
                # mostly sequential fetch round a few loops, with jumps
                # anywhere and mode switches
                if rng.random() < 0.08:
                    pc = rng.choice(loops)
                elif rng.random() < 0.005:
                    pc = rng.randrange(span)
                if rng.random() < 0.005:
                    mode = not mode
                if config.block_words & (config.block_words - 1) == 0:
                    block = pc >> (config.block_words.bit_length() - 1)
                    memo_served += (
                        ((block << 1) | mode) == cache._memo_key
                        and cache._memo_valid[pc % config.block_words])
                assert (cache.fetch(pc, mode).hit
                        == reference.fetch(pc, mode).hit), step
                pc = (pc + 1) % span
            elif roll < 0.97:
                fault_seed, flips = rng.random(), rng.randrange(1, 4)
                assert (cache.inject_valid_flips(random.Random(fault_seed),
                                                 flips)
                        == reference.inject_valid_flips(
                            random.Random(fault_seed), flips))
            elif roll < 0.98:
                fault_seed = rng.random()
                assert (cache.inject_tag_corruption(random.Random(fault_seed))
                        == reference.inject_tag_corruption(
                            random.Random(fault_seed)))
            elif roll < 0.99:
                ways = [(rng.randrange(config.sets),
                         rng.randrange(config.ways))
                        for _ in range(rng.randrange(1, 4))]
                cache.bulk_touch(ways, len(ways))
                reference.bulk_touch(ways, len(ways))
            elif roll < 0.995:
                cache.flush()
                reference.flush()
            elif saved is None or rng.random() < 0.5:
                saved = _icache_state(cache)
            else:
                _restore_icache(cache, saved)
                _restore_icache(reference, saved)
            assert _cache_state(cache) == _cache_state(reference), step
        return cache, memo_served

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_memo_matches_memo_free_reference(self, replacement, seed):
        config = IcacheConfig(sets=2, ways=4, block_words=8,
                              replacement=replacement)
        cache, memo_served = self._interleave(config, seed)
        # the memo served a real share of the probes, so the comparison
        # covered the fast path, not only the full probe
        assert memo_served > self.STEPS // 5
        assert cache.stats.misses > 100

    def test_non_power_of_two_geometry_takes_the_full_probe(self):
        config = IcacheConfig(sets=3, ways=4, block_words=6)
        cache, _ = self._interleave(config, 3)
        assert cache._memo_key == -1 and cache.stats.misses > 100


class TestTraceSimulation:
    def test_sequential_code_misses_once_per_fetchback(self):
        stats = simulate(paper_config(), range(256))
        assert stats.misses == 128  # every other word missed (fetchback 2)
        assert stats.miss_rate == pytest.approx(0.5)

    def test_small_loop_runs_entirely_from_cache(self):
        trace = list(range(20)) * 50
        stats = simulate(paper_config(), trace)
        assert stats.misses == 10  # only the cold fills
        assert stats.miss_rate < 0.02

    def test_loop_larger_than_cache_thrashes(self):
        trace = list(range(2048)) * 4
        stats = simulate(paper_config(), trace)
        assert stats.miss_rate > 0.4

    def test_double_fetchback_halves_sequential_misses(self):
        trace = list(range(400))
        single = simulate(paper_config(fetchback=1), trace)
        double = simulate(paper_config(fetchback=2), trace)
        assert double.misses == single.misses / 2

    def test_average_fetch_cost_formula(self):
        stats = simulate(paper_config(), range(256))
        assert stats.average_fetch_cost(2) == pytest.approx(1 + 0.5 * 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=400))
    def test_structural_invariants_hold(self, addresses):
        cache = Icache(paper_config())
        cache.simulate_trace(addresses)
        assert all(contents_invariants(cache).values())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 8191), min_size=1, max_size=300))
    def test_repeat_fetch_always_hits(self, addresses):
        """Immediately refetching the same address must hit (inclusion of
        the just-filled word)."""
        cache = Icache(paper_config())
        for address in addresses:
            cache.fetch(address)
            assert cache.fetch(address).hit

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=300),
           st.sampled_from(["lru", "fifo", "random"]))
    def test_miss_count_bounded_by_accesses(self, addresses, policy):
        stats = simulate(paper_config(replacement=policy), addresses)
        assert 0 <= stats.misses <= stats.accesses
        assert stats.words_filled >= stats.misses


class TestLivePipelineTiming:
    def _machine(self, source, **icache_overrides):
        config = MachineConfig()
        config.icache = IcacheConfig(**icache_overrides)
        config.ecache.enabled = False  # isolate Icache timing
        machine = Machine(config)
        machine.load_program(assemble(source))
        machine.run()
        assert machine.halted
        return machine

    def test_each_miss_stalls_two_cycles(self):
        source = "nop\n" * 20 + "halt"
        machine = self._machine(source)
        stats = machine.stats
        assert stats.icache_stall_cycles == machine.icache.stats.misses * 2
        # 21 program words plus the two fetches that trail the halt before
        # it resolves -> 23 sequential fetches -> 12 double-fetch misses
        assert machine.icache.stats.misses == 12

    def test_warm_loop_has_no_stalls_after_first_pass(self):
        source = """
        _start:
            li t0, 50
        loop:
            addi t0, t0, -1
            bgt t0, r0, loop
            nop
            nop
            halt
        """
        machine = self._machine(source)
        # cold misses only: the loop body is 4 words + prologue/halt
        assert machine.icache.stats.misses <= 6

    def test_disabled_cache_pays_per_fetch(self):
        source = "nop\nnop\nnop\nhalt"
        machine = self._machine(source, enabled=False, miss_cycles=2)
        stats = machine.stats
        assert stats.icache_stall_cycles == 2 * stats.fetched

    def test_cache_miss_fsm_sequences_recorded(self):
        machine = self._machine("nop\nnop\nnop\nhalt")
        fsm = machine.pipeline.miss_fsm
        assert fsm.miss_sequences == machine.icache.stats.misses
        assert fsm.stall_cycles == machine.stats.icache_stall_cycles

"""Tests for the external cache, main memory, MMIO devices, and the
late-miss stall behaviour seen from the pipeline."""

import random

import pytest

from repro.asm import assemble
from repro.core import EcacheConfig, Machine, MachineConfig
from repro.ecache import Ecache, Memory, MemoryFault, MemorySystem


class TestMemory:
    def test_default_zero(self):
        assert Memory(1024).read(5) == 0

    def test_write_read(self):
        memory = Memory(1024)
        memory.write(10, 0xABCD)
        assert memory.read(10) == 0xABCD

    def test_values_wrap_to_32_bits(self):
        memory = Memory(1024)
        memory.write(0, 1 << 40)
        assert memory.read(0) == 0

    def test_out_of_range_faults(self):
        memory = Memory(16)
        with pytest.raises(MemoryFault):
            memory.read(16)
        with pytest.raises(MemoryFault):
            memory.write(-1, 0)


class TestMemorySystem:
    def _system(self):
        return MemorySystem(size_words=1 << 20, mmio_base=0x3FF00)

    def test_console_word_port(self):
        memsys = self._system()
        memsys.write(0x3FF00 + MemorySystem.CONSOLE_OFFSET, 42, True)
        assert memsys.console.values == [42]

    def test_console_char_port(self):
        memsys = self._system()
        base = 0x3FF00 + MemorySystem.CONSOLE_OFFSET + 1
        for ch in "hi":
            memsys.write(base, ord(ch), True)
        assert memsys.console.text == "hi"

    def test_icu_read_clears(self):
        memsys = self._system()
        memsys.icu.post(0x5)
        address = 0x3FF00 + MemorySystem.ICU_OFFSET
        assert memsys.read(address, True) == 0x5
        assert memsys.read(address, True) == 0

    def test_icu_peek_does_not_clear(self):
        memsys = self._system()
        memsys.icu.post(0x5)
        address = 0x3FF00 + MemorySystem.ICU_OFFSET + 1
        assert memsys.read(address, True) == 0x5
        assert memsys.read(address, True) == 0x5

    def test_unknown_mmio_address_faults(self):
        memsys = self._system()
        with pytest.raises(MemoryFault):
            memsys.read(0x3FF00 + 0x55, True)

    def test_write_listeners(self):
        memsys = self._system()
        seen = []
        memsys.write_listeners.append(
            lambda addr, mode: seen.append((addr, mode)))
        memsys.write(123, 7, True)
        assert seen == [(123, True)]


class TestEcacheTiming:
    def _cache(self, **overrides):
        return Ecache(EcacheConfig(**overrides))

    def test_read_miss_then_hit(self):
        cache = self._cache(miss_penalty=8)
        assert cache.read(100, True) == 8
        assert cache.read(100, True) == 0

    def test_line_granularity(self):
        cache = self._cache(line_words=4)
        cache.read(100, True)
        assert cache.read(101, True) == 0  # same 4-word line (100..103)
        assert cache.read(103, True) == 0
        assert cache.read(96, True) == 8   # previous line

    def test_write_through_never_stalls(self):
        cache = self._cache(write_through=True)
        assert cache.write(100, True) == 0
        assert cache.stats.write_misses == 1

    def test_write_back_allocates(self):
        cache = self._cache(write_through=False, miss_penalty=8)
        assert cache.write(100, True) == 8
        assert cache.read(100, True) == 0

    def test_direct_mapped_conflict(self):
        cache = self._cache(size_words=1024, line_words=4, miss_penalty=8)
        assert cache.read(0, True) == 8
        assert cache.read(1024, True) == 8  # conflicts with line 0
        assert cache.read(0, True) == 8

    def test_mode_bit_in_tag(self):
        cache = self._cache(miss_penalty=8)
        cache.read(100, True)
        assert cache.read(100, False) == 8

    def test_disabled_cache_is_free(self):
        cache = self._cache(enabled=False)
        assert cache.read(100, True) == 0
        assert cache.stats.accesses == 0

    def test_flush(self):
        cache = self._cache(miss_penalty=8)
        cache.read(100, True)
        cache.flush()
        assert cache.read(100, True) == 8

    def test_miss_rate_accounting(self):
        cache = self._cache(miss_penalty=8, line_words=1, size_words=16)
        for address in range(32):
            cache.read(address, True)
        assert cache.stats.miss_rate == 1.0


#: geometries for the translated probe: power-of-two and odd line sizes
#: and line counts, under both write policies
PROBE_GEOMETRIES = {
    "4x16": EcacheConfig(size_words=64, line_words=4),
    "1x64-write-back": EcacheConfig(size_words=64, line_words=1,
                                    write_through=False),
    "4x24-write-back": EcacheConfig(size_words=96, line_words=4,
                                    write_through=False, miss_penalty=3),
    "7x9": EcacheConfig(size_words=63, line_words=7, miss_penalty=5),
    "7x9-write-back": EcacheConfig(size_words=63, line_words=7,
                                   write_through=False),
    "3x1": EcacheConfig(size_words=3, line_words=3),
}


class TestTranslatedProbe:
    """The statements :meth:`Ecache.probe_code` writes for a translated
    load or store do exactly what ``read`` or ``write`` does."""

    @staticmethod
    def _probe(cache, store, address, mode, literal):
        code = cache.probe_code(store, str(address) if literal else "addr",
                                mode)
        source = "\n    ".join(["def probe(EC, addr):", *cache.PROBE_SETUP,
                                "pen = 0", *code, "return pen"])
        namespace = {}
        exec(source, namespace)
        return namespace["probe"](cache, address)

    @pytest.mark.parametrize("geometry", sorted(PROBE_GEOMETRIES))
    def test_probe_agrees_with_read_and_write(self, geometry):
        config = PROBE_GEOMETRIES[geometry]
        rng = random.Random(geometry)
        reference, probed = Ecache(config), Ecache(config)
        lines = config.size_words // config.line_words
        for _ in range(400):
            store = rng.random() < 0.4
            mode = rng.random() < 0.5
            address = (rng.randrange(3 * config.size_words)
                       if rng.random() < 0.9 else rng.randrange(1 << 32))
            line = address // config.line_words
            assert probed.locate(address, mode) == (
                line % lines, line // lines * 2 + mode)
            access = reference.write if store else reference.read
            wanted = access(address, mode)
            literal = rng.random() < 0.3
            assert self._probe(probed, store, address, mode,
                               literal) == wanted
            assert probed._tags == reference._tags
            assert probed.stats == reference.stats
        assert reference.stats.read_misses and reference.stats.write_misses

    def test_disabled_cache_probes_nothing(self):
        cache = Ecache(EcacheConfig(enabled=False))
        assert cache.probe_code(False, "addr", True) == []
        assert cache.miss_stall == 0


class TestLateMissFromPipeline:
    def _machine(self, source, penalty=8):
        config = MachineConfig()
        config.icache.enabled = False
        config.icache.miss_cycles = 0  # isolate data-side timing
        config.ecache = EcacheConfig(miss_penalty=penalty, line_words=1)
        machine = Machine(config)
        machine.load_program(assemble(source))
        machine.run()
        assert machine.halted
        return machine

    def test_load_miss_stalls_for_penalty(self):
        source = """
        _start:
            la t0, v
            ld t1, 0(t0)
            nop
            halt
        v: .word 5
        """
        machine = self._machine(source, penalty=8)
        assert machine.stats.data_stall_cycles == 8
        assert machine.regs[11] == 5

    def test_second_load_same_line_hits(self):
        source = """
        _start:
            la t0, v
            ld t1, 0(t0)
            ld t2, 0(t0)
            nop
            halt
        v: .word 5
        """
        machine = self._machine(source, penalty=8)
        assert machine.stats.data_stall_cycles == 8

    def test_write_through_store_does_not_stall(self):
        source = """
        _start:
            la t0, v
            li t1, 9
            st t1, 0(t0)
            halt
        v: .space 1
        """
        machine = self._machine(source, penalty=8)
        assert machine.stats.data_stall_cycles == 0

    def test_mmio_bypasses_ecache(self):
        source = """
        _start:
            li t0, 0x3FFFF0
            li t1, 11
            st t1, 0(t0)
            halt
        """
        machine = self._machine(source, penalty=8)
        assert machine.stats.data_stall_cycles == 0
        assert machine.console.values == [11]

    def test_late_miss_freezes_whole_pipe(self):
        """Cycle count = ideal cycles + exactly the stall cycles (both the
        data-side late misses and the instruction fetch-backs, which also
        go through the shared external cache)."""
        source = """
        _start:
            la t0, v
            ld t1, 0(t0)
            nop
            halt
        v: .word 5
        """
        fast = self._machine(source, penalty=0)
        slow = self._machine(source, penalty=10)
        assert slow.stats.data_stall_cycles == 10
        assert slow.stats.cycles == (fast.stats.cycles
                                     + slow.stats.data_stall_cycles
                                     + slow.stats.icache_stall_cycles)

"""Machine configuration for the MIPS-X reproduction.

The defaults reproduce the machine described in the paper:

* 20 MHz two-phase clock (50 ns cycle);
* 512-word on-chip instruction cache, 8-way set-associative with 4 sets and
  16-word blocks, per-word sub-block valid bits, 2-word fetch-back, and a
  2-cycle miss service time;
* 64K-word external cache with the *late miss* protocol (a miss re-executes
  the second phase of MEM until the data arrives);
* two branch delay slots with optional squashing;
* software-managed interlocks (one load delay slot, delay slots after every
  control transfer).

Everything the tradeoff studies sweep is a field here, so a different design
point is just a different ``MachineConfig``.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class IcacheConfig:
    """On-chip instruction cache organization.

    ``miss_cycles`` is the paper's miss *service* time: the number of stall
    cycles to fetch the missed word (and, with ``fetchback >= 2``, its
    sequential successors) from the external cache.  The paper's key
    implementation result is that placing the tags in the datapath made this
    2 cycles instead of 3.
    """

    enabled: bool = True
    sets: int = 4
    ways: int = 8
    block_words: int = 16
    fetchback: int = 2          #: words fetched back per miss (paper: 2)
    miss_cycles: int = 2        #: stall cycles per miss (paper: 2)
    replacement: str = "lru"    #: "lru", "fifo", or "random"

    @property
    def total_words(self) -> int:
        return self.sets * self.ways * self.block_words

    @property
    def tags(self) -> int:
        """Number of tag entries (the paper's 32 tags in the datapath)."""
        return self.sets * self.ways

    @property
    def valid_bits(self) -> int:
        """One valid bit per word under sub-block placement (paper: 512)."""
        return self.total_words


@dataclasses.dataclass
class EcacheConfig:
    """External cache + main memory timing.

    An Ecache hit completes within the MEM pipestage (no stall) thanks to
    the late-miss protocol; a miss stalls the pipe for ``miss_penalty``
    cycles while the processor loops on phase 2 of MEM.
    """

    enabled: bool = True
    size_words: int = 65536
    line_words: int = 4
    miss_penalty: int = 8       #: main-memory access time in cycles
    write_through: bool = True


@dataclasses.dataclass
class MachineConfig:
    """Complete machine description."""

    clock_mhz: float = 20.0
    branch_delay_slots: int = 2
    icache: IcacheConfig = dataclasses.field(default_factory=IcacheConfig)
    ecache: EcacheConfig = dataclasses.field(default_factory=EcacheConfig)
    #: Raise :class:`~repro.core.pipeline.HazardViolation` when software
    #: violates a delay-slot constraint instead of silently computing with
    #: stale values.  On: catches reorganizer bugs.  Off: models hardware.
    hazard_check: bool = True
    #: Memoize instruction decode per (mode, address); invalidated on
    #: stores, so self-modifying code still decodes the written word.
    #: Off: decode every fetched word on every fetch (the reference
    #: behavior the equivalence tests compare against).
    decode_cache: bool = True
    #: Memory words; addresses are word addresses in [0, memory_words).
    memory_words: int = 1 << 22
    #: Word address at and above which accesses are uncached MMIO.
    mmio_base: int = 0x3FFF00
    #: Translate hot loops into specialized closures (the translated fast
    #: path, :mod:`repro.core.translate`).  Cycle-exact and bit-identical
    #: to the interpretive pipeline; off by default so the interpretive
    #: path stays the reference behavior.
    jit: bool = False
    #: Taken-branch count at a loop head before translation is attempted.
    jit_threshold: int = 8
    #: Admission bound on the translation cache, in heads (LRU-evicted
    #: beyond this); each head holds up to ``translate.ENTRY_VARIANTS``
    #: compiled blocks.
    jit_max_blocks: int = 64

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    def mips(self, cpi: float) -> float:
        """Sustained MIPS for a given cycles-per-instruction."""
        return self.clock_mhz / cpi


def perfect_memory_config(**overrides) -> MachineConfig:
    """A config with ideal memory (no Icache or Ecache misses).

    Used to separate pipeline effects (branches, no-ops) from memory-system
    effects, as the paper does when quoting the 15.6%/18.3% no-op fractions
    separately from the 1.7-cycle overall CPI.
    """
    config = MachineConfig(**overrides)
    config.icache = IcacheConfig(enabled=False, miss_cycles=0)
    config.ecache = EcacheConfig(enabled=False, miss_penalty=0)
    return config

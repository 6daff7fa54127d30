"""CPI decomposition, throughput, and bandwidth (E6, E7, E11).

Reproduces the paper's performance accounting:

* no-op fractions: 15.6% for Pascal, 18.3% for Lisp ("no-ops due to unused
  branch delays or other pipeline interlocks that cannot be optimized
  away");
* overall CPI of about 1.7 once Icache and Ecache overheads are included,
  for a sustained throughput above 11 MIPS at the 20 MHz clock;
* memory bandwidth: ~26 MWords/s average (one instruction per cycle plus
  data roughly every third cycle), 40 MWords/s peak.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.config import MachineConfig, perfect_memory_config
from repro.telemetry.metrics import Metrics, collect_machine
from repro.workloads import LISP_SUITE, PASCAL_SUITE

from repro.analysis.common import profiled_result, run_measured


@dataclasses.dataclass
class CpiBreakdown:
    """Per-workload performance decomposition."""

    name: str
    cycles: int
    instructions: int          #: retired, including no-ops
    noops: int
    squashed: int
    icache_stalls: int
    data_stalls: int
    loads: int
    stores: int
    fetched: int
    branches: int
    jumps: int
    icache_miss_rate: float
    static_code_words: int
    clock_mhz: float = 20.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions

    @property
    def noop_fraction(self) -> float:
        return self.noops / self.instructions

    @property
    def wasted_fraction(self) -> float:
        """No-ops plus squashed slots over all issued instructions."""
        issued = self.instructions + self.squashed
        return (self.noops + self.squashed) / issued

    @property
    def memory_overhead_cpi(self) -> float:
        """Cycles per instruction lost to the memory system."""
        return (self.icache_stalls + self.data_stalls) / self.instructions

    @property
    def base_cpi(self) -> float:
        """CPI excluding memory stalls (pipe-only)."""
        return self.cpi - self.memory_overhead_cpi

    @property
    def sustained_mips(self) -> float:
        return self.clock_mhz / self.cpi

    @property
    def average_fetch_cost(self) -> float:
        """Cycles per instruction fetch (paper: 1.24 at a 12% miss rate)."""
        return 1.0 + self.icache_stalls / self.fetched if self.fetched else 0.0

    @property
    def data_reference_density(self) -> float:
        return (self.loads + self.stores) / self.instructions

    @property
    def average_bandwidth_mwords(self) -> float:
        """Average memory traffic in MWords/s (instruction + data)."""
        words = self.fetched + self.loads + self.stores
        return words / self.cycles * self.clock_mhz

    @property
    def peak_bandwidth_mwords(self) -> float:
        """One instruction and one data word per cycle."""
        return 2 * self.clock_mhz

    @classmethod
    def from_metrics(cls, name: str, snapshot: Mapping[str, object],
                     static_code_words: int,
                     clock_mhz: float = 20.0) -> "CpiBreakdown":
        """Build a breakdown from a telemetry snapshot.

        ``snapshot`` is the flat ``{metric name: value}`` mapping of
        :meth:`repro.telemetry.Metrics.snapshot` -- the audited catalog
        names, not raw stat attributes.  This makes the analysis module
        and the bench campaign's metrics gate read the *same* numbers by
        construction.
        """
        def value(metric: str) -> int:
            return int(snapshot.get(metric, 0))

        return cls(
            name=name,
            cycles=value("pipeline.cycles"),
            instructions=value("pipeline.instructions.retired"),
            noops=value("pipeline.instructions.noops"),
            squashed=value("pipeline.instructions.squashed"),
            icache_stalls=value("pipeline.stall.icache_miss"),
            data_stalls=value("pipeline.stall.ecache_late_miss"),
            loads=value("pipeline.mem.loads"),
            stores=value("pipeline.mem.stores"),
            fetched=value("pipeline.instructions.fetched"),
            branches=value("pipeline.branch.executed"),
            jumps=value("pipeline.jumps"),
            icache_miss_rate=float(snapshot.get("icache.miss_rate", 0.0)),
            static_code_words=static_code_words,
            clock_mhz=clock_mhz,
        )


def measure_with_metrics(
        name: str, config: Optional[MachineConfig] = None,
) -> Tuple[CpiBreakdown, Metrics]:
    """Run the profiled build of a workload; decompose via telemetry.

    Returns the :class:`CpiBreakdown` *and* the telemetry registry it
    was built from, so callers (the harness, the metrics gate) can keep
    the raw counters alongside the derived view.
    """
    config = config or MachineConfig()
    machine = run_measured(name, config)
    metrics = collect_machine(machine)
    program = profiled_result(name).unit.assemble()
    breakdown = CpiBreakdown.from_metrics(
        name, metrics.snapshot(), static_code_words=program.code_size,
        clock_mhz=config.clock_mhz)
    return breakdown, metrics


def measure(name: str, config: Optional[MachineConfig] = None) -> CpiBreakdown:
    """Run the profiled build of a workload and decompose its cycles."""
    return measure_with_metrics(name, config)[0]


@dataclasses.dataclass
class SuiteSummary:
    breakdowns: List[CpiBreakdown]

    def _ratio(self, numerator, denominator) -> float:
        total_n = sum(numerator(b) for b in self.breakdowns)
        total_d = sum(denominator(b) for b in self.breakdowns)
        return total_n / total_d if total_d else 0.0

    @property
    def cpi(self) -> float:
        return self._ratio(lambda b: b.cycles, lambda b: b.instructions)

    @property
    def noop_fraction(self) -> float:
        """Instruction-weighted suite no-op fraction."""
        return self._ratio(lambda b: b.noops, lambda b: b.instructions)

    @property
    def mean_noop_fraction(self) -> float:
        """Unweighted mean over workloads (each benchmark counts once --
        the conventional way suite numbers like the paper's 15.6% are
        quoted)."""
        if not self.breakdowns:
            return 0.0
        return sum(b.noop_fraction for b in self.breakdowns) / len(
            self.breakdowns)

    @property
    def sustained_mips(self) -> float:
        clock = self.breakdowns[0].clock_mhz if self.breakdowns else 20.0
        return clock / self.cpi

    @property
    def average_bandwidth_mwords(self) -> float:
        clock = self.breakdowns[0].clock_mhz if self.breakdowns else 20.0
        return self._ratio(
            lambda b: b.fetched + b.loads + b.stores,
            lambda b: b.cycles) * clock

    @property
    def data_reference_density(self) -> float:
        return self._ratio(lambda b: b.loads + b.stores,
                           lambda b: b.instructions)

    @property
    def icache_miss_rate(self) -> float:
        return self._ratio(
            lambda b: b.icache_miss_rate * b.fetched,
            lambda b: b.fetched)


def suite(names: Optional[Sequence[str]] = None,
          config: Optional[MachineConfig] = None) -> SuiteSummary:
    names = list(names) if names is not None else list(PASCAL_SUITE)
    return SuiteSummary([measure(name, config) for name in names])


def scaled_memory_config(icache_words: int = 48,
                         ecache_words: int = 128) -> MachineConfig:
    """Machine config with the memory hierarchy scaled to the workloads.

    The paper's benchmarks were 50-270 KB against a 2 KB Icache (a 25x to
    135x footprint ratio); our compiled workloads are a few hundred words.
    To study the same *regime* (miss rates around the paper's 12%), the
    caches are scaled down so the footprint-to-cache ratios are
    comparable.  Organization ratios are preserved: sub-block placement,
    2-word fetch-back, 2-cycle miss service.  The defaults land the suite
    at ~12.5% Icache miss and ~1.66 CPI -- the paper's operating point.
    """
    config = MachineConfig()
    block = max(icache_words // 32, 2)
    config.icache.sets = 4
    config.icache.ways = max(icache_words // (4 * block), 1)
    config.icache.block_words = block
    config.ecache.size_words = ecache_words
    return config


def noop_fractions() -> tuple:
    """(Pascal, Lisp) suite no-op fractions on perfect memory -- the
    experiment behind the paper's 15.6% / 18.3%."""
    config = perfect_memory_config()
    pascal = suite(PASCAL_SUITE, config)
    lisp = suite(LISP_SUITE, config)
    return pascal.noop_fraction, lisp.noop_fraction

"""Transistor/area budget model (Figure 2 / E10).

The paper's physical facts: an 8.5 mm x 8 mm die in 2 um CMOS, about 150K
transistors with "two thirds of which are in the instruction cache", the
datapath plus control taking about half the area inside the padframe, and
the two control FSMs occupying "less than 0.2% of the total area of the
chip".

The model below allocates transistors per component with per-bit costs
calibrated so the default configuration reproduces those facts, then
supports the Icache area/performance ablation: how the fetch cost and the
transistor budget trade as the cache grows -- the tradeoff that fixed the
cache size at 512 words ("we first fixed a die size ... the cache was
allocated the remaining area").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.core.config import IcacheConfig, MachineConfig
from repro.icache.cache import Icache

#: effective transistors per SRAM bit (cell + decode + sense amortized)
TRANSISTORS_PER_CACHE_BIT = 5.2
#: register-file bit (dual-ported cell + bypass taps)
TRANSISTORS_PER_REGFILE_BIT = 12.0
#: random logic per "gate equivalent"
TRANSISTORS_PER_GATE = 4.0

DIE_AREA_MM2 = 8.5 * 8.0
PAPER_TOTAL_TRANSISTORS = 150_000


@dataclasses.dataclass
class AreaBudget:
    components: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.components.values())

    def fraction(self, name: str) -> float:
        return self.components[name] / self.total


def transistor_budget(config: Optional[MachineConfig] = None) -> AreaBudget:
    """Component-wise transistor estimate for a machine configuration."""
    config = config or MachineConfig()
    icache = config.icache
    data_bits = icache.total_words * 32
    tag_bits = icache.tags * 22          # tag + comparator slice
    valid_bits = icache.valid_bits * 1.5  # valid bit + reset chain
    components = {
        "icache data array": int(data_bits * TRANSISTORS_PER_CACHE_BIT),
        "icache tags+valid (in datapath)": int(
            (tag_bits + valid_bits) * TRANSISTORS_PER_REGFILE_BIT),
        "register file": int(32 * 32 * TRANSISTORS_PER_REGFILE_BIT),
        "alu + funnel shifter": int(3400 * TRANSISTORS_PER_GATE),
        "pc unit (adders + chain)": int(1800 * TRANSISTORS_PER_GATE),
        "instruction register + decode": int(1500 * TRANSISTORS_PER_GATE),
        "bypass + md + psw": int(1200 * TRANSISTORS_PER_GATE),
        "local control + pads": int(2500 * TRANSISTORS_PER_GATE),
        "squash fsm": int(30 * TRANSISTORS_PER_GATE),
        "cache-miss fsm": int(38 * TRANSISTORS_PER_GATE),
    }
    return AreaBudget(components)


def fsm_area_fraction(budget: Optional[AreaBudget] = None) -> float:
    """Fraction of the chip in the two FSMs (paper: < 0.2% of area)."""
    budget = budget or transistor_budget()
    fsm = budget.components["squash fsm"] + budget.components["cache-miss fsm"]
    return fsm / budget.total


def icache_fraction(budget: Optional[AreaBudget] = None) -> float:
    """Fraction of transistors in the instruction cache (paper: ~2/3)."""
    budget = budget or transistor_budget()
    cache = (budget.components["icache data array"]
             + budget.components["icache tags+valid (in datapath)"])
    return cache / budget.total


@dataclasses.dataclass
class AreaTradeoffPoint:
    words: int
    transistors: int
    miss_ratio: float
    fetch_cost: float
    fits_paper_die: bool


def icache_size_tradeoff(trace: Sequence[int],
                         sizes: Sequence[int] = (128, 256, 512, 1024, 2048),
                         miss_cycles: int = 2) -> List[AreaTradeoffPoint]:
    """Sweep total Icache words: fetch cost vs transistor budget.

    A configuration "fits the paper die" if its total budget stays within
    the 150K transistors of the real chip (the die-size constraint that
    fixed the cache at 512 words).
    """
    points = []
    for words in sizes:
        block = 16 if words >= 256 else max(words // 16, 2)
        ways = 8
        sets = max(words // (ways * block), 1)
        icache_config = IcacheConfig(sets=sets, ways=ways, block_words=block,
                                     miss_cycles=miss_cycles)
        machine_config = MachineConfig()
        machine_config.icache = icache_config
        budget = transistor_budget(machine_config)
        cache = Icache(icache_config)
        cache.simulate_trace(trace)
        points.append(AreaTradeoffPoint(
            words=icache_config.total_words,
            transistors=budget.total,
            miss_ratio=cache.stats.miss_rate,
            fetch_cost=cache.stats.average_fetch_cost(miss_cycles),
            fits_paper_die=budget.total <= int(PAPER_TOTAL_TRANSISTORS * 1.05),
        ))
    return points

"""The metric name catalog: every telemetry name the machine reports.

One :class:`MetricSpec` per counter/gauge/histogram, carrying the unit,
a one-line description, and the paper table or claim the metric feeds
(experiment ids match EXPERIMENTS.md / DESIGN.md).  The catalog is the
contract between the machine components and every consumer:

* :func:`repro.telemetry.metrics.collect_machine` emits **only**
  catalogued names (pinned by ``tests/test_telemetry.py``);
* ``docs/OBSERVABILITY.md`` documents **every** catalogued name (pinned
  by ``tests/test_docs.py``);
* the bench campaign's gate (:func:`repro.harness.bench.gate`)
  validates counter consistency using the catalogued names.

Names are hierarchical, dot-separated, ``component.noun[.qualifier]``:
``pipeline.stall.icache_miss``, ``ecache.late_miss.retries``.  A name
never changes meaning; retire a name rather than repurposing it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

#: metric kinds a :class:`MetricSpec` may declare
KINDS = ("counter", "gauge", "histogram")


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: name, kind, unit, and provenance."""

    name: str          #: hierarchical dotted name (the registry key)
    kind: str          #: "counter" | "gauge" | "histogram"
    unit: str          #: "cycles", "instructions", "events", "ratio", ...
    description: str   #: one line; shown in docs/OBSERVABILITY.md
    paper: str         #: experiment id / claim this metric feeds

    def __post_init__(self) -> None:
        """Validate the kind and name shape at construction time."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not all(part.isidentifier() for part in self.name.split(".")):
            raise ValueError(f"malformed metric name {self.name!r}")


#: every metric the machine components report, in catalog order
CATALOG: Tuple[MetricSpec, ...] = (
    # ------------------------------------------------------------ pipeline
    MetricSpec("pipeline.cycles", "counter", "cycles",
               "Total clock cycles, including stall cycles.",
               "E7 (CPI ~1.7)"),
    MetricSpec("pipeline.instructions.fetched", "counter", "instructions",
               "Instruction words fetched into IF (includes later-squashed "
               "slots).", "E11 (bandwidth)"),
    MetricSpec("pipeline.instructions.retired", "counter", "instructions",
               "Instructions completing WB, no-ops included -- the paper's "
               "executed-instruction count and the CPI denominator.",
               "E6/E7"),
    MetricSpec("pipeline.instructions.squashed", "counter", "instructions",
               "In-flight instructions converted to no-ops by a squashing "
               "branch or an exception.", "E1 (Table 1)"),
    MetricSpec("pipeline.instructions.noops", "counter", "instructions",
               "Retired architectural no-ops (unfilled delay slots and "
               "interlock padding).", "E6 (15.6%/18.3%)"),
    MetricSpec("pipeline.branch.executed", "counter", "events",
               "Conditional branches reaching their resolution stage "
               "un-squashed.", "E1/E8"),
    MetricSpec("pipeline.branch.taken", "counter", "events",
               "Conditional branches that redirected the PC.", "E8"),
    MetricSpec("pipeline.branch.squashes", "counter", "events",
               "Squashing branches that went the wrong way and annulled "
               "their delay slots.", "E1 (Table 1)"),
    MetricSpec("pipeline.jumps", "counter", "events",
               "Unconditional control transfers (jspci, jpc, jpcrs).",
               "E8"),
    MetricSpec("pipeline.mem.loads", "counter", "events",
               "Data loads completing MEM (ld, ldf, movfrc).",
               "E11 (~1/3 data refs)"),
    MetricSpec("pipeline.mem.stores", "counter", "events",
               "Data stores completing MEM (st, stf, movtoc).",
               "E11 (~1/3 data refs)"),
    MetricSpec("pipeline.coproc.ops", "counter", "events",
               "Coprocessor operations issued over the address-line "
               "interface.", "E12"),
    MetricSpec("pipeline.exceptions.taken", "counter", "events",
               "Synchronous exceptions taken (overflow, trap, privilege, "
               "page fault).", "E14"),
    MetricSpec("pipeline.interrupts.taken", "counter", "events",
               "Asynchronous interrupts/NMIs delivered through the "
               "exception machinery.", "E14"),
    MetricSpec("pipeline.page_faults", "counter", "events",
               "Data page faults fielded by the demand pager.",
               "E18 (restartability)"),
    MetricSpec("pipeline.stall.icache_miss", "counter", "cycles",
               "Cycles the qualified w1 clock was withheld for Icache miss "
               "service (the miss FSM of Figure 4).", "E4/E5"),
    MetricSpec("pipeline.stall.ecache_late_miss", "counter", "cycles",
               "Cycles stalled re-executing phase 2 of MEM under the "
               "Ecache late-miss protocol.", "E15"),
    # -------------------------------------------------------------- icache
    MetricSpec("icache.accesses", "counter", "events",
               "Instruction fetch probes of the on-chip cache.", "E4"),
    MetricSpec("icache.misses", "counter", "events",
               "Probes that missed (tag or sub-block valid bit).", "E4"),
    MetricSpec("icache.words_filled", "counter", "events",
               "Words written into the cache by miss fills, fetch-back "
               "included.", "E4 (2-word fetch-back)"),
    MetricSpec("icache.tag_allocations", "counter", "events",
               "Misses that displaced a tag (replacement events).",
               "E16 (replacement ablation)"),
    # -------------------------------------------------------------- ecache
    MetricSpec("ecache.reads", "counter", "events",
               "Data-read probes of the external cache.", "E15"),
    MetricSpec("ecache.read_misses", "counter", "events",
               "Data reads that went to main memory.", "E15"),
    MetricSpec("ecache.writes", "counter", "events",
               "Data-write probes (write-through never stalls).", "E15"),
    MetricSpec("ecache.write_misses", "counter", "events",
               "Data writes that missed the external cache.", "E15"),
    MetricSpec("ecache.ifetches", "counter", "events",
               "Icache fill words requested from the external cache.",
               "E15 (ifetch side)"),
    MetricSpec("ecache.ifetch_misses", "counter", "events",
               "Fill words that had to come from main memory.", "E15"),
    MetricSpec("ecache.late_miss.retries", "counter", "events",
               "Late-miss protocol invocations: read + ifetch misses, each "
               "of which re-executes phase 2 of MEM until data arrives.",
               "E15 (late miss)"),
    MetricSpec("ecache.fault.forced_misses", "counter", "events",
               "Injected late-miss retry storms consumed (repro.faults).",
               "robustness (DESIGN.md fault model)"),
    # -------------------------------------------------------------- coproc
    MetricSpec("coproc.operations", "counter", "events",
               "cop instructions dispatched to an attached coprocessor.",
               "E12"),
    MetricSpec("coproc.data_transfers", "counter", "events",
               "movtoc/movfrc data-bus transfers.", "E12"),
    MetricSpec("coproc.fault.busy_events", "counter", "events",
               "Injected coprocessor-busy stalls consumed (repro.faults).",
               "robustness (DESIGN.md fault model)"),
    # ------------------------------------------- translated fast path (jit)
    MetricSpec("core.translate.blocks.compiled", "counter", "events",
               "Hot blocks admitted by the block translator (scanned, "
               "proven, entry contract fixed); each one's closure is "
               "generated on its first entry.",
               "perf (translated fast path)"),
    MetricSpec("core.translate.blocks.rejected", "counter", "events",
               "Hot heads the block compiler refused (constructs outside "
               "the exact-translation subset).",
               "perf (translated fast path)"),
    MetricSpec("core.translate.blocks.invalidated", "counter", "events",
               "Blocks killed by stores into their instruction words "
               "(self-modifying code).", "perf (translated fast path)"),
    MetricSpec("core.translate.blocks.evicted", "counter", "events",
               "Blocks evicted LRU by the translation-cache admission "
               "bound.", "perf (translated fast path)"),
    MetricSpec("core.translate.entries.taken", "counter", "events",
               "Closure activations: every entry guard held and the block "
               "ran at least one cycle.", "perf (translated fast path)"),
    MetricSpec("core.translate.entries.rejected", "counter", "events",
               "Dispatch hits on a compiled block that failed an entry "
               "guard and fell back to the interpreter.",
               "perf (translated fast path)"),
    MetricSpec("core.translate.cycles", "counter", "cycles",
               "Machine cycles executed inside translated closures "
               "(coverage numerator over pipeline.cycles).",
               "perf (translated fast path)"),
    MetricSpec("core.translate.instructions", "counter", "instructions",
               "Instructions retired by translated closures.",
               "perf (translated fast path)"),
    MetricSpec("core.translate.bails", "counter", "events",
               "Mid-block fallbacks to the interpreter (MMIO touch, dirty "
               "store, cold fall-through segment).",
               "perf (translated fast path)"),
    MetricSpec("core.translate.side_exits", "counter", "events",
               "Exact mid-block exits via a taken side branch.",
               "perf (translated fast path)"),
    # -------------------------------------------------------- MMIO devices
    MetricSpec("device.uart.tx_chars", "counter", "events",
               "Characters transmitted through the UART TX port (the "
               "kernel-lite boot log).", "E14 (software stack)"),
    MetricSpec("device.uart.rx_delivered", "counter", "events",
               "Scheduled RX characters arrived into the UART FIFO.",
               "E14 (software stack)"),
    MetricSpec("device.uart.irqs", "counter", "events",
               "Receive interrupts the UART raised through the ICU.",
               "E14 (software stack)"),
    MetricSpec("device.timer.fires", "counter", "events",
               "Timer expirations (each raises the timer IRQ line) -- "
               "the kernel-lite's preemption clock.",
               "E14 (software stack)"),
    MetricSpec("device.disk.reads", "counter", "events",
               "Block-device sector reads DMA-completed into memory.",
               "E14 (software stack)"),
    MetricSpec("device.disk.writes", "counter", "events",
               "Block-device sector writes DMA-completed from memory.",
               "E14 (software stack)"),
    # ------------------------------------------------------ derived gauges
    MetricSpec("pipeline.cpi", "gauge", "ratio",
               "Cycles per retired instruction "
               "(pipeline.cycles / pipeline.instructions.retired).",
               "E7 (CPI ~1.7)"),
    MetricSpec("pipeline.noop_fraction", "gauge", "ratio",
               "Retired no-ops over retired instructions.",
               "E6 (15.6%/18.3%)"),
    MetricSpec("icache.miss_rate", "gauge", "ratio",
               "icache.misses / icache.accesses.", "E4 (12%)"),
    MetricSpec("ecache.miss_rate", "gauge", "ratio",
               "External-cache misses over accesses, all reference kinds.",
               "E15"),
    # ---------------------------------------------------- tracer histograms
    MetricSpec("pipeline.stall.icache_miss.length", "histogram", "cycles",
               "Distribution of individual Icache miss-service stall "
               "lengths observed by the cycle tracer.", "E5 (service time)"),
    MetricSpec("pipeline.stall.ecache_late_miss.length", "histogram",
               "cycles",
               "Distribution of individual late-miss stall lengths observed "
               "by the cycle tracer.", "E15"),
    MetricSpec("pipeline.instruction.lifetime", "histogram", "cycles",
               "Cycles from IF entry to WB completion per retired "
               "instruction (5 on an unstalled pipe).", "Figure 1"),
    # ------------------------------------------------- multiprocessor (bus)
    MetricSpec("multi.cycles", "counter", "cycles",
               "Global clock cycles of the shared-bus multiprocessor (one "
               "tick steps every live node once).",
               "E13 (multiprocessor endgame)"),
    MetricSpec("multi.bus.acquisitions", "counter", "events",
               "Times a stalled node won ownership of the shared "
               "memory bus.", "E13 (bus bandwidth)"),
    MetricSpec("multi.bus.contention_cycles", "counter", "cycles",
               "Cycles nodes spent frozen waiting for a bus another node "
               "owned.", "E13 (bus bandwidth)"),
    MetricSpec("multi.bus.invalidations", "counter", "events",
               "Ecache lines invalidated by the write-through broadcast "
               "(Smith's transmit-all-stores policy).",
               "E13 (cache consistency)"),
    MetricSpec("multi.nodes", "gauge", "count",
               "Number of processor nodes sharing the bus (the paper "
               "targets 6-10).", "E13 (multiprocessor endgame)"),
    MetricSpec("multi.bus.wait.length", "histogram", "cycles",
               "Distribution of individual bus-wait episode lengths "
               "observed by the per-node cycle tracers.",
               "E13 (bus bandwidth)"),
    # ------------------------------------------------- checkpoint/restore
    MetricSpec("checkpoint.bytes_written", "counter", "bytes",
               "Total snapshot bytes written to the store (perfbench's "
               "os-boot workload counts its own saves).",
               "robustness (checkpoint/restore)"),
    MetricSpec("checkpoint.drain_cycles", "counter", "cycles",
               "Extra cycles spent draining the pipeline to a quiescent "
               "boundary before each snapshot.",
               "robustness (checkpoint/restore)"),
)

#: name -> spec, for validation and documentation lookups
CATALOG_BY_NAME: Dict[str, MetricSpec] = {spec.name: spec
                                          for spec in CATALOG}


def spec_for(name: str) -> MetricSpec:
    """Look up the catalog entry for ``name`` (KeyError if unknown)."""
    return CATALOG_BY_NAME[name]

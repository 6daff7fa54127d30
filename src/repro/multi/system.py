"""Shared-memory multiprocessor built from MIPS-X nodes.

"The goal of the MIPS-X project was to ... build a single processor with a
peak rate of 20 MIPS and then to use 6-10 of these processors as the nodes
in a shared memory multiprocessor."  This module is that system, built
from the single-processor model:

* N :class:`~repro.core.processor.Machine` nodes over one shared
  :class:`~repro.ecache.memory.MemorySystem` (data is always functionally
  coherent: the Ecaches are timing models over the single shared image);
* **write-through invalidation**: every store broadcasts its address and
  invalidates the matching line in every *other* node's external cache
  (Smith's "transmit the addresses of all stores to all other caches"
  policy -- the natural fit for MIPS-X's write-through Ecache).  The
  ``invalidation=False`` knob disables the purge (timing-only: data stays
  coherent either way) so the sweep can measure the policy's cost;
* a **shared bus** to main memory: only one node's miss may occupy the
  bus at a time, modelled as extra stall cycles on contending nodes.
  ``bus_latency`` holds the bus for that many extra global cycles after
  each acquisition (post-transfer bus occupancy), penalising contenders
  without slowing an uncontended node;
* cycle-interleaved execution: one cycle per node per global step, so the
  nodes are sequentially consistent (each store is visible to every node
  on the next cycle).

MIPS-X has no atomic read-modify-write, so software synchronization uses
classic SC algorithms (the tests run Peterson's lock); per-CPU identity is
delivered in ``gp`` (r31) at reset, by convention.  SPL programs compiled
with ``node_stack_words`` carve one stack per node below the conventional
stack top (see :mod:`repro.lang.codegen`); the constructor validates that
``config.memory_words`` leaves room for them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.asm.unit import Program
from repro.core.config import MachineConfig
from repro.core.processor import Machine
from repro.ecache.memory import MemorySystem
from repro.isa.registers import GP
from repro.lang.codegen import NODE_STACK_WORDS, STACK_TOP


@dataclasses.dataclass
class BusStats:
    """Shared-bus accounting."""

    acquisitions: int = 0
    contention_cycles: int = 0
    invalidations: int = 0


class MultiMachine:
    """``n`` MIPS-X nodes sharing memory over one bus."""

    def __init__(self, n: int, config: Optional[MachineConfig] = None,
                 memory: Optional[MemorySystem] = None,
                 bus_latency: int = 0, invalidation: bool = True):
        """Build ``n`` nodes over one shared memory image.

        ``bus_latency`` keeps the bus owned for that many extra global
        cycles after each acquisition; ``invalidation`` toggles the
        write-through broadcast purge (timing-only either way).
        """
        if not 1 <= n <= 16:
            raise ValueError("node count must be between 1 and 16")
        if bus_latency < 0:
            raise ValueError("bus latency cannot be negative")
        self.config = config or MachineConfig()
        limit = min(self.config.memory_words, self.config.mmio_base)
        if STACK_TOP > limit:
            raise ValueError(
                f"config.memory_words={self.config.memory_words:#x} cannot "
                f"hold the {n} node stacks: the conventional stack top "
                f"{STACK_TOP:#x} lies beyond addressable data memory "
                f"({limit:#x}) -- raise memory_words")
        if n * NODE_STACK_WORDS >= STACK_TOP:
            raise ValueError(
                f"{n} nodes x {NODE_STACK_WORDS} stack words overrun the "
                f"code/global region below the stack top {STACK_TOP:#x}")
        self.bus_latency = bus_latency
        self.invalidation = invalidation
        self.memory = memory or MemorySystem(self.config.memory_words,
                                             self.config.mmio_base)
        self.machines: List[Machine] = [
            Machine(self.config, memory=self.memory) for _ in range(n)
        ]
        self.bus = BusStats()
        self.cycles = 0
        #: which node currently owns the bus (None = free), and until when
        self._bus_owner: Optional[int] = None
        self._bus_release_cycle = 0
        #: optional per-node CycleTracers (see :meth:`attach_tracers`)
        self.tracers = None
        self.memory.write_listeners.append(self._broadcast_invalidate)
        self._store_origin: Optional[int] = None

    # ---------------------------------------------------------- invalidation
    def _broadcast_invalidate(self, address: int, system_mode: bool) -> None:
        """Write-through invalidation: purge the written line from every
        other node's external cache so it re-fetches the fresh value's
        timing honestly."""
        if not self.invalidation:
            return
        origin = self._store_origin
        for index, machine in enumerate(self.machines):
            if index == origin:
                continue
            machine.ecache.invalidate(address, system_mode)
        if origin is not None:
            self.bus.invalidations += 1

    # -------------------------------------------------------------- loading
    def load_program(self, program: Program,
                     entries: Optional[List[int]] = None) -> None:
        """Load one image into the shared memory; every node starts at the
        program entry (or per-node ``entries``) with its id in ``gp``."""
        self.memory.system.load_image(program.image)
        for index, machine in enumerate(self.machines):
            entry = entries[index] if entries else program.entry
            machine.pipeline.reset(entry)
            machine.regs[GP] = index

    # -------------------------------------------------------- observability
    def attach_tracers(self, capacity: int = 65536, metrics=None):
        """Attach one passive :class:`CycleTracer` per node.

        Unlike the single-core flow (where the tracer drives the clock),
        :meth:`step` stays the driver here: it brackets each node cycle
        with the tracer's ``begin_cycle``/``end_cycle`` and records
        bus-contention freezes as ``bus_wait`` stall spans.  Pass one
        shared ``metrics`` registry to aggregate histograms across nodes.
        Returns the tracer list (also kept on ``self.tracers``).
        """
        from repro.telemetry.tracer import CycleTracer

        self.tracers = [CycleTracer(machine, capacity=capacity,
                                    metrics=metrics)
                        for machine in self.machines]
        return self.tracers

    def metrics(self, into=None):
        """Harvest all nodes + the bus into one catalogued registry
        (see :func:`repro.telemetry.metrics.collect_multi`)."""
        from repro.telemetry.metrics import collect_multi

        return collect_multi(self, into)

    # -------------------------------------------------------------- running
    def step(self) -> None:
        """One global cycle: each live node advances one cycle.

        Bus arbitration: when a node enters a memory-system stall it must
        own the bus; a contending node pays an extra stall cycle per cycle
        the bus is held by someone else (its ``w1`` stays withheld).  An
        owner keeps the bus for ``bus_latency`` extra global cycles after
        acquiring it, even once its own stall has drained.
        """
        self.cycles += 1
        tracers = self.tracers
        for index, machine in enumerate(self.machines):
            if machine.halted:
                continue
            pipeline = machine.pipeline
            stalled = pipeline._stall_left > 0 or pipeline.miss_fsm.stalled
            if stalled:
                if self._bus_owner is None:
                    self._bus_owner = index
                    self.bus.acquisitions += 1
                    self._bus_release_cycle = self.cycles + self.bus_latency
                elif self._bus_owner != index:
                    # bus busy: this node's miss waits a cycle
                    self.bus.contention_cycles += 1
                    machine.stats.cycles += 1
                    if tracers is not None:
                        tracers[index].observe_wait(machine.stats.cycles)
                    continue
            elif (self._bus_owner == index
                    and self.cycles >= self._bus_release_cycle):
                self._bus_owner = None
            self._store_origin = index
            if tracers is not None:
                tracer = tracers[index]
                before = tracer.begin_cycle()
                machine.step()
                tracer.end_cycle(before)
            else:
                machine.step()
            self._store_origin = None
        if (self._bus_owner is not None
                and self.machines[self._bus_owner].halted):
            self._bus_owner = None

    def run(self, max_cycles: int = 10_000_000) -> int:
        """Run until every node halts; returns global cycles."""
        while not self.all_halted and self.cycles < max_cycles:
            self.step()
        if self.tracers is not None:
            for tracer in self.tracers:
                tracer.finalize()
        return self.cycles

    # -------------------------------------------------- checkpoint/restore
    def snapshot(self, drain_bound: int = 4096) -> dict:
        """Drain every node to quiescence and capture the whole system:
        shared memory once, per-node pipeline/cache/coprocessor state,
        and the bus (owner, release cycle, counters).  See
        :mod:`repro.checkpoint.state`."""
        from repro.checkpoint.state import drain_multi, multi_state

        drain_multi(self, drain_bound)
        return multi_state(self)

    def restore(self, state: dict) -> None:
        """Restore a multi snapshot into an identically shaped system
        (same config, node count, bus latency, invalidation setting)."""
        from repro.checkpoint.state import restore_multi

        restore_multi(self, state)

    @property
    def all_halted(self) -> bool:
        return all(machine.halted for machine in self.machines)

    @property
    def console(self):
        return self.memory.console

    def node(self, index: int) -> Machine:
        return self.machines[index]

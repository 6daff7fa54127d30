"""Cycle-accurate model of the MIPS-X five-stage pipeline.

Stage assignment follows Figure 1 of the paper::

    IF   instruction fetch (from the on-chip Icache)
    RF   instruction decode and register fetch
    ALU  ALU or shift operation (also: address computation, branch condition)
    MEM  wait for data from memory on a load / output data for a store
    WB   write the result into the destination register

Timing rules that fall out of this pipeline (and which the software system
must respect, because the hardware does **not** interlock):

* branch conditions resolve at the end of ALU -> **two delay slots**;
* load data arrives at the end of MEM -> **one load delay slot**;
* bypassing covers producer distances 1 (ALU->ALU) and 2 (MEM->ALU); the
  register file writes before it reads, covering distance 3 and beyond --
  the paper's "two levels of bypassing".

Stalls are modelled exactly as the paper's qualified ``w1`` clock: when the
Icache misses or the Ecache reports a late miss, the clock to the control
latches is withheld and *nothing* advances until the memory system
delivers.  The squash FSM and cache-miss FSM of Figures 3 and 4 sequence
squashes and miss services respectively.

Exception return convention: the handler reloads the PC chain (``movtos
pc1/pc2/pc3``) and executes ``jpc; jpc; jpcrs``.  Each jump redirects to
the next chain entry while the following jumps ride in its delay slots, so
the three frozen instructions re-execute exactly once and execution then
continues sequentially.  ``jpcrs`` -- the *last* jump -- restores the PSW,
which keeps PC-chain shifting disabled until every entry has been popped
(the paper's "then PC shifting can be enabled").  One simulator
simplification: the PSW (and with it the operating mode) is restored when
``jpcrs`` reaches ALU, so the first two re-executed fetches of a
*user-mode* return still read system space; none of the reproduced
experiments involve user-mode exception returns.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.coproc.interface import CoprocessorSet
from repro.core.config import MachineConfig
from repro.core.control import CacheMissFsm, SquashFsm, SquashState
from repro.core.datapath import FunnelShifter, MdRegister, RegisterFile
from repro.core.pc_unit import PcUnit
from repro.core.predecode import (
    ADD, ADDI, AND, BRANCH, CONTROL, EQ, GT, ILLEGAL_KIND, JSPCI, LE, LOAD,
    LT, MEM_LD, MEM_ST, NE, NOP, NOT, OR, ROTL, SLL, SRA, SRL, STORE, SUB,
    XOR, Decoded, decode_word,
)
from repro.core.psw import Psw, PswBit
from repro.ecache.ecache import Ecache
from repro.ecache.memory import MemorySystem
from repro.icache.cache import Icache
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Funct, Opcode, SpecialReg

# stage indices
IF, RF, ALU, MEM, WB = 0, 1, 2, 3, 4

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000
# PSW bits the cycle tests on the raw value
_MODE = 1 << PswBit.MODE
_IE = 1 << PswBit.IE
_TE = 1 << PswBit.TE
_SHIFT_EN = 1 << PswBit.SHIFT_EN

_NORMAL = SquashState.NORMAL
# special-register numbers (movfrs/movtos shamt) as plain ints
_SR_PSW = int(SpecialReg.PSW)
_SR_PSWOLD = int(SpecialReg.PSWOLD)
_SR_MD = int(SpecialReg.MD)
_SR_PC1 = int(SpecialReg.PC1)

#: :meth:`Pipeline.run` re-enters the cycle loop at least this often, in
#: cycles.  CPython specializes a function's bytecode as calls warm it
#: up; a loop entered once per run ran a fresh process's first runs
#: unspecialized, at a fraction of the speed it reaches when re-entered.
REENTRY_CYCLES = 4096


def _signed_taken(cond: int, a: int, b: int) -> bool:
    """Signed branch compare of two 32-bit words.  Flipping the sign bit
    maps two's-complement order onto unsigned order."""
    if cond == EQ:
        return a == b
    if cond == NE:
        return a != b
    a ^= _SIGN
    b ^= _SIGN
    if cond == LT:
        return a < b
    if cond == LE:
        return a <= b
    if cond == GT:
        return a > b
    return a >= b


class IllegalInstruction(RuntimeError):
    """A word that does not decode reached the ALU stage un-squashed."""

    def __init__(self, pc: int):
        super().__init__(f"illegal instruction executed at pc={pc:#x}")
        self.pc = pc


class HazardViolation(RuntimeError):
    """Software violated a delay-slot constraint (hazard checking on).

    On the real machine this is silent data corruption: the reorganizer is
    responsible for never letting it happen.
    """

    def __init__(self, message: str, pc: int):
        super().__init__(f"{message} (pc={pc:#x})")
        self.pc = pc


class Flight:
    """One instruction in flight through the pipeline.

    ``op`` is the word's :class:`~repro.core.predecode.Decoded` record,
    shared by every fetch of that word; the rest is this instance's own
    execution state.
    """

    __slots__ = (
        "pc",
        "op",
        "squashed",
        "result",
        "dest",
        "mem_address",
        "store_value",
        "mem_resolved",
        "taken",
    )

    def __init__(self, pc: int, op: Decoded):
        self.pc = pc
        self.op = op
        self.squashed = False
        self.result: Optional[int] = None
        self.dest: Optional[int] = None
        self.mem_address = 0
        self.store_value = 0
        self.mem_resolved = False
        self.taken = False

    @property
    def instr(self) -> Instruction:
        """The architectural instruction (or the illegal-word sentinel)."""
        return self.op.instr

    def __repr__(self) -> str:
        mark = "x" if self.squashed else ""
        return f"<{self.pc:#x}:{self.instr}{mark}>"


@dataclasses.dataclass
class PipelineStats:
    """Counters collected by the pipeline; derived metrics as properties."""

    cycles: int = 0
    fetched: int = 0
    retired: int = 0          #: completed instructions, including no-ops
    squashed: int = 0         #: instructions converted to no-ops in flight
    noops: int = 0            #: retired architectural no-ops
    branches: int = 0
    branches_taken: int = 0
    branch_squashes: int = 0  #: squashing branches that went the wrong way
    jumps: int = 0
    loads: int = 0
    stores: int = 0
    coproc_ops: int = 0
    exceptions: int = 0
    interrupts: int = 0
    page_faults: int = 0
    icache_stall_cycles: int = 0
    data_stall_cycles: int = 0
    halted: bool = False

    @property
    def instructions(self) -> int:
        """Executed instruction count (the paper counts no-ops as
        instructions when quoting no-op percentages and CPI)."""
        return self.retired

    @property
    def cpi(self) -> float:
        return self.cycles / self.retired if self.retired else 0.0

    @property
    def noop_fraction(self) -> float:
        return self.noops / self.retired if self.retired else 0.0

    @property
    def data_references(self) -> int:
        return self.loads + self.stores

    @property
    def data_reference_density(self) -> float:
        """Data references per executed instruction (paper: ~1/3)."""
        return self.data_references / self.retired if self.retired else 0.0

    def mips(self, clock_mhz: float) -> float:
        return clock_mhz / self.cpi if self.cpi else 0.0

    def as_metrics(self) -> "dict[str, int]":
        """Counter values under canonical telemetry catalog names.

        The one audited mapping from these fields to the hierarchical
        names in :mod:`repro.telemetry.catalog`; consumers read this
        instead of scraping attributes.
        """
        return {
            "pipeline.cycles": self.cycles,
            "pipeline.instructions.fetched": self.fetched,
            "pipeline.instructions.retired": self.retired,
            "pipeline.instructions.squashed": self.squashed,
            "pipeline.instructions.noops": self.noops,
            "pipeline.branch.executed": self.branches,
            "pipeline.branch.taken": self.branches_taken,
            "pipeline.branch.squashes": self.branch_squashes,
            "pipeline.jumps": self.jumps,
            "pipeline.mem.loads": self.loads,
            "pipeline.mem.stores": self.stores,
            "pipeline.coproc.ops": self.coproc_ops,
            "pipeline.exceptions.taken": self.exceptions,
            "pipeline.interrupts.taken": self.interrupts,
            "pipeline.page_faults": self.page_faults,
            "pipeline.stall.icache_miss": self.icache_stall_cycles,
            "pipeline.stall.ecache_late_miss": self.data_stall_cycles,
        }


class TraceSink:
    """Hook interface for trace capture; all methods are optional no-ops."""

    def on_fetch(self, pc: int) -> None:
        pass

    def on_retire(self, pc: int, instr: Instruction, squashed: bool) -> None:
        pass

    def on_branch(self, pc: int, instr: Instruction, taken: bool,
                  target: int) -> None:
        pass

    def on_data(self, pc: int, address: int, is_store: bool) -> None:
        pass

    def on_ecache(self, kind: int, address: int) -> None:
        """External-cache reference: kind 0=read, 1=write, 2=ifetch.

        Unlike :meth:`on_data` this fires only for references that
        actually reach the Ecache (MMIO accesses are filtered out) and
        includes the Icache fill traffic, so a replayed stream drives an
        :class:`~repro.ecache.ecache.Ecache` to identical stats.
        """
        pass

    def on_exception(self, cause: str) -> None:
        pass

    def on_device_irq(self, cause_bits: int) -> None:
        """A scheduled MMIO device raised an interrupt (ICU cause bits)."""
        pass


class FaultHook:
    """Hook interface for fault injection (see :mod:`repro.faults`).

    The pipeline calls :meth:`on_cycle` once per pass of its cycle body
    *before* any stage work, so a hook can mutate cache state, post
    interrupts, or arm an injected exception for this cycle's sampling
    point.  The hot path pays exactly one ``is not None`` check per
    cycle when no hook is attached (the acceptance budget is a <2%
    throughput regression with faults disabled).

    During a multi-cycle stall the :meth:`Pipeline.run` fast path burns
    the stall in bulk without running the cycle body; hooks therefore
    observe ``stats.cycles`` jumping and must treat their target cycles
    as "fire at the first opportunity at or after cycle N".
    """

    def on_cycle(self, pipeline: "Pipeline") -> None:
        pass


class Pipeline:
    """The processor proper: datapath + control + memory interfaces."""

    def __init__(self, config: MachineConfig, memory: MemorySystem,
                 icache: Icache, ecache: Ecache,
                 coprocessors: CoprocessorSet):
        self.config = config
        self.memory = memory
        self.icache = icache
        self.ecache = ecache
        self.coprocessors = coprocessors

        self.regs = RegisterFile()
        self.psw = Psw()
        self.psw_old = Psw(0)
        self.md = MdRegister()
        self.pc_unit = PcUnit()
        self.squash_fsm = SquashFsm()
        self.miss_fsm = CacheMissFsm()
        self.stats = PipelineStats()
        self.trace: Optional[TraceSink] = None
        self.fault_hook: Optional[FaultHook] = None
        #: cause override for the next injected async exception; rides the
        #: NMI sampling point so the hot path never tests it directly
        self._fault_cause: Optional[PswBit] = None

        #: s[k] is the flight performing stage k during the current cycle.
        self.s: List[Optional[Flight]] = [None] * 5
        self._stall_left = 0
        self._stall_is_icache = False
        self._ready_fetch: Optional[int] = None
        self._halting = False
        self.halted = False
        self._irq_pending = False
        self._nmi_pending = False
        self._irq_hold = 0
        #: predecode memos per address space (index 0: user, 1: system),
        #: keyed by bare word address so a store invalidates its entry
        #: with one dict pop -- the same O(1) word-address indexing the
        #: translator's block-invalidation map uses.
        self._decode_caches: "tuple[dict, dict]" = ({}, {})
        self._decode_enabled = config.decode_cache
        #: ideal memory (``perfect_memory_config()``): neither cache is
        #: modelled and a fetch costs nothing, so the cycle skips the
        #: Icache and Ecache probes, which would return 0 and count
        #: nothing, and only tells the trace sink
        self._ideal_memory = (not config.icache.enabled
                              and config.icache.miss_cycles == 0
                              and not ecache.config.enabled)
        #: hot-loop translator (the translated fast path); None unless
        #: ``config.jit`` is on and the config shape is supported.
        self._translator = None
        if config.jit:
            from repro.core.translate import Translator
            if Translator.supports(config):
                self._translator = Translator(self)
        #: what nothing rebinds after construction, unpacked into
        #: :meth:`_cycles`'s locals at each call: owned units, bound
        #: probes and config tests
        self._invariants = (
            self.stats, memory, self.pc_unit, self.regs._regs,
            self._decode_caches, self.squash_fsm,
            icache.fetch, ecache.read, ecache.write,
            self._ideal_memory, config.icache.enabled,
            config.branch_delay_slots, config.branch_delay_slots == 2)
        memory.write_listeners.append(self._on_store)
        #: earliest pending device event (absolute cycle, IDLE sentinel
        #: when every device is idle): one integer compare per cycle is
        #: the whole cost of the device layer on the hot path
        self._device_alarm = memory.device_alarm()
        memory.alarm_listeners.append(self._set_device_alarm)
        memory.clock = lambda: self.stats.cycles

    # ------------------------------------------------------------ external
    def reset(self, entry_pc: int = 0) -> None:
        self.pc_unit.vector(entry_pc)
        self.s = [None] * 5
        self._halting = False
        self.halted = False
        self._ready_fetch = None
        # a fresh program image is loaded around reset without firing
        # store listeners, so decode memos and translated blocks may be
        # stale
        for memo in self._decode_caches:
            memo.clear()
        if self._translator is not None:
            self._translator.clear()

    def post_interrupt(self, cause_bits: int = 1, nmi: bool = False) -> None:
        """Assert the (off-chip) interrupt request line."""
        self.memory.icu.post(cause_bits)
        if nmi:
            self._nmi_pending = True
        else:
            self._irq_pending = True

    def _on_store(self, address: int, system_mode: bool) -> None:
        """Store listener: one O(1) pop per memo index (self-modifying
        code re-decodes / re-translates the written word)."""
        self._decode_caches[1 if system_mode else 0].pop(address, None)
        if self._translator is not None:
            self._translator.note_store(address, system_mode)

    def _set_device_alarm(self, alarm: int) -> None:
        """Alarm listener: a device (re)armed; cache the new min deadline."""
        self._device_alarm = alarm

    def _service_devices(self, now: int) -> None:
        """Catch up every scheduled device whose deadline has passed.

        Runs at the top of :meth:`cycle` when the clock reaches the
        device alarm; accumulated cause bits post through the ordinary
        :meth:`post_interrupt` path (ICU pending word + IRQ line), so
        delivery rides the same sampling point, holds, and masks as any
        other asynchronous interrupt.
        """
        memory = self.memory
        cause = 0
        for device in memory.scheduled_devices:
            if device.next_event <= now:
                cause |= device.service(now)
        self._device_alarm = memory.device_alarm()
        if cause:
            self.post_interrupt(cause)
            if self.trace is not None:
                self.trace.on_device_irq(cause)

    # ------------------------------------------------------------- decode
    def _decode_at(self, pc: int, system_mode: bool) -> Decoded:
        """The predecoded word at ``pc``, memoized per (mode, address).

        The one decode lookup: the interpreter's fetch (which probes the
        memo inline and lands here on a miss) and the translator's scans
        both read through it.  The first fetch of an address decodes the
        word; later fetches reuse the memo entry.  A store to the address
        (via ``memory.write_listeners``) invalidates the entry, so
        self-modifying code re-decodes.  ``config.decode_cache=False``
        restores decode-on-every-fetch for equivalence testing.
        """
        memo = self._decode_caches[1 if system_mode else 0]
        op = memo.get(pc)
        if op is None:
            op = decode_word(self.memory.space(system_mode).read(pc))
            if self._decode_enabled:
                memo[pc] = op
        return op

    # ---------------------------------------------------------- main cycle
    def cycle(self) -> None:
        """Advance the machine by exactly one clock cycle.

        One pass of :meth:`_cycles`'s body: strictly per-cycle, with no
        stall leap and no translated entry, so steppers and tracers see
        every cycle.
        """
        self._cycles()

    def _cycles(self, max_cycles: Optional[int] = None,  # noqa: C901
                until: int = 0, last_pc: int = -2) -> int:
        """The one cycle body, run as a loop; returns the last
        interpreted fetch PC.

        Every stage's common case runs inline on the predecoded fields
        of its flight, so a cycle costs a few dozen local reads and
        integer tests.  Rare work -- misses, page faults, interrupts,
        exceptions, coprocessor traffic, multiply and divide steps,
        special registers, the 1-slot RF branch -- goes through the
        helper methods below.  What no cycle rebinds is unpacked once per
        call into locals; per-cycle state (the PSW, the latches, stalls,
        halting, the interrupt flags, the device alarm) is read from
        ``self`` every cycle.

        With no arguments it runs one cycle (:meth:`cycle`).  Given
        :meth:`run`'s budget ``max_cycles``, it cycles until the clock
        reaches ``until`` or the machine halts, and its loop top consumes
        a multi-cycle stall in one step and dispatches fetch
        discontinuities to the translator.  ``last_pc`` carries the
        previous interpreted fetch PC from one call to the next, so a
        sequential fetch at a call boundary is not counted as an
        arrival.
        """
        (stats, memory, pc_unit, regs, decode_caches, squash_fsm,
         icache_fetch, ecache_read, ecache_write,
         ideal, icache_on, delay_slots, two_slots) = self._invariants
        trace = self.trace
        fault_hook = self.fault_hook
        translator = None
        if max_cycles is None:
            until = stats.cycles + 1
        else:
            translator = self._translator
            if translator is not None:
                blocks = translator.blocks
                dead = translator.dead

        while stats.cycles < until:
            if max_cycles is not None:
                if self.halted:
                    break
                # Stall fast path: while w1 is withheld every stalled
                # cycle is identical, so a multi-cycle stall is consumed
                # in one step.
                stall = self._stall_left
                if stall > 1:
                    self._consume_stall_bulk(
                        min(stall, max_cycles - stats.cycles))
                    continue
                # Translated fast path: a fetch discontinuity (branch
                # target, vector, bail continuation) is the only place a
                # translated loop can start.
                if translator is not None:
                    fetch_pc = pc_unit.fetch_pc
                    if fetch_pc != last_pc + 1 and stall == 0:
                        block = blocks.get(fetch_pc)
                        if block is None and fetch_pc not in dead:
                            translator.note_target(fetch_pc)
                            block = blocks.get(fetch_pc)
                        # Translated passes stop short of the device
                        # alarm so the alarm cycle itself is interpreted
                        # and serviced at the exact cycle stepping would
                        # service it.  Device arming cannot move the
                        # alarm mid-closure (MMIO stores always bail to
                        # the interpreter first).
                        if block is not None and translator.try_enter(
                                block,
                                min(max_cycles, self._device_alarm - 1)):
                            last_pc = -2
                            continue
                    last_pc = fetch_pc

            stats.cycles += 1

            if fault_hook is not None:
                fault_hook.on_cycle(self)

            # Scheduled MMIO devices (UART RX, timer, block DMA) catch up
            # whenever the clock reaches the earliest pending event.  This
            # runs before the stall test, but the stall fast path may
            # still jump past an alarm: servicing then happens at the
            # first per-cycle step after the jump, which is equivalent
            # because nothing during a stall can observe device state --
            # no stage executes and the interrupt sampling point (below)
            # is never reached while w1 is withheld.
            if stats.cycles >= self._device_alarm:
                self._service_devices(stats.cycles)

            # w1 withheld: a stall freezes every pipeline latch.
            if self._stall_left > 0:
                self._consume_stall()
                continue

            # All PSW reads in a cycle happen before the ALU stage (the
            # only stage that can replace the PSW), so one read suffices.
            psw = self.psw.value
            mode = (psw & _MODE) != 0
            s = self.s

            # MEM-stage data probe for the instruction about to enter MEM
            # (the late-miss protocol: a miss re-runs phase 2 of MEM).
            page_fault = False
            flight = s[ALU]
            if (flight is not None and flight.op.access
                    and not flight.squashed and not flight.mem_resolved):
                address = flight.mem_address
                flight.mem_resolved = True
                if not memory.data_access_mapped(address):
                    # off-chip MMU signals a data page fault: the access
                    # (and everything younger) restarts after the handler
                    # maps the page -- the restartability the paper
                    # designed for
                    memory.mmu.record_fault(address)
                    page_fault = True
                else:
                    if trace is not None:
                        trace.on_data(flight.pc, address, flight.op.is_store)
                    if address < memory.mmio_base:
                        is_store = flight.op.is_store
                        if trace is not None:
                            trace.on_ecache(1 if is_store else 0, address)
                        if not ideal:
                            penalty = (ecache_write(address, mode)
                                       if is_store
                                       else ecache_read(address, mode))
                            if penalty > 0:
                                self._stall_left = penalty - 1
                                self._stall_is_icache = False
                                stats.data_stall_cycles += 1
                                continue

            # IF-stage probe at the current fetch PC, then fetch.  Under
            # ideal memory a fetch costs nothing and counts nothing, so
            # only the sink hears of it.
            fetched: Optional[Flight] = None
            if not self._halting:
                fetch_pc = pc_unit.fetch_pc
                if self._ready_fetch != fetch_pc:
                    if ideal:
                        if trace is not None:
                            trace.on_ecache(2, fetch_pc)
                    else:
                        if icache_on:
                            probe = icache_fetch(fetch_pc, mode)
                            stall = (0 if probe.hit
                                     else self._fill(probe, mode))
                        else:
                            stall = self._uncached_fetch(fetch_pc, mode)
                        if stall > 0:
                            self._ready_fetch = fetch_pc
                            self._stall_left = stall - 1
                            self._stall_is_icache = True
                            self.miss_fsm.tick()
                            stats.icache_stall_cycles += 1
                            continue
                op = decode_caches[mode].get(fetch_pc)
                if op is None:
                    op = self._decode_at(fetch_pc, mode)
                fetched = Flight(fetch_pc, op)
                stats.fetched += 1
                if trace is not None:
                    trace.on_fetch(fetch_pc)
                self._ready_fetch = None

            # Pipeline latches shift (w1 rises).
            retiring = s[MEM]
            mem_f = s[ALU]
            alu_f = s[RF]
            rf_f = s[IF]
            self.s = [fetched, rf_f, alu_f, mem_f, retiring]

            # WB: the oldest instruction completes -- the *only* point at
            # which machine state (registers) changes, making exceptions
            # restartable.
            if retiring is not None:
                self._writeback(retiring)

            # The PC chain records the PCs of the three uncompleted
            # instructions (MEM, ALU, RF) while shifting is enabled.
            if psw & _SHIFT_EN:
                pc_unit.chain.shift(
                    mem_f.pc if mem_f is not None else 0,
                    alu_f.pc if alu_f is not None else 0,
                    rf_f.pc if rf_f is not None else 0,
                )

            # A page fault behaves like a fault on the instruction now in
            # MEM: nothing younger completes and the chain restarts it.
            if page_fault:
                stats.page_faults += 1
                self._take_exception(PswBit.CAUSE_PGFLT)
                continue

            # Interrupts are sampled at the top of the cycle (but held for
            # the one-cycle window after a jpcrs restore, see _alu_control,
            # and while _async_hold says restart would not be clean).
            if self._irq_hold > 0:
                self._irq_hold -= 1
            elif ((self._nmi_pending or (self._irq_pending and psw & _IE))
                  and not self._async_hold()):
                self._take_interrupt()
                continue

            # MEM work: loads and stores inline, coprocessor traffic aside.
            if mem_f is not None and mem_f.op.mem and not mem_f.squashed:
                action = mem_f.op.mem
                if action == MEM_LD:
                    mem_f.result = memory.read(mem_f.mem_address, mode)
                    stats.loads += 1
                elif action == MEM_ST:
                    memory.write(mem_f.mem_address, mem_f.store_value, mode)
                    stats.stores += 1
                else:
                    self._mem_coproc(mem_f, mode)

            # ALU work: operands (with bypass), results, addresses, branch
            # conditions, redirects and synchronous exceptions.
            branch_wrong = False
            if alu_f is not None and not alu_f.squashed:
                op = alu_f.op
                kind = op.kind
                if kind == NOP:
                    alu_f.result = 0
                elif kind != BRANCH or two_slots:
                    if kind == ILLEGAL_KIND:
                        raise IllegalInstruction(alu_f.pc)
                    # Bypass: the distance-1 producer (now in MEM) beats
                    # the register file; the distance-2 producer already
                    # wrote the register file this cycle (WB runs first).
                    # A distance-1 *load* is unbypassable -- its data
                    # arrives only at the end of MEM -- so the consumer
                    # sees the stale register.
                    bypass = (mem_f.dest if mem_f is not None
                              and not mem_f.squashed else None)
                    reg = op.src1
                    a = regs[reg]
                    if reg == bypass:
                        if mem_f.op.load_use:
                            self._load_use(reg, mem_f, alu_f)
                        elif mem_f.result is not None:
                            a = mem_f.result
                    b = 0
                    if op.reads_src2:
                        reg = op.src2
                        b = regs[reg]
                        if reg == bypass:
                            if mem_f.op.load_use:
                                self._load_use(reg, mem_f, alu_f)
                            elif mem_f.result is not None:
                                b = mem_f.result
                    if kind < CONTROL:
                        overflow = 0
                        if kind == ADD:
                            result = (a + b) & _MASK
                            overflow = (a ^ result) & (b ^ result) & _SIGN
                        elif kind == SUB:
                            result = (a - b) & _MASK
                            overflow = (a ^ b) & (a ^ result) & _SIGN
                        elif kind == AND:
                            result = a & b
                        elif kind == OR:
                            result = a | b
                        elif kind == XOR:
                            result = a ^ b
                        elif kind == SLL:
                            result = (a << op.shamt) & _MASK
                        elif kind == SRL:
                            result = a >> op.shamt
                        elif kind == SRA:
                            result = (((a ^ _SIGN) - _SIGN)
                                      >> op.shamt) & _MASK
                        elif kind == NOT:
                            result = ~a & _MASK
                        elif kind == ROTL:
                            result = FunnelShifter.rotl(a, op.shamt)
                        else:
                            result, overflow = self._alu_special(op, a, b)
                        if overflow and psw & _TE:
                            self._take_exception(PswBit.CAUSE_OVF)
                            continue
                        alu_f.dest = op.dest
                        alu_f.result = result
                    elif kind == BRANCH:
                        cond = op.cond
                        if cond == EQ:
                            taken = a == b
                        elif cond == NE:
                            taken = a != b
                        else:
                            taken = _signed_taken(cond, a, b)
                        alu_f.taken = taken
                        target = (alu_f.pc + op.imm) & _MASK
                        stats.branches += 1
                        if taken:
                            stats.branches_taken += 1
                            pc_unit.redirect(target)
                        elif op.squash:
                            # wrong way: annul the two delay slots
                            stats.branch_squashes += 1
                            branch_wrong = True
                            if rf_f is not None:
                                rf_f.squashed = True
                            if fetched is not None:
                                fetched.squashed = True
                        if trace is not None:
                            trace.on_branch(alu_f.pc, op.instr, taken, target)
                    elif kind == CONTROL:
                        if self._alu_control(alu_f, op, a):
                            continue
                    else:
                        # memory format: address / payload computation
                        address = (a + op.imm) & _MASK
                        alu_f.mem_address = address
                        if kind == LOAD:
                            alu_f.dest = op.dest
                        elif kind == STORE:
                            alu_f.store_value = b
                        elif kind == ADDI:
                            alu_f.dest = op.dest
                            alu_f.result = address
                        elif kind == JSPCI:
                            alu_f.dest = op.dest
                            alu_f.result = (alu_f.pc + 1
                                            + delay_slots) & _MASK
                            pc_unit.redirect(address)
                            stats.jumps += 1

            # Quick-compare design alternative: 1-slot machines resolve
            # the branch in RF instead of ALU.
            if delay_slots == 1 and rf_f is not None:
                branch_wrong = self._rf_branch_stage(rf_f, alu_f, mem_f,
                                                     fetched)

            pc_unit.advance()
            # NORMAL -> NORMAL is the squash FSM's only self-loop with no
            # effect, so it is stepped only when it can change
            if branch_wrong or squash_fsm.state is not _NORMAL:
                squash_fsm.step(exception=False, branch_wrong=branch_wrong)

            # Drain after a halt: everything older than the halt completes.
            if self._halting and (rf_f is None and alu_f is None
                                  and mem_f is None and retiring is None):
                self.halted = True
                stats.halted = True
        return last_pc

    # -------------------------------------------------------------- stalls
    def _consume_stall(self) -> None:
        self._stall_left -= 1
        if self._stall_is_icache:
            self.miss_fsm.tick()
            self.stats.icache_stall_cycles += 1
        else:
            self.stats.data_stall_cycles += 1

    def _fill(self, probe, mode: bool) -> int:
        """Icache miss: fetch back the fill words through the Ecache and
        start the miss FSM; returns the stall."""
        miss_cycles = self.config.icache.miss_cycles
        external = 0
        for addr in probe.fill_addresses:
            if self.trace is not None:
                self.trace.on_ecache(2, addr)
            external += self.ecache.ifetch(addr, mode)
        self.miss_fsm.begin_miss(miss_cycles, external)
        return miss_cycles + external

    def _uncached_fetch(self, pc: int, mode: bool) -> int:
        """No Icache: every fetch goes to the Ecache; returns the stall."""
        miss_cycles = self.config.icache.miss_cycles
        if self.trace is not None:
            self.trace.on_ecache(2, pc)
        external = self.ecache.ifetch(pc, mode)
        total = miss_cycles + external
        if total > 0:
            self.miss_fsm.begin_miss(miss_cycles, external)
        return total

    # ------------------------------------------------------------ WB stage
    def _writeback(self, flight: Optional[Flight]) -> None:
        """WB for ``flight``.  A method, not inline in :meth:`cycle`, so
        the fault campaign's writeback audit can wrap it per instance."""
        if flight is None:
            return
        stats = self.stats
        if flight.squashed:
            stats.squashed += 1
        else:
            if flight.dest and flight.result is not None:
                self.regs.write(flight.dest, flight.result)
            stats.retired += 1
            if flight.op.nop:
                stats.noops += 1
        if self.trace is not None:
            self.trace.on_retire(flight.pc, flight.instr, flight.squashed)

    # ----------------------------------------------------------- MEM stage
    def _mem_coproc(self, flight: Flight, mode: bool) -> None:
        """MEM work of ldf, stf, cop, movtoc and movfrc."""
        opcode = flight.instr.opcode
        if opcode == Opcode.LDF:
            word = self.memory.read(flight.mem_address, mode)
            self._fpu().load_word(flight.op.src2, word)
            self.stats.loads += 1
        elif opcode == Opcode.STF:
            self.memory.write(flight.mem_address,
                              self._fpu().store_word(flight.op.src2), mode)
            self.stats.stores += 1
        else:
            coprocessors = self.coprocessors
            if opcode == Opcode.COP:
                coprocessors.execute(flight.mem_address)
            elif opcode == Opcode.MOVTOC:
                coprocessors.write_data(flight.mem_address,
                                        flight.store_value)
            else:
                flight.result = coprocessors.read_data(flight.mem_address)
            self.stats.coproc_ops += 1
        if self.coprocessors.fault_busy_ops:
            self._coproc_busy_stall()

    def _coproc_busy_stall(self) -> None:
        """Injected coprocessor-busy fault: the coprocessor holds its busy
        line, withholding ``w1`` exactly like a late data miss -- timing
        only, never architectural state."""
        stall = self.coprocessors.consume_busy()
        if stall > 0:
            self._stall_left += stall
            self._stall_is_icache = False

    def _fpu(self):
        fpu = self.coprocessors.fpu_slot
        if fpu is None:
            raise RuntimeError("ldf/stf executed with no coprocessor 1 attached")
        return fpu

    # ----------------------------------------------------------- ALU stage
    def _load_use(self, register: int, producer: Flight,
                  consumer: Flight) -> None:
        """A source read in the load delay slot: stale on hardware, a
        :class:`HazardViolation` with hazard checking on."""
        if self.config.hazard_check:
            raise HazardViolation(
                f"r{register} used in the load delay slot of the "
                f"load at {producer.pc:#x}", consumer.pc)

    def _alu_special(self, op: Decoded, a: int, b: int):
        """mstep, dstep and movfrs: ``(result, overflow)``."""
        funct = op.instr.funct
        if funct == Funct.MSTEP:
            out = self.md.mstep(a, b)
            return out.value, out.overflow
        if funct == Funct.DSTEP:
            return self.md.dstep(a, b).value, False
        return self._read_special(op.shamt), False

    def _alu_control(self, flight: Flight, op: Decoded, a: int) -> bool:
        """movtos, trap, jpc, jpcrs and halt; True when an exception was
        taken.  The PSW (and with it the mode) "can only be changed while
        executing in system mode": user-mode movtos and jumps through the
        PC chain trap instead (privileged-instruction trap)."""
        funct = op.instr.funct
        if funct == Funct.HALT:
            self._halting = True
            for slot in (self.s[RF], self.s[IF]):
                if slot is not None:
                    slot.squashed = True
            return False
        if funct == Funct.TRAP or not self.psw.system_mode:
            self._take_exception(PswBit.CAUSE_TRAP)
            return True
        if funct == Funct.MOVTOS:
            self._write_special(op.shamt, a)
            return False
        self.pc_unit.redirect(self.pc_unit.chain.pop())
        self.stats.jumps += 1
        if funct == Funct.JPCRS:
            self.psw = self.psw_old.copy()
            # hardware interlock: one cycle after the restore, jpcrs is
            # still in MEM -- an interrupt then would freeze the chain
            # with jpcrs itself in it and re-execute it against a shifted
            # chain.  A second held cycle guarantees forward progress:
            # the oldest re-executed instruction reaches WB before the
            # next interrupt can freeze the chain, so a saturating
            # interrupt source cannot livelock the machine.
            self._irq_hold = 2
        return False

    # -------------------------------------------------------- branch logic
    def _rf_branch_stage(self, flight: Flight, alu_f: Optional[Flight],
                         mem_f: Optional[Flight],
                         fetched: Optional[Flight]) -> bool:
        """Quick-compare alternative: resolve branches in RF (one slot);
        returns True when a squashing branch went the wrong way.

        Operand availability is stricter: the comparator sits on the
        register-file outputs, so distance-1 producers and distance-1/2
        loads cannot feed it (the paper's reason for rejecting the scheme).
        """
        op = flight.op
        if flight.squashed or op.kind != BRANCH:
            return False
        if self.config.hazard_check:
            for register in (op.src1, op.src2):
                if register == 0:
                    continue
                for producer, distance in ((alu_f, 1), (mem_f, 2)):
                    if (producer is None or producer.squashed
                            or producer.dest != register):
                        continue
                    if distance == 1 or producer.op.load_use:
                        raise HazardViolation(
                            f"quick compare cannot bypass r{register}",
                            flight.pc)
        # value resolution: WB wrote this cycle; distance-2 compute results
        # are bypassed from the MEM latch.
        values = []
        for register in (op.src1, op.src2):
            if (register != 0 and mem_f is not None
                    and not mem_f.squashed and mem_f.dest == register
                    and mem_f.result is not None):
                values.append(mem_f.result)
            else:
                values.append(self.regs.read(register))
        taken = _signed_taken(op.cond, *values)
        flight.taken = taken
        target = (flight.pc + op.imm) & _MASK
        self.stats.branches += 1
        if taken:
            self.stats.branches_taken += 1
            self.pc_unit.redirect(target)
        wrong_way = op.squash and not taken
        if wrong_way:
            self.stats.branch_squashes += 1
            if fetched is not None:
                fetched.squashed = True
        if self.trace is not None:
            self.trace.on_branch(flight.pc, op.instr, taken, target)
        return wrong_way

    # ---------------------------------------------------- special registers
    def _read_special(self, which: int) -> int:
        if which == _SR_PSW:
            return self.psw.value
        if which == _SR_PSWOLD:
            return self.psw_old.value
        if which == _SR_MD:
            return self.md.value
        return self.pc_unit.chain.read(which - _SR_PC1)

    def _write_special(self, which: int, value: int) -> None:
        if which == _SR_PSW:
            self.psw = Psw(value)
        elif which == _SR_PSWOLD:
            self.psw_old = Psw(value)
        elif which == _SR_MD:
            self.md.value = value & 0xFFFFFFFF
        else:
            self.pc_unit.chain.write(which - _SR_PC1, value)

    # ----------------------------------------------------------- exceptions
    def _async_hold(self) -> bool:
        """Interlock on *asynchronous* exception sampling.

        Evaluated only while an interrupt/NMI is actually pending, so the
        per-cycle hot path never pays for it.  The PC chain restarts the
        three uncompleted instructions (MEM, ALU, RF) after the handler;
        sampling is therefore held whenever that restart would not be
        architecturally clean:

        * a **squashed** flight sits in RF/ALU/MEM -- freezing the chain
          now would record its PC and the handler return would execute a
          squashed instruction for real (the squash decision is not part
          of the saved state);
        * an **mstep/dstep** sits in ALU/MEM/RF -- the step mutates the
          MD register in its ALU stage, so re-execution would apply it
          twice (the reorganizer keeps multiply sequences short, and the
          interlock window is bounded by the sequence length);
        * PC **shifting is disabled** -- the handler has not yet saved
          the chain, and a nested exception would overwrite PSWold and
          the frozen chain, losing the restart state unrecoverably;
        * the machine is **draining after a halt**.

        Every holding condition clears within a bounded number of cycles
        (squash windows are two cycles, handlers re-enable shifting on
        return), so a pending interrupt is delayed, never lost.
        """
        if self._halting or not self.psw.shift_enabled:
            return True
        for k in (RF, ALU, MEM):
            flight = self.s[k]
            if flight is None:
                continue
            if flight.squashed:
                return True
            if flight.instr.funct in (Funct.MSTEP, Funct.DSTEP):
                return True
        return False

    def _take_interrupt(self) -> None:
        """Deliver the pending NMI (or injected cause) or maskable IRQ."""
        if self._nmi_pending:
            self._nmi_pending = False
            cause = (self._fault_cause if self._fault_cause is not None
                     else PswBit.CAUSE_NMI)
            self._fault_cause = None
        else:
            self._irq_pending = False
            cause = PswBit.CAUSE_INT
        self.stats.interrupts += 1
        self._take_exception(cause)

    def _take_exception(self, cause: PswBit) -> None:
        """Halt the pipeline: no-op everything in flight, freeze the PC
        chain, swap the PSW, and vector to address zero in system space."""
        self.stats.exceptions += 1
        self.psw_old = self.psw.copy()
        self.psw.set_cause(cause)
        self.psw.system_mode = True
        self.psw.interrupts_enabled = False
        self.psw.shift_enabled = False
        for k in (IF, RF):          # the Squash line
            if self.s[k] is not None:
                self.s[k].squashed = True
        for k in (ALU, MEM):        # the Exception line
            if self.s[k] is not None:
                self.s[k].squashed = True
        self.pc_unit.vector(0)
        self._ready_fetch = None
        self.squash_fsm.step(exception=True, branch_wrong=False)
        if self.trace is not None:
            self.trace.on_exception(cause.name)

    # ------------------------------------------------------------- running
    def run(self, max_cycles: int = 10_000_000) -> PipelineStats:
        """Run until ``halt`` retires or the cycle budget is exhausted.

        Drives :meth:`_cycles` with the stall fast path and the
        translator's dispatch on, in calls that each end once the clock
        has moved :data:`REENTRY_CYCLES` cycles (a stall leap or a
        translated pass may carry it further).  Cycle counts, stall
        counters and the miss FSM advance exactly as they would under
        :meth:`cycle`.
        """
        stats = self.stats
        cycles = self._cycles
        last_pc = -2
        while not self.halted and stats.cycles < max_cycles:
            last_pc = cycles(max_cycles,
                             min(max_cycles, stats.cycles + REENTRY_CYCLES),
                             last_pc)
        return stats

    def _consume_stall_bulk(self, cycles: int) -> None:
        """Equivalent of ``cycles`` consecutive stalled :meth:`cycle` calls."""
        self.stats.cycles += cycles
        self._stall_left -= cycles
        if self._stall_is_icache:
            self.miss_fsm.tick_many(cycles)
            self.stats.icache_stall_cycles += cycles
        else:
            self.stats.data_stall_cycles += cycles

    # --------------------------------------------------------- quiescence
    @property
    def quiescent(self) -> bool:
        """True at a squash-free, exception-free cycle boundary.

        This is the snapshot contract (see :mod:`repro.checkpoint`): the
        squash FSM is back in NORMAL, nothing in flight is squashed, no
        memory-system stall is being serviced, no halt or interrupt-hold
        window is open.  At such a boundary the five stage latches, the
        PC unit and the FSMs fully determine the next cycle, so a machine
        restored from this state replays the future bit-identically.  A
        halted machine is trivially quiescent.
        """
        if self.halted:
            return True
        if self.squash_fsm.state is not SquashState.NORMAL:
            return False
        if self._stall_left or self.miss_fsm.stalled:
            return False
        if self._halting or self._irq_hold:
            return False
        return not any(flight is not None and flight.squashed
                       for flight in self.s)

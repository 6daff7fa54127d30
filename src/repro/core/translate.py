"""Translated fast path: hot inner loops compiled to Python closures.

The interpretive pipeline dispatches every instruction of every cycle
through the full stage machinery.  For the loops that dominate simulated
time this re-derives the same facts -- decode results, bypass routing,
stall-free Icache hits, per-cycle stat increments -- millions of times.
This module is the MIPS-X *reorganizer* philosophy applied to the
simulator itself: move the per-cycle complexity into a one-time software
precomputation and keep the hot path trivial.

**What gets translated.**  Three block shapes, tried in order when a
fetch-discontinuity target gets hot:

* a *straight taken-branch loop*: a contiguous run ``head .. head+N-1``
  whose instruction at ``head+N-3`` is a conditional branch back to
  ``head`` (so its two delay slots are the last two words of the
  block).  While such a loop iterates, the five-stage pipeline is in a
  perfectly periodic regime -- every fetch hits the same Icache lines,
  every bypass resolves the same way, the PC chain and latches cycle
  through the same N states.  The compiler proves the periodic schedule
  once and emits one specialized Python function that replays whole
  iterations, touching only architectural state;
* a *phase-rotated loop*: the same periodic regime entered mid-body (a
  hot branch target that lands after the loop's seam); the PC table
  carries one wrap and the per-cycle formulas rotate with it;
* a *linear one-pass block*: a straight-line run entered at any hot
  fetch discontinuity.  The four in-flight predecessors observed in
  the stage latches at compile time -- their PCs, squash pattern, and
  branch or jump outcomes -- become the entry contract; the body
  extends to the first backward branch or ``jspci`` plus its two delay
  slots, and the periodic emission machinery degenerates to the
  non-wrapping case.  Linear blocks cover the code between loops: a
  loop's fall-through exit lands on a linear block whose bottom branch
  enters the next loop, and a call or return leaves one linear block
  for the next at the jump's target, so recursive code stays
  translated too.  A head reached along several paths sees a different
  prologue on each -- a callee's head from each call site, a loop's
  head on its first pass -- so it keeps up to :data:`ENTRY_VARIANTS`
  blocks, one entry contract per observed arrival.

**Linked exits.**  Most activations start on the very cycle the
previous block left, at the exit site's fetch PC.  The first time an
exit site is taken, it is *linked* to the block at its target if the
site's end-of-cycle constants -- latch PCs, squash pattern, branch
outcomes, resolved memory ops, squash FSM state -- meet one of that
block's entry contracts; deciding this once is what makes it cheap.
A linked exit still applies its counters and register commits, but
instead of building latches it hands the successor its prologue seeds
(the latched results and addresses) straight from the block's locals,
after only the dynamic guards: the budget against the device alarm,
the ``dirty`` flag, the interrupt, hold and shift state, and the
successor's entry-segment residency.  :meth:`Translator.try_enter`
runs a whole chain as a trampoline loop, so the Python stack stays
flat; the latches, PC chain and fetch PC are materialized once, by
the exit site that leaves the chain.  Dropping a block (a store into
its words, or eviction) unlinks every exit linked to it.

**Exactness contract.**  Translated execution is cycle-exact and
bit-identical to the interpretive pipeline: identical
:class:`~repro.core.pipeline.PipelineStats`, register file, memory,
MD/PSW, Icache and Ecache statistics and LRU state, and identical
pipeline latches at every entry/exit boundary.  Anything the closure
cannot reproduce exactly is either *refused at compile time* (``jpc``,
``jpcrs``, ``trap`` and ``halt``; ``movtos`` to any special register
but MD, and any ``movtos`` in user mode, where it traps; a ``jspci``
inside a loop; a branch or jump in a terminator's delay slots or still
unresolved in a linear prologue; coprocessor ops, special-PC reads,
unbypassable load-use hazards), *guarded at entry* (wrong mode,
pending interrupts, trace/fault hooks, squash FSM not quiescent, trap
on overflow set under an add/sub/mstep, an Ecache forced-miss storm
armed, entry-segment Icache lines not resident) or *bailed out
mid-block at a cycle boundary* (MMIO access, store into a translated
region, fetch into a cold segment).

Loads and stores probe the Ecache inline, in statements
:meth:`repro.ecache.Ecache.probe_code` writes for the block: the cache
owns its mapping, tag format and allocate policy, and the block only
splices them in.

**Exit sites are data.**  Every activation leaves through one exit
site (bail, side, iexit, exit, ltaken, jump or canonical; see
``emit_site`` in :func:`_generate`), which the generated code reaches
as one call, ``EX(X[k], it, pen, ws, vals)``.  The constants of site
``k`` -- counter deltas, latches, register commits, PC chain, fetch
PC, squash pulse -- are computed once at compile time into an
:class:`_ExitSite`, and the shared :func:`_exit` applies it: the
machine is left in exactly the state the interpreter would have
reached, so it resumes seamlessly -- or, at a linked site, the chain
goes on (see above).

Store invalidation rides the same ``memory.write_listeners`` path that
already invalidates decode memos: the pipeline's store listener feeds
:meth:`Translator.note_store`, which kills any block whose words are
overwritten (self-modifying code) and raises the ``dirty`` flag that
running closures poll after every store cycle.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.control import SquashState
from repro.core.pipeline import Flight
from repro.core.psw import PswBit
from repro.isa.opcodes import Funct, Opcode, SpecialReg

_NORMAL = SquashState.NORMAL
_BRANCH_SQUASH = SquashState.BRANCH_SQUASH
# PSW bits a link tests on the raw value
_TE = 1 << PswBit.TE
_SHIFT_EN = 1 << PswBit.SHIFT_EN

#: Longest run of words the block scanner will walk before giving up.
MAX_BLOCK_WORDS = 64

#: Entry contracts one call or return landing may hold: a callee's head
#: arrives with a different prologue from each call site.
ENTRY_VARIANTS = 4

#: A latch no stage has written: its fields are a link's seed defaults.
_BLANK = Flight(0, None)

#: Compute functs the translator can inline (everything here is a pure
#: register-to-register operation with no control or special-state side
#: effects besides MD, which is modelled; ``movtos`` only to MD).
_INLINE_FUNCTS = frozenset({
    Funct.ADD, Funct.SUB, Funct.AND, Funct.OR, Funct.XOR, Funct.NOT,
    Funct.SLL, Funct.SRL, Funct.SRA, Funct.ROTL,
    Funct.MSTEP, Funct.DSTEP, Funct.MOVFRS, Funct.MOVTOS,
})

#: Special registers a ``movfrs`` may read inside a block.  PC1..PC3
#: would need the chain maintained per cycle, so they refuse the block.
_INLINE_SPECIALS = frozenset({SpecialReg.PSW, SpecialReg.PSWOLD,
                              SpecialReg.MD})

_BRANCH_EXPR = {
    Opcode.BEQ: ("==", False),
    Opcode.BNE: ("!=", False),
    Opcode.BLT: ("<", True),
    Opcode.BLE: ("<=", True),
    Opcode.BGT: (">", True),
    Opcode.BGE: (">=", True),
}

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: Block shapes, in the order the compiler tries them.  Linear blocks
#: are split by terminator: a backward branch or a ``jspci``.
SHAPES = ("straight", "rotated", "linear/branch", "linear/jspci")


@dataclasses.dataclass
class TranslateStats:
    """Counters for the translated fast path (``core.translate.*``)."""

    compiled: int = 0        #: blocks successfully translated
    rejected: int = 0        #: hot heads refused by the compiler
    entries: int = 0         #: closure activations (guards all passed)
    entry_rejected: int = 0  #: lookups that hit a block but failed a guard
    cycles: int = 0          #: machine cycles executed by closures
    instructions: int = 0    #: instructions retired by closures
    bails: int = 0           #: mid-block exits (MMIO / dirty / cold segment)
    side_exits: int = 0      #: mid-block exits via a taken side branch
    invalidations: int = 0   #: blocks killed by stores into their words
    evictions: int = 0       #: blocks evicted by the admission bound
    #: entries through a linked exit (also counted in ``entries``).
    #: Not telemetry, like ``shapes``.
    links: int = 0
    #: per :data:`SHAPES` entry: [blocks compiled, entries, cycles].
    #: Not telemetry: every snapshot carries the same catalog names, so
    #: these stay out of :meth:`as_metrics`.
    shapes: Dict[str, List[int]] = dataclasses.field(
        default_factory=lambda: {shape: [0, 0, 0] for shape in SHAPES})

    def as_metrics(self) -> Dict[str, int]:
        """Counter values under canonical telemetry catalog names."""
        return {
            "core.translate.blocks.compiled": self.compiled,
            "core.translate.blocks.rejected": self.rejected,
            "core.translate.blocks.invalidated": self.invalidations,
            "core.translate.blocks.evicted": self.evictions,
            "core.translate.entries.taken": self.entries,
            "core.translate.entries.rejected": self.entry_rejected,
            "core.translate.cycles": self.cycles,
            "core.translate.instructions": self.instructions,
            "core.translate.bails": self.bails,
            "core.translate.side_exits": self.side_exits,
        }


class TranslatedBlock:
    """One compiled block: its closure plus the entry contract
    :meth:`Translator.try_enter` checks before running it."""

    __slots__ = ("head", "mode", "n", "instrs", "fn", "needs_no_ovf",
                 "max_pass", "pcs", "linear", "shape", "contract",
                 "taken_checks", "mem_checks", "fsm_state", "probes",
                 "n_segs", "counts", "last_used", "seeds", "sites",
                 "variants", "varies", "misses", "incoming")

    def __init__(self, head: int, mode: bool, instrs: tuple, pcs: tuple,
                 fn, needs_no_ovf: bool, max_pass: int, shape: str,
                 contract: tuple, taken_checks: tuple, mem_checks: tuple,
                 fsm_squash: bool, probes: tuple, n_segs: int,
                 counts: list, seeds: tuple, sites: tuple):
        self.head = head
        self.mode = mode
        self.n = len(instrs)
        self.instrs = instrs
        #: absolute fetch PC per index.  Straight blocks are contiguous
        #: (``head .. head+n-1``); rotated blocks have one seam where
        #: the original loop branch redirects back over the entry; a
        #: linear block's indices 0..3 are its prologue.
        self.pcs = pcs
        self.fn = fn
        self.needs_no_ovf = needs_no_ovf
        self.max_pass = max_pass
        #: one of :data:`SHAPES`
        self.shape = shape
        #: one-pass straight-line block: indices 0..3 are the four
        #: *prologue* instructions preceding the entry PC (in the
        #: latches at entry), indices 4.. are the fetched body, and the
        #: body ends at a backward branch or a ``jspci`` plus its two
        #: delay slots.
        self.linear = shape.startswith("linear")
        #: ((latch, pc, squashed, record), ...): the four flights the
        #: latches must hold at entry -- a loop's last four
        #: instructions, a linear block's observed prologue -- latch 2,
        #: the branch or jump that redirected here, first
        self.contract = contract
        #: ((latch, taken), ...): resolved branch outcomes baked into
        #: the exit sites' flights (a loop branch was taken; a linear
        #: prologue branch went the observed way)
        self.taken_checks = taken_checks
        #: ((latch, resolved), ...): a memory op at MEM whose access
        #: must already have run (True), or that the first in-block
        #: cycle runs against backing storage, below MMIO (False)
        self.mem_checks = mem_checks
        #: squash FSM state at entry: BRANCH_SQUASH when the linear
        #: prologue's index 1 is an active squashing branch that
        #: resolved not taken one cycle before entry (the closure
        #: emits the clear on its first cycle)
        self.fsm_state = _BRANCH_SQUASH if fsm_squash else _NORMAL
        #: ((set_index, tag, entry_words, ((segment, words), ...)), ...)
        #: per Icache line the block fetches, in fetch order; see
        #: :func:`_probes`
        self.probes = probes
        self.n_segs = n_segs
        #: this shape's [compiled, entries, cycles] in TranslateStats
        self.counts = counts
        self.last_used = 0
        #: ((latch, field), ...): the latched values the closure's
        #: ``sd`` argument carries, read from the latches on a
        #: :meth:`Translator.try_enter`, handed over by a linked exit
        self.seeds = seeds
        #: this block's exit sites (:class:`_ExitSite`), in ``EX`` order
        self.sites = sites
        #: the head's entry variants, shared by all of them; the first
        #: is the one in :attr:`Translator.blocks`
        self.variants = [self]
        #: the head may still gain entry variants
        self.varies = True
        #: arrivals no variant's contract covered, since the last compile
        self.misses = 0
        #: ``_ExitSite.links`` dicts that may link to this block, by id
        self.incoming: Dict[int, dict] = {}


def _probes(lines: tuple, n: int, sides: tuple) -> tuple:
    """Split each Icache line's word offsets by fetch segment.

    ``lines`` holds ``(set_index, tag, word_offsets)`` per line in
    fetch order.  The entry segment holds the words fetched
    unconditionally from a canonical entry (up to and including the
    first side branch's second delay slot); segment ``k >= 0`` holds
    the words only fetched once side branch ``k`` has resolved not
    taken.  ``try_enter`` must prove the entry segment resident, while
    later segments degrade to per-side ``seg_ok`` flags the closure
    checks at that side's fall-through -- a word in a never-taken path
    may simply never have been fetched, and must not block entry.
    """
    seg_of = [-1] * n
    for ordinal, i in enumerate(sides):
        for w in range(i + 3, n):
            seg_of[w] = ordinal
    out = []
    pos = 0
    for index, tag, words in lines:
        entry: List[int] = []
        later: List[Tuple[int, List[int]]] = []
        for offset, word in enumerate(words):
            seg_id = seg_of[pos + offset]
            if seg_id < 0:
                entry.append(word)
            elif later and later[-1][0] == seg_id:
                later[-1][1].append(word)
            else:
                later.append((seg_id, [word]))
        out.append((index, tag, tuple(entry),
                    tuple((seg_id, tuple(ws)) for seg_id, ws in later)))
        pos += len(words)
    return tuple(out)


class Translator:
    """Per-pipeline translation cache, hot-loop detector, and compiler."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        config = pipeline.config
        self.threshold = max(2, config.jit_threshold)
        self.max_blocks = max(1, config.jit_max_blocks)
        self.stats = TranslateStats()
        #: head -> TranslatedBlock, bounded by ``max_blocks`` (LRU).
        self.blocks: Dict[int, TranslatedBlock] = {}
        #: taken-branch-target counts awaiting the threshold.
        self._counts: Dict[int, int] = {}
        #: heads the compiler refused; never re-scanned until cleared.
        self.dead: set = set()
        #: word address -> [heads] per mode, shared invalidation index.
        self._word_heads: Tuple[dict, dict] = ({}, {})
        #: raised by :meth:`note_store` when a store lands in any
        #: translated region; polled by running closures after every
        #: store cycle, cleared on entry.
        self.dirty = False
        self._clock = 0
        #: bumped whenever a block is compiled: an exit site retries a
        #: failed link only once the cache has changed
        self.generation = 0
        #: the running chain's cycle limit (budget plus current cycle)
        self._limit = 0
        #: block -> (ways, seg_ok) proven resident in the running chain
        self._proven: Dict[TranslatedBlock, tuple] = {}
        #: bounded span log for the Perfetto "Translated blocks" track;
        #: populated only while ``record_spans`` is on.
        self.record_spans = False
        self.spans: List[dict] = []
        #: wall seconds spent inside :meth:`_compile` (bench telemetry;
        #: not a machine-state quantity, never part of equivalence)
        self.compile_s = 0.0

    # ------------------------------------------------------------ support
    @staticmethod
    def supports(config: MachineConfig) -> bool:
        """Machine shapes the translator can reproduce exactly.

        Two-delay-slot machines only (the 1-slot alternative resolves
        branches in RF), with either a real Icache (in-block fetches are
        proven resident, so they are exact zero-stall hits) or fully
        ideal memory (every fetch and data access is free).
        """
        if config.branch_delay_slots != 2:
            return False
        if config.icache.enabled:
            return True
        return config.icache.miss_cycles == 0 and not config.ecache.enabled

    # ------------------------------------------------------- invalidation
    def note_store(self, address: int, system_mode: bool) -> None:
        """A store committed at ``address``: kill overlapping blocks.

        Driven by the pipeline's single store listener (the same O(1)
        word-address index that invalidates decode memos).  Any running
        closure sees ``dirty`` and bails at the end of the store's MEM
        cycle, before the next fetch could observe the new word.
        """
        heads = self._word_heads[1 if system_mode else 0].get(address)
        if heads:
            self.dirty = True
            for head in list(heads):
                self.invalidate(head)

    def invalidate(self, head: int) -> None:
        """Drop the blocks at one head (every entry variant)."""
        self.stats.invalidations += self._drop(head)

    def _drop(self, head: int) -> int:
        """Remove a head's blocks from the cache and the invalidation
        index, and unlink every exit linked to them; returns how many."""
        block = self.blocks.pop(head, None)
        if block is None:
            return 0
        for variant in block.variants:
            index = self._word_heads[1 if variant.mode else 0]
            for address in variant.pcs:
                entry = index.get(address)
                if entry is not None:
                    if head in entry:
                        entry.remove(head)
                    if not entry:
                        del index[address]
            for links in variant.incoming.values():
                links.pop(head, None)
            # Unlink this variant's own exits too, so a long-lived
            # target's incoming table stays bounded by the cache.
            for site in variant.sites:
                for target, _, _ in (site.links or {}).values():
                    target.incoming.pop(id(site.links), None)
        return len(block.variants)

    def clear(self) -> None:
        """Forget everything (called on :meth:`Pipeline.reset`: a fresh
        program image is loaded without firing store listeners)."""
        self.blocks.clear()
        self._counts.clear()
        self.dead.clear()
        self._word_heads[0].clear()
        self._word_heads[1].clear()
        self.dirty = False

    # ---------------------------------------------------------- discovery
    def note_target(self, pc: int) -> None:
        """Count a fetch discontinuity landing on ``pc``; compile at the
        threshold.  Untranslatable heads go to the dead set so the
        scanner never re-walks them."""
        counts = self._counts
        count = counts.get(pc, 0) + 1
        if count < self.threshold:
            if len(counts) >= 4096:
                counts.clear()
            counts[pc] = count
            return
        counts.pop(pc, None)
        block = self._compile_timed(pc)
        if block is None:
            if len(self.dead) >= 65536:
                self.dead.clear()
            self.dead.add(pc)
            return
        if len(self.blocks) >= self.max_blocks:
            victim = min(self.blocks.values(), key=lambda b: max(
                v.last_used for v in b.variants))
            self.stats.evictions += self._drop(victim.head)
        self.blocks[pc] = block
        self._index(block)

    def _compile_timed(self, head: int, linear_only: bool = False
                       ) -> Optional[TranslatedBlock]:
        """:meth:`_compile`, timed into ``compile_s`` and counted when
        refused."""
        started = time.perf_counter()
        block = self._compile(head, linear_only)
        self.compile_s += time.perf_counter() - started
        if block is None:
            self.stats.rejected += 1
        return block

    def _index(self, block: TranslatedBlock) -> None:
        """Count a newly compiled block and index its words."""
        self.stats.compiled += 1
        block.counts[0] += 1
        self.generation += 1
        self._clock += 1
        block.last_used = self._clock
        index = self._word_heads[1 if block.mode else 0]
        for address in block.pcs:
            index.setdefault(address, []).append(block.head)

    def _vary(self, block: TranslatedBlock) -> Optional[TranslatedBlock]:
        """An arrival none of a head's contracts covers: the threshold-th
        such arrival compiles one more entry variant, a linear block
        from the live latches, up to :data:`ENTRY_VARIANTS` per head; a
        refused compile stops the head varying."""
        variants = block.variants
        primary = variants[0]
        if not primary.varies or len(variants) >= ENTRY_VARIANTS:
            return None
        primary.misses += 1
        if primary.misses < self.threshold:
            return None
        primary.misses = 0
        variant = self._compile_timed(primary.head, linear_only=True)
        if variant is None:
            primary.varies = False
            return None
        variant.variants = variants
        variants.append(variant)
        self._index(variant)
        return variant

    # -------------------------------------------------------------- entry
    def try_enter(self, block: TranslatedBlock, max_cycles: int) -> bool:
        """Run the block's closure if every entry guard holds, and then
        every block its exits link into.

        The canonical entry point is the cycle boundary at which the
        loop branch has just been resolved taken: the latches hold the
        block's last four instructions at known stage ages and the fetch
        PC is back at ``head``.  A linear block's latches must reproduce
        the prologue observed at compile time instead; of a head's entry
        variants, the first whose contract the latches meet runs.
        Everything the closure assumes constant is (re)checked here; the
        Icache ways backing the block are gathered for the deferred LRU
        touches.  Linked successors run from the loop at the end, one
        closure call per block, so a chain of any length keeps the
        stack flat.
        """
        pipe = self.pipeline
        stats = self.stats
        # Latches first: a head reached along a path none of its
        # variants was compiled on (a callee's other call sites) fails
        # here, at the cheapest point.
        s = pipe.s
        for variant in block.variants:
            for latch, pc, squashed, record in variant.contract:
                flight = s[latch]
                if (flight is None or flight.pc != pc
                        or flight.squashed != squashed
                        or (flight.op is not record
                            and flight.op.instr != record.instr)):
                    break
            else:
                block = variant
                break
        else:
            block = self._vary(block)
            if block is None:
                stats.entry_rejected += 1
                return False
        psw = pipe.psw
        # The dispatcher caps max_cycles at the device alarm minus one,
        # so the alarm cycle is always interpreted; the explicit check
        # keeps direct callers honest about the same window.
        limit = min(max_cycles, pipe._device_alarm - 1)
        budget = limit - pipe.stats.cycles
        if (budget < block.max_pass
                or psw.system_mode is not block.mode
                or not psw.shift_enabled
                or (block.needs_no_ovf and psw.trap_on_overflow)
                or pipe.trace is not None
                or pipe.fault_hook is not None
                or pipe._halting or pipe.halted
                or pipe._stall_left != 0
                or pipe._ready_fetch is not None
                or pipe._irq_hold != 0
                or pipe._irq_pending or pipe._nmi_pending
                or pipe.pc_unit._redirect != -1
                or pipe.squash_fsm.state is not block.fsm_state
                or pipe.memory.mmu.enabled
                or pipe.ecache.fault_forced_misses):
            stats.entry_rejected += 1
            return False
        for latch, taken in block.taken_checks:
            if s[latch].taken != taken:
                stats.entry_rejected += 1
                return False
        # A memory op at index 1 of a linear prologue runs its MEM stage
        # on the first in-block cycle, against backing storage, so it
        # must still be pending and must not touch MMIO space.
        for latch, resolved in block.mem_checks:
            flight = s[latch]
            if flight.mem_resolved != resolved or (
                    not resolved
                    and flight.mem_address >= pipe.config.mmio_base):
                stats.entry_rejected += 1
                return False
        resident = self._resident(block)
        if resident is None:
            stats.entry_rejected += 1
            return False
        self._limit = limit
        self._proven = {block: resident}
        self.dirty = False
        nxt = (block, budget, resident[0], resident[1],
               tuple([getattr(s[latch], field)
                      for latch, field in block.seeds]))
        while nxt is not None:
            block, budget, ways, seg_ok, seeds = nxt
            stats.entries += 1
            block.counts[1] += 1
            self._clock += 1
            block.last_used = self._clock
            if self.record_spans:
                start = pipe.stats.cycles
                before = stats.cycles
                nxt = block.fn(budget, ways, seg_ok, seeds)
                if len(self.spans) < 65536:
                    self.spans.append({
                        "head": block.head, "n": block.n,
                        "start_cycle": start,
                        "end_cycle": pipe.stats.cycles,
                        "cycles": stats.cycles - before,
                    })
            else:
                nxt = block.fn(budget, ways, seg_ok, seeds)
        return True

    def _resident(self, block: TranslatedBlock):
        """``(ways, seg_ok)`` for the block's Icache lines, or ``None``
        when an entry-segment word is not resident.

        The entry segment (words fetched before the first side branch
        could redirect) must be fully resident -- those fetches are
        unconditional.  Words beyond a side branch degrade to per-side
        ``seg_ok`` flags: the closure bails at that side's fall-through,
        before the first fetch that could miss, and the interpreter
        takes the miss with its exact stall timing.
        """
        ways: List[Tuple[int, int]] = []
        seg_ok: List[bool] = [True] * block.n_segs
        if block.probes:
            residency = self.pipeline.icache.residency
            for index, tag, entry_words, later in block.probes:
                hit = residency(index, tag)
                if hit is None:
                    if entry_words:
                        return None
                    for seg_id, _words in later:
                        seg_ok[seg_id] = False
                    # cold line: never touched (the pass bails before
                    # its first word's fetch cycle)
                    ways.append((index, 0))
                    continue
                way, valid = hit
                for word in entry_words:
                    if not valid[word]:
                        return None
                for seg_id, words in later:
                    for word in words:
                        if not valid[word]:
                            seg_ok[seg_id] = False
                            break
                ways.append((index, way))
        return ways, seg_ok

    # ------------------------------------------------------------ linking
    def _link(self, site: "_ExitSite", target: int):
        """Link exit ``site`` to the block at ``target`` if the site's
        end state meets one of the head's entry contracts (see
        :func:`_meets`); remember a failure until a block is next
        compiled.  Returns the link or ``None``."""
        head = self.blocks.get(target)
        if head is not None:
            mmio_base = self.pipeline.config.mmio_base
            for block in head.variants:
                link = _meets(site, block, mmio_base)
                if link is not None:
                    site.links[target] = link
                    block.incoming[id(site.links)] = site.links
                    return link
        site.tried[target] = self.generation
        return None

    def _follow(self, link: tuple, vals: tuple):
        """The next activation along ``link`` -- ``(block, budget, ways,
        seg_ok, seeds)`` -- if the dynamic entry guards hold, else
        ``None``.  Everything else :meth:`try_enter` checks is constant
        along a chain or was decided when the link was made."""
        block, seeds, mmio = link
        pipe = self.pipeline
        psw = pipe.psw.value
        budget = self._limit - pipe.stats.cycles
        if (budget < block.max_pass or self.dirty
                or pipe._irq_hold != 0
                or pipe._irq_pending or pipe._nmi_pending
                or not psw & _SHIFT_EN
                or (block.needs_no_ovf and psw & _TE)):
            return None
        for slot in mmio:
            if vals[slot] >= pipe.config.mmio_base:
                return None
        # Nothing fills the Icache while a chain runs, so a block's
        # residency holds for the rest of the chain once proven.
        resident = self._proven.get(block)
        if resident is None:
            resident = self._resident(block)
            if resident is None:
                return None
            self._proven[block] = resident
        self.stats.links += 1
        return (block, budget, resident[0], resident[1],
                tuple([vals[slot] if slot >= 0 else value
                       for slot, value in seeds]))

    # ----------------------------------------------------------- compiler
    def _compile(self, head: int,
                 linear_only: bool = False) -> Optional[TranslatedBlock]:
        """Scan, prove and code-generate the loop at ``head``, or with
        ``linear_only`` the linear block from the live prologue (an
        entry variant); ``None`` refuses the head (any construct outside
        the exact-translation subset)."""
        pipe = self.pipeline
        config = pipe.config
        mode = pipe.psw.system_mode
        if head + MAX_BLOCK_WORDS + 3 >= config.mmio_base:
            return None
        linear = False
        entry_sq: tuple = ()
        entry_taken: tuple = ()
        straight = None if linear_only else self._scan(head, mode)
        if straight is not None:
            instrs, n = straight
            pcs = tuple(range(head, head + n))
            inv_sides: frozenset = frozenset()
            shape = "straight"
        else:
            rotated = (None if linear_only
                       else self._scan_rotated(head, mode))
            if rotated is not None:
                instrs, pcs, inv_sides = rotated
                n = len(instrs)
                shape = "rotated"
            else:
                lshape = self._scan_linear(head, mode)
                if lshape is None:
                    return None
                instrs, pcs, entry_sq, entry_taken = lshape
                n = len(instrs)
                inv_sides = frozenset()
                linear = True
                shape = ("linear/jspci" if instrs[n - 3].opcode == Opcode.JSPCI
                         else "linear/branch")
        # Squashing side branches annul their two delay slots on every
        # continuing pass (continuing means not taken, the wrong way for
        # a squash-filled branch).  ``sq_owner`` maps each annulled slot
        # index to its branch.  An annulled branch never resolves, so it
        # annuls nothing itself; increasing order makes that causal.
        # Slots may not reach the loop branch at n-3, and the FSM must
        # be back to NORMAL before the pass boundary: i <= n-6.
        # Inverted sides (rotated blocks) continue on *taken* -- the
        # right way -- so their slots execute and are never annulled.
        # A linear block's prologue carries its own observed annulment
        # pattern (owner -10: squashed before entry, stays squashed).
        sq_owner: Dict[int, int] = {}
        if linear:
            for i, squashed in enumerate(entry_sq):
                if squashed:
                    sq_owner[i] = -10
        for i in range(4 if linear else 0, n - 3):
            if (instrs[i].opcode in _BRANCH_EXPR and instrs[i].squash
                    and i not in sq_owner and i not in inv_sides):
                if i > n - 6:
                    return None
                sq_owner[i + 1] = i
                sq_owner[i + 2] = i
        sources = self._resolve_operands(instrs, n, sq_owner, linear)
        if sources is None:
            return None
        sides = tuple(i for i in range(4 if linear else 0, n - 3)
                      if instrs[i].opcode in _BRANCH_EXPR
                      and i not in sq_owner)
        records = tuple(pipe._decode_at(pc, mode) for pc in pcs)
        if linear:
            # only the body (indices 4..) is fetched during the pass
            lines = self._icache_lines(pcs[4:], mode)
            probes = _probes(lines, n - 4, tuple(i - 4 for i in sides))
            # the prologue as observed; index 0's memory access ran
            # before entry, index 1's runs on the first in-block cycle
            contract = tuple((latch, pcs[3 - latch], entry_sq[3 - latch],
                              records[3 - latch]) for latch in (2, 3, 1, 0))
            taken_checks = tuple(
                (3 - idx, entry_taken[idx]) for idx in (0, 1)
                if not entry_sq[idx] and instrs[idx].opcode in _BRANCH_EXPR)
            mem_checks = tuple(
                (3 - idx, idx == 0) for idx in (0, 1)
                if not entry_sq[idx] and instrs[idx].is_memory_access)
            fsm_squash = (instrs[1].opcode in _BRANCH_EXPR
                          and instrs[1].squash and not entry_sq[1]
                          and not entry_taken[1])
        else:
            lines = self._icache_lines(pcs, mode)
            probes = _probes(lines, n, sides)
            # the loop branch just resolved taken; an annulled slot at
            # n-4 must sit squashed in s[3], else its access has run
            slot3_squashed = (n - 4) in sq_owner
            contract = tuple((latch, pcs[n - 1 - latch],
                              latch == 3 and slot3_squashed,
                              records[n - 1 - latch])
                             for latch in (2, 3, 1, 0))
            taken_checks = ((2, True),)
            mem_checks = (((3, True),) if not slot3_squashed
                          and instrs[n - 4].is_memory_access else ())
            fsm_squash = False
        source_text, needs_no_ovf, max_pass, sites, seeds = _generate(
            self, head, mode, instrs, n, sources, lines, sq_owner,
            pcs, records, inv_sides, shape, entry_taken)
        namespace = _exec_namespace(self, mode, sites)
        code = compile(source_text, f"<translated block {head:#x}>", "exec")
        exec(code, namespace)  # noqa: S102 - self-generated source
        return TranslatedBlock(head, mode, instrs, pcs, namespace["_block"],
                               needs_no_ovf, max_pass, shape, contract,
                               taken_checks, mem_checks, fsm_squash,
                               probes, len(sides), self.stats.shapes[shape],
                               seeds, sites)

    def _instr_at(self, pc: int, mode: bool):
        """The architectural instruction the interpreter would fetch."""
        return self.pipeline._decode_at(pc, mode).instr

    def _scan(self, head: int, mode: bool):
        """Find the backward branch and whitelist every instruction.

        Conditional branches *within* the run are admitted as side
        exits: taken means an exact mid-pass exit to their target, not
        taken falls through.  A *squashing* side branch is also exact,
        because a pass only continues past it when it resolved not
        taken -- the wrong way for a squash-filled branch -- so its two
        delay slots are annulled on every continuing pass and compile
        to squashed no-op flights (see ``sq_owner`` in the generator).
        The loop branch's own delay slots still refuse branches -- a
        branch there resolves after the pass boundary.
        """
        pipe = self.pipeline
        decode_at = self._instr_at
        instrs = []
        branch_at = -1
        for k in range(MAX_BLOCK_WORDS + 1):
            instr = decode_at(head + k, mode)
            if instr.opcode in _BRANCH_EXPR:
                target = (head + k + instr.imm) & _MASK
                if target == head and k >= 1:
                    branch_at = k
                    instrs.append(instr)
                    break
                instrs.append(instr)  # side exit
                continue
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
        else:
            return None
        for k in (branch_at + 1, branch_at + 2):  # the two delay slots
            instr = decode_at(head + k, mode)
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
        return tuple(instrs), branch_at + 3

    def _scan_rotated(self, entry: int, mode: bool):
        """Recognize a *phase-rotated* loop entered at ``entry``.

        A hot side-branch target ``entry`` inside a straight loop
        ``h .. h+N-1`` traces its own periodic cycle: ``entry ..`` tail,
        loop branch taken back to ``h``, head run to a side branch whose
        target is ``entry``, taken back to ``entry``.  In that rotated
        frame the side branch *is* the loop branch (backward to the
        rotated head) and the original loop branch is a polarity-
        inverted side: the pass continues when it is *taken* (the right
        way, so its slots execute and nothing squashes) and exits when
        it falls through.  The instruction sequence is two contiguous
        PC spans with one seam; everything else -- bypass proof, latch
        schedule, stats -- is the same periodic machinery.

        Returns ``(instrs, pcs, inv_sides)`` or ``None``.
        """
        decode_at = self._instr_at
        instrs: List = []
        pcs: List[int] = []
        loop_at = -1
        loop_target = -1
        for k in range(MAX_BLOCK_WORDS + 1):
            instr = decode_at(entry + k, mode)
            if instr.opcode in _BRANCH_EXPR:
                target = (entry + k + instr.imm) & _MASK
                if target < entry:   # the original loop branch
                    loop_at = k
                    loop_target = target
                    instrs.append(instr)
                    pcs.append(entry + k)
                    break
                instrs.append(instr)  # side exit (any other target)
                pcs.append(entry + k)
                continue
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(entry + k)
        else:
            return None
        for k in (loop_at + 1, loop_at + 2):  # its two delay slots
            instr = decode_at(entry + k, mode)
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(entry + k)
        inv_idx = loop_at
        # head run: loop_target .. the side branch taken back to entry,
        # plus that branch's two delay slots -- all strictly below entry
        h = loop_target
        k2 = 0
        while h + k2 + 2 < entry and len(instrs) < MAX_BLOCK_WORDS + 3:
            pc = h + k2
            instr = decode_at(pc, mode)
            if instr.opcode in _BRANCH_EXPR:
                target = (pc + instr.imm) & _MASK
                if target == entry:   # the rotated loop branch
                    instrs.append(instr)
                    pcs.append(pc)
                    for spc in (pc + 1, pc + 2):
                        slot = decode_at(spc, mode)
                        if not _translatable(slot, mode):
                            return None
                        instrs.append(slot)
                        pcs.append(spc)
                    if len(instrs) > MAX_BLOCK_WORDS + 3:
                        return None
                    return tuple(instrs), tuple(pcs), frozenset({inv_idx})
                if target <= pc:
                    return None   # unrelated backward branch: refuse
                instrs.append(instr)  # side exit
                pcs.append(pc)
                k2 += 1
                continue
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(pc)
            k2 += 1
        return None

    def _scan_linear(self, entry: int, mode: bool):
        """Recognize a hot *straight-line run*: ``entry`` is a fetch
        discontinuity target (a block's fall-through exit, a taken
        branch's landing, a callee's head or a return landing) whose
        body runs forward to the first backward branch or ``jspci``
        plus its two delay slots.  The block executes exactly one pass
        per entry and then redirects wherever the bottom branch decides,
        or to the jump's target -- chaining into the blocks on either
        side, through calls and returns.

        The four in-flight predecessors observed in the latches *right
        now* (``note_target`` compiles at a live arrival) become the
        *prologue*, indices 0..3: their PCs, squash pattern and branch
        outcomes are baked into the entry contract, their writebacks --
        and, for index 1, the MEM stage -- retire during the first pass
        cycles, and their results seed the body's bypass proof from the
        latches.  Arrivals that do not reproduce the observed pattern
        are rejected at entry and stay interpreted; hot targets have a
        dominant arrival path, so the observed instance is the one that
        pays.  A ``jspci`` resolved before entry (index 0 or 1: a
        callee's head or a return landing) is static like a resolved
        branch: its link value is its PC plus three and its target the
        PC fetched after its delay slots.

        Returns ``(instrs, pcs, entry_sq, entry_taken)`` over the
        combined prologue+body sequence, or ``None``.
        """
        pipe = self.pipeline
        s = pipe.s
        if s[0] is None or s[1] is None or s[2] is None or s[3] is None:
            return None
        mmio_base = pipe.config.mmio_base
        decode_at = self._instr_at
        instrs: List = []
        pcs: List[int] = []
        entry_sq: List[bool] = []
        entry_taken: List[bool] = []
        for flight in (s[3], s[2], s[1], s[0]):
            pc = flight.pc
            if pc < 0 or pc + 1 >= mmio_base:
                return None
            instr = decode_at(pc, mode)
            squashed = flight.squashed
            if instr.opcode in _BRANCH_EXPR or instr.opcode == Opcode.JSPCI:
                # indices 2..3 resolve mid-pass: only annulled ones are
                # static; indices 0..1 resolved pre-entry either way
                if len(instrs) >= 2 and not squashed:
                    return None
            elif not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(pc)
            entry_sq.append(squashed)
            entry_taken.append(bool(flight.taken) and not squashed)
        bottom_at = -1
        for k in range(MAX_BLOCK_WORDS + 1):
            instr = decode_at(entry + k, mode)
            if instr.opcode in _BRANCH_EXPR:
                target = (entry + k + instr.imm) & _MASK
                if target <= entry + k:   # backward: the terminator
                    bottom_at = k
                    instrs.append(instr)
                    pcs.append(entry + k)
                    break
                instrs.append(instr)  # forward side exit
                pcs.append(entry + k)
                continue
            if instr.opcode == Opcode.JSPCI:   # a call or return
                bottom_at = k
                instrs.append(instr)
                pcs.append(entry + k)
                break
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(entry + k)
        else:
            return None
        for k in (bottom_at + 1, bottom_at + 2):  # its two delay slots
            instr = decode_at(entry + k, mode)
            if not _translatable(instr, mode):
                return None
            instrs.append(instr)
            pcs.append(entry + k)
        return (tuple(instrs), tuple(pcs),
                tuple(entry_sq), tuple(entry_taken))

    def _resolve_operands(self, instrs: tuple, n: int, sq_owner: dict,
                          linear: bool = False):
        """Static bypass routing: map every register read of every
        instruction to a producer local, a loop-invariant binding, or a
        literal zero -- or refuse on an unbypassable load-use pair.
        Annulled slots (``sq_owner`` keys) neither read nor produce:
        the interpreter's bypass skips squashed flights the same way.
        Linear blocks walk producers backward without wrapping (one
        pass, no previous iteration) and skip prologue indices 0..1 as
        consumers -- their reads resolved before entry; their latched
        results still serve as producers."""
        sources: List[dict] = []
        invariants = set()
        for idx, instr in enumerate(instrs):
            resolved = {}
            if idx in sq_owner or (linear and idx < 2):
                sources.append(resolved)
                continue
            for slot, reg in _operand_slots(instr):
                if reg == 0:
                    resolved[slot] = "0"
                    continue
                expr = None
                for distance in range(1, (idx + 1) if linear else (n + 1)):
                    p = idx - distance if linear else (idx - distance) % n
                    if p in sq_owner:
                        continue
                    if instrs[p].writes_register() == reg:
                        if distance == 1 and instrs[p].opcode == Opcode.LD:
                            return None  # load-use: interpreter territory
                        expr = f"v{p}"
                        break
                if expr is None:
                    expr = f"rr{reg}"
                    invariants.add(reg)
                resolved[slot] = expr
            sources.append(resolved)
        return sources, invariants

    def _icache_lines(self, pcs: tuple, mode: bool) -> tuple:
        """The (set, tag, word-offsets) triples the block's fetches span,
        in fetch order, for entry-time residency probes and deferred
        LRU touches.  A rotated block's seam may split (or even repeat)
        a line; repeats are harmless -- probes and touches follow fetch
        order exactly.  Empty when the Icache is disabled."""
        icache = self.pipeline.icache
        if not self.pipeline.config.icache.enabled:
            return ()
        lines: List[Tuple[int, int, List[int]]] = []
        for pc in pcs:
            index, tag, word = icache.locate(pc, mode)
            if lines and lines[-1][0] == index and lines[-1][1] == tag:
                lines[-1][2].append(word)
            else:
                lines.append((index, tag, [word]))
        return tuple((index, tag, tuple(words))
                     for index, tag, words in lines)


def _translatable(instr, system_mode: bool) -> bool:
    """Inlineable straight-line instruction (no control, no coproc) in
    ``system_mode``: a ``movtos`` writes MD, and only in system mode --
    in user mode it takes the privileged-instruction trap."""
    op = instr.opcode
    if op in (Opcode.LD, Opcode.ST, Opcode.ADDI):
        return True
    if op != Opcode.COMPUTE:
        return False
    funct = instr.funct
    if funct not in _INLINE_FUNCTS:
        return False
    if funct == Funct.MOVFRS:
        try:
            return SpecialReg(instr.shamt) in _INLINE_SPECIALS
        except ValueError:
            return False
    if funct == Funct.MOVTOS:
        return system_mode and instr.shamt == SpecialReg.MD
    return True


def _operand_slots(instr):
    """(slot_name, register) pairs the ALU stage reads for ``instr``."""
    op = instr.opcode
    if op == Opcode.COMPUTE:
        funct = instr.funct
        if funct in (Funct.SLL, Funct.SRL, Funct.SRA, Funct.ROTL,
                     Funct.NOT, Funct.MOVTOS):
            return (("a", instr.src1),)
        if funct == Funct.MOVFRS:
            return ()
        return (("a", instr.src1), ("b", instr.src2))
    if op in (Opcode.LD, Opcode.ADDI, Opcode.JSPCI):
        return (("a", instr.src1),)
    if op == Opcode.ST:
        return (("a", instr.src1), ("b", instr.src2))
    # branch
    return (("a", instr.src1), ("b", instr.src2))


def _exec_namespace(translator: Translator, mode: bool, sites: tuple) -> dict:
    """Globals for one block's generated function: everything stable
    over the pipeline's lifetime is pre-bound here, so the closure does
    no attribute walks on its hot path.  ``EX(X[k], ...)`` leaves
    through exit site ``k``; ``EX`` is whatever :func:`_exit` is when
    the block compiles, so a hook that wraps it must be in place
    before then."""
    pipe = translator.pipeline
    return {
        "__builtins__": {},
        "P": pipe,
        "ST": pipe.stats,
        "TR": translator,
        "EC": pipe.ecache,
        "MW": pipe.memory.write,
        "SP": pipe.memory.space(mode),
        "MD": pipe.md,
        "SFS": pipe.squash_fsm.step,
        "REGS": pipe.regs,
        "EX": _exit,
        "X": sites,
    }


class _ExitSite(NamedTuple):
    """One exit site's end-of-cycle machine state, computed at compile
    time, and the links made from it."""

    pipe: object
    kind: str            #: bail, side, iexit, exit, ltaken, jump, canonical
    counts: list         #: the block shape's TranslateStats.shapes row
    #: (cycles, retired, squashed, noops, branches, taken, jumps, loads,
    #: stores) per complete pass, and over this site's partial pass
    per_pass: tuple
    partial: tuple
    accesses: bool       #: Icache enabled: count its accesses
    touch_passes: int    #: LRU lines to touch if any pass completed
    touch: int           #: LRU lines to touch in any case
    #: the five latches: (pc, record, ((field, constant), ...),
    #: ((field, vals slot), ...))
    flights: tuple
    commits: tuple       #: (register, vals slot) register-file commits
    chain: tuple         #: PC chain (mem, alu, rf)
    fetch_pc: int
    fetch_slot: int      #: vals slot of a computed fetch PC, else -1
    wrong_way: bool      #: a squashing branch went the wrong way
    mode: bool           #: the block's operating mode
    #: target -> ``(block, seed sources, MMIO-checked slots)`` made by
    #: :meth:`Translator._link`; ``None`` for bail and canonical sites,
    #: which leave for the interpreter by design
    links: Optional[dict]
    #: target -> :attr:`Translator.generation` of a failed link attempt
    tried: Optional[dict]


def _meets(site: _ExitSite, block: TranslatedBlock, mmio_base: int):
    """The link from ``site`` into ``block``, or ``None``.

    Decides once what :meth:`Translator.try_enter` would check on the
    latches ``site`` materializes: the mode, the squash FSM state, the
    contract, the branch outcomes and which memory ops have resolved.
    An unresolved op's address is a constant (checked here against
    MMIO space) or a ``vals`` slot (checked at every link).  The link
    carries, per seed of ``block``, the slot or constant that latch
    field holds.
    """
    # Every squash pulse inside a block is cleared by the end of the
    # cycle after it, before any side, loop or terminator can exit, so
    # at a linkable site only the site's own wrong-way pulse is live.
    fsm = _BRANCH_SQUASH if site.wrong_way else _NORMAL
    if block.mode is not site.mode or block.fsm_state is not fsm:
        return None
    latches = [(pc, record, dict(constants), dict(slots))
               for pc, record, constants, slots in site.flights]
    for latch, pc, squashed, record in block.contract:
        fpc, frecord, constants, _ = latches[latch]
        if (fpc != pc or constants.get("squashed", False) != squashed
                or (frecord is not record
                    and frecord.instr != record.instr)):
            return None
    for latch, taken in block.taken_checks:
        if latches[latch][2].get("taken", False) != taken:
            return None
    mmio = []
    for latch, resolved in block.mem_checks:
        _, _, constants, slots = latches[latch]
        if constants.get("mem_resolved", False) != resolved:
            return None
        if not resolved:
            if "mem_address" in slots:
                mmio.append(slots["mem_address"])
            elif constants.get("mem_address", 0) >= mmio_base:
                return None
    seeds = []
    for latch, field in block.seeds:
        _, _, constants, slots = latches[latch]
        seeds.append((slots[field], None) if field in slots else
                     (-1, constants.get(field, getattr(_BLANK, field))))
    return block, tuple(seeds), tuple(mmio)


def _exit(site: _ExitSite, it: int, pen: int, ws: list, vals: tuple):
    """Leave a block through ``site``: apply ``it`` complete passes and
    the site's partial pass (``pen`` Ecache stall cycles among them) to
    every counter, and the register commits and squash FSM pulse.  Then
    either continue along a link -- returning the next activation for
    the :meth:`Translator.try_enter` loop -- or materialize the latches,
    PC chain and fetch PC the interpreter would have reached and return
    ``None``.  ``vals`` holds the live block locals the site's slots
    index."""
    pipe = site.pipe
    stats = pipe.stats
    (cycles, retired, squashed, noops, branches, taken, jumps, loads,
     stores) = ([it * p + q for p, q in zip(site.per_pass, site.partial)]
                if it else site.partial)
    stats.cycles += cycles + pen
    stats.fetched += cycles
    stats.retired += retired
    stats.squashed += squashed
    stats.noops += noops
    stats.branches += branches
    stats.branches_taken += taken
    stats.jumps += jumps
    stats.loads += loads
    stats.stores += stores
    stats.data_stall_cycles += pen
    if pen:
        # the last stall was a late data miss, as after interpretation
        pipe._stall_is_icache = False
    translator = pipe._translator
    tstats = translator.stats
    tstats.cycles += cycles + pen
    tstats.instructions += retired
    tstats.bails += site.kind == "bail"
    tstats.side_exits += site.kind == "side"
    site.counts[2] += cycles + pen
    icache = pipe.icache
    if site.accesses:
        icache.stats.accesses += cycles
    # deferred Icache LRU reordering
    if it and site.touch_passes:
        icache.bulk_touch(ws, site.touch_passes)
    if site.touch:
        icache.bulk_touch(ws, site.touch)
    regs = pipe.regs._regs
    for reg, slot in site.commits:
        regs[reg] = vals[slot]
    if site.wrong_way:
        stats.branch_squashes += 1
        pipe.squash_fsm.step(False, True)
    fetch_pc = (site.fetch_pc if site.fetch_slot < 0
                else vals[site.fetch_slot])
    links = site.links
    if links is not None:
        link = links.get(fetch_pc)
        if link is None and site.tried.get(fetch_pc) != translator.generation:
            link = translator._link(site, fetch_pc)
        if link is not None:
            nxt = translator._follow(link, vals)
            if nxt is not None:
                return nxt
    _materialize(site, vals, fetch_pc)
    return None


def _materialize(site: _ExitSite, vals: tuple, fetch_pc: int) -> None:
    """Build the five latches, shift the PC chain and set the fetch PC
    as the interpreter leaves them at ``site``."""
    latches = []
    for pc, record, constants, slots in site.flights:
        flight = Flight(pc, record)
        for field, value in constants:
            setattr(flight, field, value)
        for field, slot in slots:
            setattr(flight, field, vals[slot])
        latches.append(flight)
    pipe = site.pipe
    pipe.s = latches
    pipe.pc_unit.chain.shift(*site.chain)
    pipe.pc_unit.fetch_pc = fetch_pc


# ---------------------------------------------------------------- codegen
class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _alu_expr(instr, src: dict) -> Optional[str]:
    """Inline expression for a compute/addi result, or ``None`` when the
    operation needs statements (mstep/dstep) handled by the caller."""
    funct = instr.funct
    a = src.get("a")
    b = src.get("b")
    # r0 operands: operands are 32-bit already, so x+0, x-0, x|0, x^0
    # are x
    if funct in (Funct.ADD, Funct.SUB, Funct.OR, Funct.XOR) and b == "0":
        return a
    if funct in (Funct.ADD, Funct.OR, Funct.XOR) and a == "0":
        return b
    if funct == Funct.ADD:
        return f"({a} + {b}) & {_MASK}"
    if funct == Funct.SUB:
        return f"({a} - {b}) & {_MASK}"
    if funct == Funct.AND:
        return f"{a} & {b}"
    if funct == Funct.OR:
        return f"{a} | {b}"
    if funct == Funct.XOR:
        return f"{a} ^ {b}"
    if funct == Funct.NOT:
        return f"~{a} & {_MASK}"
    shamt = instr.shamt
    if funct == Funct.SLL:
        return f"({a} << {shamt}) & {_MASK}" if shamt else f"{a}"
    if funct == Funct.SRL:
        return f"{a} >> {shamt}" if shamt else f"{a}"
    if funct == Funct.SRA:
        if not shamt:
            return f"{a}"
        return (f"((({a} - {1 << 32}) >> {shamt}) & {_MASK}) "
                f"if {a} & {_SIGN} else ({a} >> {shamt})")
    if funct == Funct.ROTL:
        if not shamt:
            return f"{a}"
        return f"(({a} << {shamt}) | ({a} >> {32 - shamt})) & {_MASK}"
    if funct == Funct.MOVFRS:
        special = SpecialReg(instr.shamt)
        if special == SpecialReg.PSW:
            return "_psw"
        if special == SpecialReg.PSWOLD:
            return "_pswold"
        return "MD.value"
    return None


def _negate(cond: str) -> str:
    """``not cond``, decided here when ``cond`` is a known truth value."""
    return {"True": "False", "False": "True"}.get(cond, f"not ({cond})")


def _generate(translator: Translator, head: int, mode: bool, instrs: tuple,
              n: int, sources, lines: tuple, sq_owner: Dict[int, int],
              pcs: tuple, records: tuple, inv_sides: frozenset,
              shape: str = "straight",
              entry_taken: tuple = ()):  # noqa: C901
    """Emit the block's specialized function source.

    The emitted per-pass body replays the interpreter's exact event
    order for cycles ``0..n-1`` of one loop iteration: Ecache probe for
    the op entering MEM, (implicit always-hit) fetch, writeback,
    MEM work, ALU work, with the loop branch resolved in cycle ``n-1``.
    Exits and bails materialize end-of-cycle machine state.
    ``sq_owner`` slots are annulled on every continuing pass: they are
    fetched and occupy latch slots but do no work and retire nothing.
    ``pcs`` maps index to absolute fetch PC (rotated blocks have one
    seam) and ``records`` to the predecoded word the materialized
    flights carry; ``inv_sides`` are polarity-inverted sides (the
    original loop branch of a rotated block): the pass continues when
    they are taken.

    Linear shapes run the same schedule for exactly one pass over a
    combined prologue+body sequence: indices 0..3 are already in flight
    at entry (their latched results seed the locals; ``entry_taken``
    records prologue branch outcomes), the per-cycle emission covers
    cycles ``4..n-1`` -- over which every ``(cycle - k) % n`` formula
    degenerates to its non-wrapping form -- and the terminator at
    ``n-3`` redirects out at cycle ``n-1`` instead of looping: a bottom
    backward branch either way, a ``jspci`` to its target.

    Operands known at generation time -- r0, and results computed
    earlier in the same pass from known operands -- are folded: their
    arithmetic, memory addresses, MMIO bail tests and branch conditions
    are decided here.  An exit that is always taken ends the emission.
    """
    pipe = translator.pipeline
    config = pipe.config
    per_site, invariants = sources
    linear = shape.startswith("linear")
    jump = shape == "linear/jspci"
    ecache = pipe.ecache
    icache_on = config.icache.enabled
    lru = icache_on and config.icache.replacement == "lru"
    mode_lit = "True" if mode else "False"
    mmio_base = config.mmio_base
    sq_set = frozenset(sq_owner)

    writers = {}           # idx -> dest register
    for idx, instr in enumerate(instrs):
        dest = instr.writes_register()
        if dest is not None and idx not in sq_set:
            writers[idx] = dest
    #: a movtos latches no result: the interpreter's control path sets
    #: none
    carries_result = {idx for idx, instr in enumerate(instrs)
                      if instr.opcode in (Opcode.COMPUTE, Opcode.ADDI,
                                          Opcode.LD, Opcode.JSPCI)
                      and instr.funct != Funct.MOVTOS
                      and idx not in sq_set}
    mem_ops = {idx for idx, instr in enumerate(instrs)
               if instr.opcode in (Opcode.LD, Opcode.ST)
               and idx not in sq_set}
    noop_idx = {idx for idx, instr in enumerate(instrs)
                if instr.is_nop and idx not in sq_set}
    loads = {idx for idx in mem_ops if instrs[idx].opcode == Opcode.LD}
    stores = mem_ops - loads
    # linear prologue indices 0..1 ran their ALU before entry: any
    # overflow trap already happened (or not) under interpretation
    needs_no_ovf = any(
        instrs[idx].opcode == Opcode.COMPUTE
        and instrs[idx].funct in (Funct.ADD, Funct.SUB, Funct.MSTEP)
        for idx in range((2 if linear else 0), n) if idx not in sq_set)
    max_pass = (n - 4 if linear else n) + len(mem_ops) * ecache.miss_stall

    # distinct-line prefix counts for the deferred LRU touches
    line_prefix = [0] * n
    if lines:
        seen = 0
        boundaries = []
        offset = 0
        for _, _, words in lines:
            boundaries.append(offset)
            offset += len(words)
        for cycle in range(n):
            # linear lines cover only the body: fetch cycle c pulls
            # combined index c = body word c-4
            while seen < len(boundaries) and boundaries[seen] <= (
                    cycle - 4 if linear else cycle):
                seen += 1
            line_prefix[cycle] = seen
    total_lines = len(lines)

    branch = instrs[n - 3]
    #: every in-run conditional branch resolved mid-pass, in index
    #: order; segment ordinals for the residency flags index this.
    #: Linear prologue branches (indices < 4) resolved before entry and
    #: were already counted by the interpreter -- excluded throughout.
    all_sides = tuple(i for i in range(4 if linear else 0, n - 3)
                      if instrs[i].opcode in _BRANCH_EXPR
                      and i not in sq_set)
    #: normal sides: taken -> exact exit to their target, not-taken ->
    #: fall through.  Annulled branches never resolve and are not here.
    side_branches = tuple(i for i in all_sides if i not in inv_sides)
    #: active squashing sides: continuing past one is the wrong way, so
    #: the squash FSM pulses BRANCH_SQUASH for the following cycle.
    squashing_sides = tuple(i for i in side_branches if instrs[i].squash)
    sfs_clear_cycles = {i + 3 for i in squashing_sides}
    if (linear and instrs[1].opcode in _BRANCH_EXPR and instrs[1].squash
            and 1 not in sq_set and not entry_taken[1]):
        # entered one cycle after prologue index 1 squashed the wrong
        # way: the FSM is in BRANCH_SQUASH at entry and falls back to
        # NORMAL at the end of the first in-block cycle
        sfs_clear_cycles.add(4)
    #: the terminator counts as a branch unless it is a jump
    branches_per_pass = (not jump) + len(all_sides)
    #: ``_ExitSite.per_pass``; the loop branch and every inverted side
    #: are taken on the continuing path (only loops complete passes)
    per_pass = (n, n - len(sq_set), len(sq_set), len(noop_idx),
                branches_per_pass, 1 + len(inv_sides), 0, len(loads),
                len(stores))
    #: a call's literal jump target; ``None`` while unknown, and for a
    #: return, whose target the local ``jt`` holds
    jump_target: Optional[int] = None
    #: local -> what later reads in this pass read instead: a literal,
    #: or (linear blocks) the name it copies
    known: Dict[str, str] = {}

    def operand(expr: str) -> str:
        """``expr``, or its literal value or source when known."""
        return known.get(expr, expr)

    def assign(local: str, expr: str) -> None:
        """Emit ``local = expr``, unless later reads can read ``expr``
        itself.  A literal always can.  A linear block assigns every
        local once, before any read, so a copy of another name can go
        too; a loop's next pass reads some locals before reassigning
        them, so loops keep every assignment."""
        if expr.isdigit() or (linear and expr.isidentifier()):
            known[local] = expr
            if linear:
                return
        emit(f"{local} = {expr}")

    out = _Emitter()
    emit = out.emit
    emit("def _block(bud, ws, sok, sd):")
    out.depth += 1
    emit("R = REGS._regs")
    emit("MG = SP._words.get")
    if mem_ops:
        for line in ecache.PROBE_SETUP:
            emit(line)
    # Per-side segment-residency flags: a False flag means the words
    # past that side's fall-through were not all Icache-resident at
    # entry, so the pass must bail there (the interpreter then takes
    # the miss with exact stall timing).  Fixed for the whole
    # activation: in-block fetches hit and cannot evict anything.
    if icache_on and total_lines:
        for ordinal in range(len(all_sides)):
            emit(f"sk{ordinal} = sok[{ordinal}]")
    if any(instrs[idx].opcode == Opcode.COMPUTE
           and instrs[idx].funct == Funct.MOVFRS
           and SpecialReg(instrs[idx].shamt) == SpecialReg.PSW
           for idx in range(n)):
        emit("_psw = P.psw.value")
    if any(instrs[idx].opcode == Opcode.COMPUTE
           and instrs[idx].funct == Funct.MOVFRS
           and SpecialReg(instrs[idx].shamt) == SpecialReg.PSWOLD
           for idx in range(n)):
        emit("_pswold = P.psw_old.value")
    for reg in sorted(invariants):
        emit(f"rr{reg} = R[{reg}]")
    # Seeds: locals that can be read (as operands or in bail-site flight
    # materializations) before their first in-pass assignment.  w locals
    # hold each writer's last *written-back* value; at entry that is by
    # definition the register-file content.  Latched values arrive in
    # ``sd``, in :attr:`TranslatedBlock.seeds` order.
    seeds: List[Tuple[int, str]] = []
    seeded: List[str] = []

    def seed(local: str, latch: int, field: str) -> None:
        seeded.append(local)
        seeds.append((latch, field))

    if linear:
        # one pass only: w locals are always assigned at their WB cycle
        # before any site reads them, so only the prologue's latched
        # results need seeding (an in-flight load's value arrives via
        # its in-pass MEM stage instead)
        for idx in (0, 1):
            if idx in carries_result and not (
                    idx == 1 and instrs[1].opcode == Opcode.LD):
                if instrs[idx].opcode == Opcode.JSPCI:
                    assign(f"v{idx}", str(pcs[idx] + 3))
                else:
                    seed(f"v{idx}", 3 - idx, "result")
            if idx in mem_ops:
                seed(f"a{idx}", 3 - idx, "mem_address")
                if instrs[idx].opcode == Opcode.ST:
                    seed(f"sv{idx}", 3 - idx, "store_value")
    else:
        for idx in sorted(writers):
            emit(f"w{idx} = R[{writers[idx]}]")
            if idx != n - 4:
                emit(f"v{idx} = w{idx}")
        for idx in sorted(carries_result - set(writers)):
            if idx != n - 4:
                emit(f"v{idx} = 0")
        if (n - 4) in carries_result:
            seed(f"v{n - 4}", 3, "result")
        if (n - 4) in mem_ops:
            seed(f"a{n - 4}", 3, "mem_address")
            if instrs[n - 4].opcode == Opcode.ST:
                seed(f"sv{n - 4}", 3, "store_value")
    if seeded:
        emit(", ".join(seeded) + ("," if len(seeded) == 1 else "") + " = sd")
    emit("pen = 0")
    emit("it = 0")
    if not linear:
        emit("while True:")
        out.depth += 1

    sites: List[_ExitSite] = []

    def flight(idx: int, age: int, taken: bool, squashed: bool,
               slot) -> tuple:
        """The idx-instance at stage-age ``age`` (stages completed) as
        the interpreter would have left it (see ``_ExitSite.flights``)."""
        op = instrs[idx].opcode
        constants: List[tuple] = []
        slots: List[tuple] = []
        if squashed:
            # annulled in IF/RF: no stage ever computed a field
            constants.append(("squashed", True))
        elif age >= 2 and op in _BRANCH_EXPR:
            if taken:
                constants.append(("taken", True))
        elif age >= 2:
            if writers.get(idx) is not None:
                constants.append(("dest", writers[idx]))
            if op == Opcode.JSPCI:
                # the link value, and the target: the PC fetched after
                # the delay slots (a prologue jump) or the block's exit
                constants.append(("result", (pcs[idx] + 3) & _MASK))
                if idx < 4:
                    constants.append(("mem_address", pcs[idx + 3]))
                elif jump_target is not None:
                    constants.append(("mem_address", jump_target))
                else:
                    slots.append(("mem_address", slot("jt")))
            elif op in (Opcode.LD, Opcode.ST):
                slots.append(("mem_address", slot(f"a{idx}")))
                if op == Opcode.ST:
                    slots.append(("store_value", slot(f"sv{idx}")))
                if age >= 3:
                    constants.append(("mem_resolved", True))
            if (op == Opcode.ADDI or (op == Opcode.LD and age >= 3)
                    or (op == Opcode.COMPUTE and idx in carries_result)):
                slots.append(("result", slot(f"v{idx}")))
            if op == Opcode.ADDI:
                slots.append(("mem_address", slot(f"v{idx}")))
        return pcs[idx], records[idx], tuple(constants), tuple(slots)

    def emit_site(cycle: int, kind: str, side_idx: int = -1) -> None:
        """Emit one exit site at the end of emitted-pass cycle ``cycle``
        as a call of the shared :func:`_exit` on its :class:`_ExitSite`.

        ``kind``: "bail" (MMIO/dirty/cold-segment mid-pass), "side"
        (the normal side branch at ``side_idx`` resolved taken; exit to
        its target), "iexit" (the inverted side at ``side_idx`` fell
        through; exit past its delay slots, wrong-way squash applied
        when it has the squash bit), "exit" (loop branch not taken;
        likewise wrong-way), "ltaken" (a linear block's bottom branch
        taken: redirect to its target), "jump" (a linear block's
        ``jspci``: redirect to the jump target), "canonical" (pass
        boundary: budget exhausted or dirty store in the final MEM
        slot).
        """
        mid_pass = kind in ("bail", "side", "iexit")
        if linear:
            # exactly one partial pass over cycles 4..cycle (it == 0);
            # WBs retire combined indices 0..cycle-4, MEM stages indices
            # 1..cycle-3 (index 0's completed before entry)
            wb = [j - 4 for j in range(4, cycle + 1)]
            mem = [j - 3 for j in range(4, cycle + 1)]
        elif mid_pass:
            wb = [(j - 4) % n for j in range(cycle + 1)]
            mem = [(j - 3) % n for j in range(cycle + 1)]
        else:
            # a completed pass ("exit") or none yet ("canonical")
            wb = mem = list(range(n)) if kind == "exit" else []
        if kind in ("exit", "ltaken", "jump"):
            branch_c = branches_per_pass
            taken_c = 1 if kind == "ltaken" else len(inv_sides)
        elif kind == "canonical":
            branch_c = taken_c = 0
        else:
            branch_c = sum(1 for i in all_sides if i + 2 <= cycle)
            # this normal side resolved taken / inverted side not taken
            taken_c = (sum(1 for i in inv_sides if i + 2 <= cycle)
                       + (kind == "side") - (kind == "iexit"))
        names: List[str] = []

        def slot(name: str) -> int:
            if name not in names:
                names.append(name)
            return names.index(name)

        # latches: end of ``cycle``, s[k] holds idx (cycle-k) mod n at
        # stage-age k; the wrong way annuls the two youngest
        wrong_way = (kind == "exit" and branch.squash) or (
            kind == "iexit" and instrs[side_idx].squash)
        flights = []
        for k in range(5):
            idx = (cycle - k) % n
            owner = sq_owner.get(idx)
            if k < 2 and wrong_way:
                sq = True
            elif owner is None:
                sq = False
            elif k > cycle:
                sq = True   # previous-pass instance: that pass continued
            else:
                # same pass: annulled once its branch resolved not taken
                sq = (cycle > owner + 2
                      or (cycle == owner + 2
                          and not (kind == "side" and side_idx == owner)))
            # the loop branch and inverted sides are taken at every
            # resolution a pass sees except their own "exit"/"iexit"
            # site; a normal side only at its own taken-exit site; a
            # linear prologue branch keeps its observed outcome
            taken = (k == 2 and kind == "side") or (
                ((idx == n - 3 and not jump) or idx in inv_sides
                 or (linear and idx < 2 and entry_taken[idx]))
                and not (k == 2 and kind in ("exit", "iexit")))
            flights.append(flight(idx, k, taken, sq, slot))
        # register commits: for each written register, the writer with
        # the most recent WB (linear passes only commit writers whose WB
        # cycle has been reached)
        by_reg: Dict[int, int] = {}
        for idx, reg in writers.items():
            age = cycle - (idx + 4) if linear else (cycle - (idx + 4)) % n
            if age >= 0 and (reg not in by_reg or age < by_reg[reg][0]):
                by_reg[reg] = (age, idx)
        commits = tuple((reg, slot(f"w{idx}"))
                        for reg, (_, idx) in sorted(by_reg.items()))
        fetch_slot = -1
        if kind == "bail":
            fetch_pc = pcs[cycle + 1]
        elif kind in ("side", "ltaken"):
            fetch_pc = (pcs[side_idx] + instrs[side_idx].imm) & _MASK
        elif kind == "iexit":
            fetch_pc = pcs[side_idx] + 3
        elif kind == "jump":
            fetch_pc = -1 if jump_target is None else jump_target
            if jump_target is None:
                fetch_slot = slot("jt")
        else:
            fetch_pc = pcs[n - 1] + 1 if kind == "exit" else pcs[0]
        sq_c = sum(1 for i in wb if i in sq_set)
        sites.append(_ExitSite(
            pipe=pipe, kind=kind, counts=translator.stats.shapes[shape],
            per_pass=per_pass,
            partial=(len(wb), len(wb) - sq_c, sq_c,
                     sum(1 for i in wb if i in noop_idx), branch_c, taken_c,
                     int(kind == "jump"),
                     sum(1 for i in mem if i in loads),
                     sum(1 for i in mem if i in stores)),
            accesses=icache_on,
            touch_passes=total_lines if lru and mid_pass else 0,
            touch=(line_prefix[cycle] if mid_pass else total_lines)
            if lru else 0,
            flights=tuple(flights), commits=commits,
            chain=(pcs[(cycle - 3) % n], pcs[(cycle - 2) % n],
                   pcs[(cycle - 1) % n]),
            fetch_pc=fetch_pc, fetch_slot=fetch_slot, wrong_way=wrong_way,
            mode=mode, links=None if kind in ("bail", "canonical") else {},
            tried=None if kind in ("bail", "canonical") else {}))
        vals = ", ".join(map(operand, names)) + (
            "," if len(names) == 1 else "")
        emit(f"return EX(X[{len(sites) - 1}], it, pen, ws, ({vals}))")

    def emit_exit_if(cond: str, cycle: int, kind: str,
                     side_idx: int = -1) -> bool:
        """Emit ``if cond:`` and the exit site under it; True when the
        condition is always true, so nothing after the site runs."""
        if cond == "False":
            return False
        if cond == "True":
            emit_site(cycle, kind, side_idx)
            return True
        emit(f"if {cond}:")
        out.depth += 1
        emit_site(cycle, kind, side_idx)
        out.depth -= 1
        return False

    def branch_cond(idx: int) -> str:
        """Emit operand prep for the branch at ``idx`` and return its
        taken-condition expression (``True``/``False`` when known)."""
        cmp_op, signed = _BRANCH_EXPR[instrs[idx].opcode]
        src = per_site[idx]
        exprs = [operand(src["a"]), operand(src["b"])]
        literal = all(expr.isdigit() for expr in exprs)
        if signed:
            for k, name in enumerate(("_ba", "_bb")):
                if exprs[k].isdigit():
                    value = int(exprs[k])
                    exprs[k] = str(value - (1 << 32) if value & _SIGN
                                   else value)
                else:
                    emit(f"{name} = {exprs[k]}")
                    emit(f"{name} = {name} - {1 << 32} "
                         f"if {name} & {_SIGN} else {name}")
                    exprs[k] = name
        cond = f"{exprs[0]} {cmp_op} {exprs[1]}"
        if literal:
            return str(eval(cond, {"__builtins__": {}}))
        return cond

    def emit_cycle(cycle: int) -> bool:
        """Emit one cycle of the pass; True when it always exits."""
        probe_idx = (cycle - 3) % n
        wb_idx = (cycle - 4) % n
        alu_idx = (cycle - 2) % n
        emit(f"# cycle {cycle}: fetch {pcs[cycle]:#x} | wb i{wb_idx} "
             f"| mem i{probe_idx} | alu i{alu_idx}")
        bail_conditions = []
        # MEM-entry Ecache probe (late-miss protocol timing)
        address = operand(f"a{probe_idx}")
        if probe_idx in mem_ops:
            for line in ecache.probe_code(
                    instrs[probe_idx].opcode == Opcode.ST, address, mode):
                emit(line)
        # WB: commit the writer's value into its w local
        if wb_idx in writers:
            assign(f"w{wb_idx}", operand(f"v{wb_idx}"))
        # MEM work
        if probe_idx in mem_ops:
            if instrs[probe_idx].opcode == Opcode.LD:
                emit(f"v{probe_idx} = MG({address}, 0)")
            else:
                emit(f"MW({address}, {operand(f'sv{probe_idx}')}, "
                     f"{mode_lit})")
                if cycle != n - 1:
                    bail_conditions.append("TR.dirty")
        # ALU work
        if alu_idx == n - 3:
            # loop branch / terminator: resolved after the last cycle,
            # after any store-dirty check
            pass
        elif alu_idx in sq_set:
            pass  # annulled delay slot: fetched, no work, no effects
        elif alu_idx in inv_sides:
            # inverted side (rotated frame): this is the original loop
            # branch, and TAKEN is the way that *continues* the rotated
            # sequence -- its delay slots straddle the seam and always
            # execute.  Not-taken exits at the original fall-through;
            # for a squash-filled branch that is the wrong way, so the
            # iexit site annuls the two seam slots and pulses the FSM.
            if emit_exit_if(_negate(branch_cond(alu_idx)), cycle, "iexit",
                            alu_idx):
                return True
            if icache_on and total_lines:
                # continuing crosses the seam into this side's segment
                bail_conditions.append(
                    f"not sk{all_sides.index(alu_idx)}")
        elif alu_idx in side_branches:
            # side branch: taken -> exact exit to its target.  The
            # redirect out-prioritizes a dirty store committed this same
            # cycle (both happened; only the exit PC differs), so the
            # taken site is emitted before the dirty bail below.
            if emit_exit_if(branch_cond(alu_idx), cycle, "side", alu_idx):
                return True
            if instrs[alu_idx].squash:
                # continuing = not taken = the wrong way for a
                # squash-filled branch: its delay slots (annulled, see
                # sq_owner) are counted squashed at their WB, and the
                # squash FSM pulses BRANCH_SQUASH for one cycle.
                emit("ST.branch_squashes += 1")
                emit("SFS(False, True)")
            if icache_on and total_lines:
                # next fetch (cycle+1) starts this side's fall-through
                # segment; if it was cold at entry, bail before it
                bail_conditions.append(
                    f"not sk{all_sides.index(alu_idx)}")
        else:
            instr = instrs[alu_idx]
            src = {k: operand(v) for k, v in per_site[alu_idx].items()}
            op = instr.opcode
            local = f"v{alu_idx}"
            if op in (Opcode.LD, Opcode.ST, Opcode.ADDI):
                imm = instr.imm
                base = src["a"]
                if base.isdigit():
                    addr = str((int(base) + imm) & _MASK)
                else:
                    addr = f"({base} + {imm}) & {_MASK}" if imm else base
                if op == Opcode.ADDI:
                    assign(local, addr)
                else:
                    assign(f"a{alu_idx}", addr)
                    if op == Opcode.ST:
                        assign(f"sv{alu_idx}", src["b"])
                    if not addr.isdigit():
                        bail_conditions.append(
                            f"{operand(f'a{alu_idx}')} >= {mmio_base}")
                    elif int(addr) >= mmio_base:
                        bail_conditions.append("True")
            elif instr.funct in (Funct.MSTEP, Funct.DSTEP):
                call = "mstep" if instr.funct == Funct.MSTEP else "dstep"
                emit(f"_t = MD.{call}({src['a']}, {src['b']})")
                emit(f"{local} = _t.value")
            elif instr.funct == Funct.MOVTOS:
                # ``movtos md``: operands are 32-bit already
                emit(f"MD.value = {src['a']}")
            else:
                expr = _alu_expr(instr, src)
                if src and all(value.isdigit() for value in src.values()):
                    # known operands: run the expression now, not per pass
                    expr = str(eval(expr, {"__builtins__": {}}))
                assign(local, expr)
        if cycle in sfs_clear_cycles:
            emit("SFS(False, False)")  # FSM falls back to NORMAL
        if bail_conditions:
            cond = ("True" if "True" in bail_conditions
                    else " or ".join(bail_conditions))
            return emit_exit_if(cond, cycle, "bail")
        return False

    # ------------------------------------------------- per-cycle emission
    for cycle in range(4 if linear else 0, n):
        if emit_cycle(cycle):
            break
    else:
        # ---------------------------------------- terminator resolution
        if jump:
            # call or return: always out, to its target
            base = operand(per_site[n - 3]["a"])
            imm = branch.imm
            if base.isdigit():
                jump_target = (int(base) + imm) & _MASK
            else:
                assign("jt", f"({base} + {imm}) & {_MASK}" if imm else base)
            emit_site(n - 1, "jump")
        elif linear:
            # one pass: the bottom backward branch redirects out either
            # way
            if not emit_exit_if(branch_cond(n - 3), n - 1, "ltaken", n - 3):
                emit_site(n - 1, "exit")
        elif not emit_exit_if(_negate(branch_cond(n - 3)), n - 1, "exit"):
            # a loop: the pass continues while the loop branch is taken
            emit("it += 1")
            exit_conditions = [f"bud - it * {n} - pen < {max_pass}"]
            if (n - 4) in mem_ops and instrs[n - 4].opcode == Opcode.ST:
                exit_conditions.insert(0, "TR.dirty")
            emit_exit_if(" or ".join(exit_conditions), n - 1, "canonical")

    return out.source(), needs_no_ovf, max_pass, tuple(sites), tuple(seeds)

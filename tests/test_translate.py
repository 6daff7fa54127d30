"""The translated fast path must be invisible: cycle-exact, bit-identical.

``MachineConfig.jit`` compiles hot basic blocks into specialized Python
closures (:mod:`repro.core.translate`).  The contract these tests pin is
total equivalence with the interpretive pipeline -- every architectural
register, every memory word, every pipeline/cache counter, *including
the cycle count* -- across all three block shapes (straight periodic
loops, phase-rotated loops, linear one-pass blocks) and across every
way a block can stop being valid: self-modifying stores, squashing
branches at the block boundary, exceptions, and LRU eviction.

The full-state signature compared here is the same one the fuzz
campaign's jit-vs-interpreter oracle uses
(:func:`repro.fuzz.oracle.check_jit_equivalence`).
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.checkpoint.state import machine_signature
from repro.core import Machine, MachineConfig, PswBit, perfect_memory_config
from repro.core.config import EcacheConfig
from repro.fuzz.gen import generate_program
from repro.fuzz.oracle import (_programs_for, check_all,
                               check_jit_equivalence, run_pipeline)
from repro.isa import encode
from repro.isa.opcodes import Funct
from repro.workloads import LISP_SUITE, PASCAL_SUITE
from tests.test_decode_memo import random_loop_program


def run(program, **config_overrides) -> Machine:
    machine = Machine(MachineConfig(**config_overrides))
    machine.load_program(program)
    machine.run()
    assert machine.halted
    return machine


#: the twelve Pascal and Lisp suite programs
SUITE = list(PASCAL_SUITE) + list(LISP_SUITE)


def assert_bit_identical(program, **jit_overrides):
    """Run interpretive and jit machines; full signatures must match."""
    reference = run(program)
    jit = run(program, jit=True, **jit_overrides)
    assert machine_signature(reference) == machine_signature(jit)
    return reference, jit


def assert_links_live(translator):
    """No exit site of a cached block links to a dropped block, every
    link table a block lists as incoming belongs to a cached block's
    exit site, and every cached block is counted: compiled, less
    evicted and killed."""
    live = {id(variant) for head in translator.blocks.values()
            for variant in head.variants}
    tables = {id(site.links) for head in translator.blocks.values()
              for variant in head.variants for site in variant.sites
              if site.links is not None}
    for head in translator.blocks.values():
        for variant in head.variants:
            for site in variant.sites:
                for block, _, _ in (site.links or {}).values():
                    assert id(block) in live, (hex(variant.head),
                                               hex(block.head))
            assert set(variant.incoming) <= tables, hex(variant.head)
    stats = translator.stats
    assert len(live) == stats.compiled - stats.evictions - stats.invalidations


def record_drops(translator, monkeypatch):
    """Heads dropped from ``translator``, each with whether some exit
    was linked to it at that moment."""
    dropped = []
    real_drop = translator._drop

    def drop(head):
        block = translator.blocks.get(head)
        if block is not None:
            dropped.append((head, any(
                links.get(head) is not None
                for variant in block.variants
                for links in variant.incoming.values())))
        return real_drop(head)

    monkeypatch.setattr(translator, "_drop", drop)
    return dropped


# --------------------------------------------------------------- workloads
class TestWorkloadEquivalence:
    def test_sieve_bit_identical(self):
        from repro.workloads import cached_program

        reference, jit = assert_bit_identical(cached_program("sieve"))
        stats = jit.pipeline._translator.stats
        assert stats.compiled > 0 and stats.entries > 0
        # the headline claim: most cycles run translated
        assert stats.cycles / reference.stats.cycles > 0.9

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SUITE)
    def test_workload_bit_identical(self, name):
        from repro.workloads import cached_program

        assert_bit_identical(cached_program(name))

    @pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
    def test_random_loops_bit_identical(self, seed):
        program = assemble(random_loop_program(seed, iterations=12))
        _, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.pipeline._translator.stats.entries > 0


class TestCoverageFloor:
    """Recursive programs run translated through calls and returns, and
    software multiplies and divides through ``movtos md``.

    Each floor is about half the coverage measured at the default
    threshold when calls and returns were first translated (towers
    0.869, treefold 0.763, fib 0.679, ackermann 0.653; with entry
    variants they measure 0.982, 0.979, 0.989 and 0.988), so a
    translator change that starts refusing ``jspci`` blocks again
    fails here rather than only in the benchmark.  intmm and quick
    multiply and divide through ``movtos md``: refusing it left them at
    0.656 and 0.755, translating it takes them to 0.949 and 0.971, and
    their floors sit between.
    """

    @pytest.mark.parametrize("name, floor", [
        ("towers", 0.43), ("treefold", 0.38), ("fib", 0.34),
        ("ackermann", 0.32), ("intmm", 0.9), ("quick", 0.9)])
    def test_recursive_program_runs_translated(self, name, floor):
        from repro.workloads import cached_program

        machine = run(cached_program(name), jit=True)
        coverage = (machine.pipeline._translator.stats.cycles
                    / machine.stats.cycles)
        assert coverage >= floor, f"{name}: coverage {coverage:.3f}"


# ----------------------------------------------------- self-modifying code
def _self_modifying_source() -> str:
    # Phase 1 translates the hot loop with "li t3, 11" in its body; the
    # inter-phase store patches that word to "li t3, 44", which must
    # invalidate the block so phase 2 runs (and retranslates) the new
    # code: t5 ends at 20*11 + 20*44.
    patched = encode(assemble("_start: li t3, 44").listing[0])
    return f"""
    _start:
        la t0, target
        la t1, newword
        ld t2, 0(t1)
        nop
        li s1, 1
        li s2, 2
        li t5, 0
    phase:
        li s0, 20
    loop:
    target:
        li t3, 11
        add t5, t5, t3
        sub s0, s0, s1
        bne s0, r0, loop
        nop
        nop
        st t2, 0(t0)
        sub s2, s2, s1
        bne s2, r0, phase
        nop
        nop
        halt
    newword: .word {patched}
    """


def _chained_source(outer: int = 20, phases: int = 2,
                    patch: bool = True) -> str:
    # Three blocks link into a cycle: the inner loop's fall-through exit
    # lands on ``target``, whose bottom branch enters the linear block
    # at ``outer``, whose bottom branch enters the inner loop again.
    # Between phases the store patches ``target``'s first word from
    # "li t3, 11" to "li t3, 44", so two phases leave t5 at
    # outer*11 + outer*44; without ``patch`` it stores to a data word.
    patched = encode(assemble("_start: li t3, 44").listing[0])
    return f"""
    _start:
        la t0, {"target" if patch else "spare"}
        la t1, newword
        ld t2, 0(t1)
        nop
        li s1, 1
        li s2, {phases}
        li t5, 0
    phase:
        li s0, {outer}
    outer:
        li s3, 3
    inner:
        sub s3, s3, s1
        bne s3, r0, inner
        nop
        nop
    target:
        li t3, 11
        add t5, t5, t3
        sub s0, s0, s1
        bne s0, r0, outer
        nop
        nop
        st t2, 0(t0)
        sub s2, s2, s1
        bne s2, r0, phase
        nop
        nop
        halt
    newword: .word {patched}
    spare: .word 0
    """


class TestSelfModifyingCode:
    def test_store_into_block_invalidates_and_stays_exact(self):
        program = assemble(_self_modifying_source())
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.regs[15] == 20 * 11 + 20 * 44        # t5
        translator = jit.pipeline._translator
        assert translator.stats.invalidations >= 1
        assert translator.stats.entries > 0             # it did run hot

    def test_store_into_linked_successor_unlinks_it(self, monkeypatch):
        # The patched word heads the block the inner loop's exit links
        # into: dropping it must unlink that exit, and the relinked
        # successor must run the new code.
        program = assemble(_chained_source())
        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
        dropped = record_drops(jit.pipeline._translator, monkeypatch)
        jit.load_program(program)
        jit.run()
        reference = run(program)
        assert machine_signature(reference) == machine_signature(jit)
        assert jit.regs[15] == 20 * 11 + 20 * 44        # t5
        assert (program.symbols["target"], True) in dropped
        translator = jit.pipeline._translator
        assert translator.stats.links > 0
        assert_links_live(translator)

    def test_recompiled_source_leaves_no_stale_incoming_links(self):
        # Each phase's store rewrites (with the same word) the head of
        # the outer loop, whose side exit links into the inner loop at
        # ``loop``.  The outer loop is dropped and recompiled every
        # phase while ``loop`` lives on: each dropped copy's link table
        # must leave ``loop``'s incoming list, or it grows by one a
        # phase.
        phases = 30
        program = assemble(f"""
        _start:
            la t0, phase
            ld t2, 0(t0)
            nop
            li s1, 1
            li s2, {phases}
            li t5, 0
        phase:
            li s0, 20
        loop:
            add t5, t5, s1
            sub s0, s0, s1
            bne s0, r0, loop
            nop
            nop
            st t2, 0(t0)
            sub s2, s2, s1
            bne s2, r0, phase
            nop
            nop
            halt
        """)
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.regs[15] == phases * 20                  # t5
        translator = jit.pipeline._translator
        assert translator.stats.invalidations >= phases // 2
        assert translator.stats.links >= phases
        loop = translator.blocks[program.symbols["loop"]]
        assert len(loop.variants) == 1
        assert len(loop.incoming) <= 1, len(loop.incoming)
        assert_links_live(translator)


# ----------------------------------------------- squashes at the boundary
SQUASHING_LOOP = """
_start:
    li s0, 40
    li s1, 1
    li t0, 0
    li t6, 0
loop:
    and t4, s0, s1
    beqsq t4, r0, skip
    nop
    nop
    add t6, t6, s1
skip:
    add t0, t0, s1
    sub s0, s0, s1
    bne s0, r0, loop
    nop
    nop
    halt
"""


class TestSquashAtBlockBoundary:
    def test_alternating_squashing_branch_bit_identical(self):
        # The inner squashing branch alternates taken/not-taken every
        # pass, so the block's side exit and its wrong-way squash both
        # fire repeatedly while the loop is translated.
        program = assemble(SQUASHING_LOOP)
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        assert reference.stats.branch_squashes > 0
        assert jit.pipeline._translator.stats.entries > 0


# -------------------------------------------------- exceptions in hot code
PSW_SYS_TE = (1 << PswBit.MODE) | (1 << PswBit.SHIFT_EN) | (1 << PswBit.TE)

OVERFLOW_IN_LOOP = f"""
.org 0
    br handler
    nop
    nop

.org 0x40
handler:
    la   s0, trapcount
    ld   s1, 0(s0)
    nop
    addi s1, s1, 1
    st   s1, 0(s0)
    movfrs t0, pswold
    li    t1, {1 << PswBit.TE}
    not   t1, t1
    and   t0, t0, t1
    movtos pswold, t0
    jpc
    jpc
    jpcrs

.org 0x100
_start:
    li   t9, {PSW_SYS_TE}
    movtos psw, t9
    li   t2, 0x7FFFFF00
    li   t7, 0x10
    li   s3, 30
    li   s4, 1
loop:
    add  t2, t2, t7      ; overflows on pass 16 of 30 -> trap
    sub  s3, s3, s4
    bne  s3, r0, loop
    nop
    nop
    halt

trapcount: .word 0
"""


class TestExceptionAtBlockBoundary:
    def test_overflow_trap_mid_hot_loop_bit_identical(self):
        # The loop is hot (and translated) well before pass 16, where
        # the add overflows with TE set: the trap, the PSWold rewrite in
        # the handler, and the three-jump restart must all play out
        # exactly as interpreted.
        program = assemble(OVERFLOW_IN_LOOP)

        def run_cfg(jit):
            machine = Machine(perfect_memory_config(
                jit=jit, jit_threshold=2))
            machine.load_program(program)
            machine.run()
            assert machine.halted
            return machine

        reference, jit = run_cfg(False), run_cfg(True)
        assert machine_signature(reference) == machine_signature(jit)
        trapcount = program.symbols["trapcount"]
        assert reference.memory.system.read(trapcount) == 1
        assert reference.stats.exceptions == 1


# ----------------------------------------------------------- movtos md
MD_LOOP = """
_start:
    li s0, 40
    li s1, 1
    li s2, 13
    li s3, 3
    li s4, 0
loop:
    sub s0, s0, s1
    movtos md, s0        ; multiplier: the counter, bypassed from the sub
    mov t0, s2
    li t1, 0
    mstep t1, t1, t0
    sll t0, t0, 1
    mstep t1, t1, t0
    sll t0, t0, 1
    mstep t1, t1, t0
    movfrs t2, md
    add s4, s4, t1
    add s4, s4, t2
    movtos md, s0        ; dividend
    mov t3, r0
    dstep t3, t3, s3
    dstep t3, t3, s3
    movfrs t4, md
    add s4, s4, t4
    bne s0, r0, loop
    nop
    nop
    halt
"""

#: system space: the vector, a handler that counts the trap and
#: resumes at ``{resume}`` (past the trapping word), and a stub that
#: drops to user mode
TRAP_RESUME_SYSTEM = """
.org 0
    br handler
    nop
    nop
.org 0x40
handler:
    la   t0, traps
    ld   t1, 0(t0)
    nop
    addi t1, t1, 1
    st   t1, 0(t0)
    li   t0, {resume}
    movtos pc1, t0
    addi t0, t0, 1
    movtos pc2, t0
    addi t0, t0, 1
    movtos pc3, t0
    jpc
    jpc
    jpcrs
.org 0x100
_start:
    li   t9, {psw}
    movtos psw, t9
    nop
    nop
    nop
    nop
    nop
    nop
traps: .word 0
"""

USER_MD_LOOP = """
.org 0x110
    li s0, 12
    li s1, 1
    li s2, 7
loop:
    sub s0, s0, s1
    nop
    movtos md, s2        ; privileged in user mode: traps every pass
resume:
    add s3, s3, s1
    bne s0, r0, loop
    nop
    nop
    halt
"""


class TestMovtosMd:
    """``movtos md`` sets up the software multiply and divide: in
    system mode a block writes MD in its ALU cycle, and in user mode,
    where it traps, the block holding it is refused."""

    def test_md_writes_match_the_interpreter_at_every_exit(
            self, monkeypatch):
        program = assemble(MD_LOOP)
        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
        tally = lockstep_exits(program, monkeypatch, chunk=101, jit=jit)
        # chunked budgets stop the loop at pass boundaries; the passes
        # before it compiled ran as linked linear blocks
        assert tally["canonical"] > 0 and tally["link"] > 0, tally
        translator = jit.pipeline._translator
        assert translator.stats.cycles > 0.5 * jit.stats.cycles
        loop = program.symbols["loop"]
        assert sum(instr.funct == Funct.MOVTOS
                   for instr in translator.blocks[loop].instrs) == 2

    def test_user_mode_movtos_md_is_refused_and_traps_identically(self):
        user = assemble(USER_MD_LOOP)
        system = assemble(TRAP_RESUME_SYSTEM.format(
            resume=user.symbols["resume"], psw=1 << PswBit.SHIFT_EN))

        def boot(jit):
            machine = Machine(perfect_memory_config(
                jit=jit, jit_threshold=2))
            machine.load_program(system)
            # the handler's first two return jumps fetch in system
            # mode, so system space mirrors the user words
            machine.memory.system.load_image(user.image)
            machine.memory.user.load_image(user.image)
            machine.run(100_000)
            assert machine.halted
            return machine

        reference, jit = boot(False), boot(True)
        assert machine_signature(reference) == machine_signature(jit)
        assert reference.memory.system.read(system.symbols["traps"]) == 12
        translator = jit.pipeline._translator
        assert user.symbols["loop"] in translator.dead
        assert translator.stats.compiled == 0


# -------------------------------------------------------- admission bounds
THREE_LOOPS = """
_start:
    li s1, 1
    li t0, 0
    li s0, 20
l1: add t0, t0, s1
    sub s0, s0, s1
    bne s0, r0, l1
    nop
    nop
    li s0, 20
l2: add t0, t0, s1
    add t1, t0, t0
    sub s0, s0, s1
    bne s0, r0, l2
    nop
    nop
    li s0, 20
l3: add t0, t0, s1
    sub t1, t0, s1
    sub s0, s0, s1
    bne s0, r0, l3
    nop
    nop
    halt
"""


TWO_BLOCK_CYCLE = """
_start:
    li s1, 1
    li s2, 6
    li t5, 0
phase:
    li s0, 20
    li s3, 3
inner:
    sub s3, s3, s1
    bne s3, r0, inner
    nop
    nop
    li s3, 3
    add t5, t5, s0
    sub s0, s0, s1
    bne s0, r0, inner
    nop
    nop
    sub s2, s2, s1
    bne s2, r0, phase
    nop
    nop
    halt
"""


class TestAdmissionBounds:
    def test_block_cache_is_bounded_and_evicts_lru(self):
        program = assemble(THREE_LOOPS)
        reference, jit = assert_bit_identical(
            program, jit_threshold=2, jit_max_blocks=2)
        translator = jit.pipeline._translator
        stats = translator.stats
        assert len(translator.blocks) <= 2
        assert stats.evictions >= 1
        # conservation: every compiled block is live, evicted, or killed
        assert (len(translator.blocks)
                == stats.compiled - stats.evictions - stats.invalidations)

    def test_unbounded_run_keeps_every_block(self):
        program = assemble(THREE_LOOPS)
        _, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.pipeline._translator.stats.evictions == 0

    def test_eviction_of_a_link_target_unlinks_it(self, monkeypatch):
        # The loop and its fall-through block link into a cycle; once
        # the head at ``phase`` is hot, each phase compiles it and
        # evicts the loop, which the fall-through block links to.
        program = assemble(TWO_BLOCK_CYCLE)
        jit = Machine(MachineConfig(jit=True, jit_threshold=2,
                                    jit_max_blocks=2))
        dropped = record_drops(jit.pipeline._translator, monkeypatch)
        jit.load_program(program)
        jit.run()
        reference = run(program)
        assert machine_signature(reference) == machine_signature(jit)
        translator = jit.pipeline._translator
        assert translator.stats.evictions >= 1
        assert translator.stats.links > 0
        assert any(linked for _, linked in dropped), dropped
        assert len(translator.blocks) <= 2
        assert_links_live(translator)


# ----------------------------------------------------------------- chaining
class TestChaining:
    def test_link_rule_checks_every_static_condition(self):
        # Each link a run made is remade from its site; a copy of the
        # successor that differs in any one static entry condition is
        # refused.
        import copy

        from repro.core import translate
        from repro.core.control import SquashState
        from repro.workloads import cached_program

        machine = run(cached_program("queens"), jit=True)
        translator = machine.pipeline._translator
        mmio_base = machine.pipeline.config.mmio_base
        links = [(site, link[0]) for head in translator.blocks.values()
                 for variant in head.variants for site in variant.sites
                 for link in (site.links or {}).values()]
        assert links
        flipped = SquashState.NORMAL, SquashState.BRANCH_SQUASH
        for site, block in links:
            assert translate._meets(site, block, mmio_base)[0] is block

            def refused(**changes):
                other = copy.copy(block)
                for name, value in changes.items():
                    setattr(other, name, value)
                return translate._meets(site, other, mmio_base) is None

            assert refused(mode=not block.mode)
            assert refused(fsm_state=flipped[
                block.fsm_state is SquashState.NORMAL])
            for k, (latch, pc, squashed, record) in enumerate(
                    block.contract):
                for entry in ((latch, pc + 1, squashed, record),
                              (latch, pc, not squashed, record)):
                    contract = list(block.contract)
                    contract[k] = entry
                    assert refused(contract=tuple(contract))
            for k, (latch, taken) in enumerate(block.taken_checks):
                checks = list(block.taken_checks)
                checks[k] = (latch, not taken)
                assert refused(taken_checks=tuple(checks))
            for k, (latch, resolved) in enumerate(block.mem_checks):
                checks = list(block.mem_checks)
                checks[k] = (latch, not resolved)
                assert refused(mem_checks=tuple(checks))

    def test_long_chain_keeps_the_stack_flat_and_stops_at_the_budget(
            self, monkeypatch):
        import sys

        from repro.core import translate

        program = assemble(_chained_source(outer=5000, phases=1,
                                           patch=False))
        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
        jit.load_program(program)
        translator = jit.pipeline._translator
        depths = set()
        real_exit = translate._exit

        def exit_at_depth(*args):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.add(depth)
            return real_exit(*args)

        chains = []
        real_enter = translator.try_enter

        def enter(block, max_cycles):
            before = translator.stats.links
            entered = real_enter(block, max_cycles)
            chains.append(translator.stats.links - before)
            return entered

        monkeypatch.setattr(translate, "_exit", exit_at_depth)
        monkeypatch.setattr(translator, "try_enter", enter)
        budget = 40_009
        jit.pipeline.run(budget)
        assert jit.stats.cycles == budget
        assert max(chains) >= 2000, max(chains)
        assert len(depths) == 1, depths
        reference = Machine(MachineConfig())
        reference.load_program(program)
        reference.pipeline.run(budget)
        assert machine_signature(reference) == machine_signature(jit)
        monkeypatch.undo()
        jit.run()
        reference.run()
        assert machine_signature(reference) == machine_signature(jit)

    def test_first_link_generates_a_target_never_entered(self, monkeypatch):
        # ``target`` is admitted at its second arrival, but that direct
        # entry is refused, as a cold entry segment would refuse it.  So
        # its code is first generated inside ``_meets``, when the inner
        # loop's exit next links into it, and its first entry is
        # through that link; every exit and link must still leave the
        # machine where the interpreter is.
        from repro.core import translate

        program = assemble(_chained_source(patch=False))
        target = program.symbols["target"]
        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
        translator = jit.pipeline._translator
        refused, fresh, linked = [], [], []
        real_resident = translator._resident
        real_meets = translate._meets
        real_follow = translator._follow

        def resident(block):
            if block.head == target and not refused:
                refused.append(block)
                return None
            return real_resident(block)

        def meets(site, block, mmio_base):
            pending = block.fn is None
            link = real_meets(site, block, mmio_base)
            if pending and block.fn is not None:
                fresh.append(block)
            return link

        def follow(link, vals):
            # only the follow right after the link that generated it
            nxt = real_follow(link, vals)
            if link[0] in fresh:
                fresh.remove(link[0])
                if nxt is not None:
                    linked.append(link[0])
            return nxt

        monkeypatch.setattr(translator, "_resident", resident)
        monkeypatch.setattr(translate, "_meets", meets)
        monkeypatch.setattr(translator, "_follow", follow)
        tally = lockstep_exits(program, monkeypatch, jit=jit)
        assert [block.head for block in refused] == [target]
        assert linked == refused, linked
        assert tally["link"] > 0
        assert translator.stats.generated == translator.stats.compiled


# ----------------------------------------------------- deferred generation
class TestPendingBlocksGenerate:
    def test_every_admitted_block_generates_and_compiles(self, monkeypatch):
        # Code is generated only for blocks that run, so a generator
        # crash on a block that never runs would go unseen: generate
        # every block the scans admit over a fixed fuzz band, entered or
        # not.
        from repro.core import translate
        from repro.fuzz.gen import GenConfig

        admitted = []
        real_compile = translate.Translator._compile

        def compile_block(self, head, linear_only=False):
            block = real_compile(self, head, linear_only)
            if block is not None:
                admitted.append((mode, self, block))
            return block

        monkeypatch.setattr(translate.Translator, "_compile", compile_block)
        config = MachineConfig(jit=True, jit_threshold=2)
        for mode in ("isa", "lang", "os"):
            for seed in range(1, 21):
                generated = generate_program(
                    seed, GenConfig(mode=mode, quick=True))
                _, program = _programs_for(generated)
                run_pipeline(program, generated, config=config)
        pending = [(mode, translator, block)
                   for mode, translator, block in admitted
                   if block.fn is None]
        # most admitted blocks never run, in every mode
        assert {mode for mode, _, _ in pending} == {"isa", "lang", "os"}
        assert len(pending) > len(admitted) // 2, (len(pending),
                                                   len(admitted))
        for _, translator, block in pending:
            translator._generate_code(block)
            assert callable(block.fn) and block.pending is None
            assert block.sites and block.seeds is not None
        for translator in {translator for _, translator, _ in admitted}:
            stats = translator.stats
            assert stats.generated == stats.compiled


# ------------------------------------------------------- telemetry surface
class TestTranslateTelemetry:
    def test_jit_counters_in_snapshot(self):
        from repro.workloads import cached_program

        machine = run(cached_program("sieve"), jit=True)
        snap = machine.metrics().snapshot()
        assert snap["core.translate.blocks.compiled"] > 0
        assert snap["core.translate.entries.taken"] > 0
        assert 0 < snap["core.translate.cycles"] <= snap["pipeline.cycles"]

    def test_shape_counters_partition_the_totals(self):
        from repro.core.translate import SHAPES
        from repro.workloads import cached_program

        machine = run(cached_program("queens"), jit=True)
        stats = machine.pipeline._translator.stats
        compiled, entries, cycles = (sum(column) for column in
                                     zip(*stats.shapes.values()))
        assert (compiled, entries, cycles) == (
            stats.compiled, stats.entries, stats.cycles)
        assert all(stats.shapes[shape][1] > 0 for shape in SHAPES)
        # not telemetry: jit snapshots keep the interpreter's names
        interpreted = run(assemble(random_loop_program(0)))
        assert (set(machine.metrics().snapshot())
                == set(interpreted.metrics().snapshot()))

    def test_interpretive_run_reports_zeros(self):
        program = assemble(random_loop_program(0))
        snap = run(program).metrics().snapshot()
        assert snap["core.translate.blocks.compiled"] == 0
        assert snap["core.translate.entries.taken"] == 0

    def test_jit_trace_export_validates(self, tmp_path):
        import json

        from repro.telemetry import validate_trace_events, write_jit_trace

        program = assemble(random_loop_program(1, iterations=12))
        machine = Machine(MachineConfig(jit=True, jit_threshold=2))
        machine.pipeline._translator.record_spans = True
        machine.load_program(program)
        machine.run()
        spans = machine.pipeline._translator.spans
        assert spans, "no translated-block activations recorded"
        path = tmp_path / "jit_trace.json"
        payload = write_jit_trace(path, spans)
        assert validate_trace_events(payload) == []
        assert json.loads(path.read_text()) == payload
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(spans)


# ------------------------------------------------------------ fuzz replays
class TestFuzzAgreement:
    def test_corpus_replays_bit_identical_under_jit(self):
        from repro.fuzz.corpus import iter_corpus

        entries = [e for e in iter_corpus() if not e.mutation]
        assert entries, "fuzz_corpus/ has no unmutated entries"
        for entry in entries:
            _, reorganized = _programs_for(entry.generated)
            reference = run_pipeline(reorganized, entry.generated)
            report = check_jit_equivalence(reorganized, entry.generated,
                                           reference)
            assert report is None, f"{entry.name}: {report.summary()}"

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_programs_bit_identical_under_jit(self, seed):
        generated = generate_program(seed)
        _, reorganized = _programs_for(generated)
        reference = run_pipeline(reorganized, generated)
        report = check_jit_equivalence(reorganized, generated, reference)
        assert report is None, report.summary()

    @pytest.mark.slow
    def test_200_seed_differential_campaign(self):
        # All three oracles (golden-vs-pipeline, live-vs-replay,
        # jit-vs-interpreter) over 200 fresh seeds.
        failures = []
        for seed in range(200):
            reports = check_all(generate_program(seed))
            failures.extend(f"seed {seed}: {r.summary()}" for r in reports)
        assert not failures, failures


# ------------------------------------------------------- lockstep exits
def _lang_generated(seed: int):
    from repro.fuzz.gen import GenConfig

    return generate_program(seed, GenConfig(mode="lang", quick=True))


def lockstep_exits(program, monkeypatch, chunk=None, jit=None):
    """Run ``program`` translated; at every exit site and every link
    step an interpreter to the same cycle and compare the whole machine
    state.  A link leaves the latches, PC chain and fetch
    PC unbuilt, so the check builds them as a full exit would, compares,
    and puts the unbuilt state back: the chain computes what it would
    unobserved.  ``chunk`` runs the translated machine in budgets of
    that many cycles, so blocks also stop at pass boundaries.  ``jit``
    is the translated machine (default: a fresh one at threshold 2).
    Returns the tally of exit kinds and links."""
    from collections import Counter

    from repro.core import translate

    if jit is None:
        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
    jit.load_program(program)
    reference = Machine(dataclasses.replace(jit.pipeline.config, jit=False))
    reference.load_program(program)
    tally = Counter()
    real_exit = translate._exit
    pipe = jit.pipeline
    pc_unit = pipe.pc_unit

    def checked_exit(site, it, pen, ws, vals):
        nxt = real_exit(site, it, pen, ws, vals)
        kind = site.kind if nxt is None else "link"
        if nxt is not None:
            unbuilt = pipe.s, pc_unit.chain.entries, pc_unit.fetch_pc
            translate._materialize(site, vals, nxt[0].head)
        cycle = jit.stats.cycles
        reference.pipeline.run(cycle)
        where = (sum(tally.values()), kind, site.kind, cycle)
        assert reference.stats.cycles == cycle, where
        assert machine_signature(reference) == machine_signature(jit), where
        if nxt is not None:
            pipe.s, pc_unit.chain.entries, pc_unit.fetch_pc = unbuilt
        tally[kind] += 1
        return nxt

    monkeypatch.setattr(translate, "_exit", checked_exit)
    while not jit.halted:
        before = jit.stats.cycles
        jit.pipeline.run(before + chunk if chunk else 10_000_000)
        assert jit.stats.cycles > before
    monkeypatch.undo()
    return tally


#: programs whose lockstep run must stop loops at pass boundaries
LOOP_PROGRAMS = ("sieve", "bubble", "quick", "assoc", "queens", "intmm")


class TestLockstepExits:
    """Every exit site, and every link, leaves the machine exactly where
    the interpreter is at the same cycle: latches, PC chain, FSMs, stall
    state, caches, counters and memory."""

    def test_every_site_kind_matches_the_interpreter(self, monkeypatch):
        from repro.workloads import cached_program

        tally = lockstep_exits(cached_program("sieve"), monkeypatch,
                               chunk=1009)
        # a lang program's console loop bails on its MMIO store, after
        # late Ecache misses inside translated passes
        tally += lockstep_exits(_programs_for(_lang_generated(3))[1],
                                monkeypatch)
        # fib's linear blocks end at calls and returns; at the default
        # threshold its callee's head compiles on a recursive call, so
        # the body stores a link value from the prologue's jspci.  Its
        # calls and returns link into one another, so almost every
        # activation starts at a link and few chains end at a jump.
        tally += lockstep_exits(cached_program("fib"), monkeypatch,
                                jit=Machine(MachineConfig(jit=True)))
        assert tally == {"exit": 42, "side": 12, "ltaken": 51,
                         "canonical": 71, "bail": 8, "iexit": 1,
                         "jump": 4, "link": 8333}

    def test_calls_and_returns_match_the_interpreter(self, monkeypatch):
        from repro.isa.opcodes import Opcode
        from repro.workloads import cached_program

        jit = Machine(MachineConfig(jit=True, jit_threshold=2))
        tally = lockstep_exits(cached_program("ackermann"), monkeypatch,
                               jit=jit)
        assert tally["jump"] > 0, tally
        translator = jit.pipeline._translator
        assert translator.stats.shapes["linear/jspci"][1] > 0
        # callee heads and return landings: a resolved jspci in the
        # entry contract's prologue
        assert any(block.instrs[1].opcode == Opcode.JSPCI
                   for block in translator.blocks.values() if block.linear)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SUITE)
    def test_workload_exits_match_the_interpreter(self, name, monkeypatch):
        from repro.workloads import cached_program

        tally = lockstep_exits(cached_program(name), monkeypatch,
                               chunk=1009)
        # loop programs stop at pass boundaries; every other program
        # leaves blocks through calls and returns; every program links
        wanted = (("canonical", "exit", "link") if name in LOOP_PROGRAMS
                  else ("jump", "link"))
        assert all(tally[kind] > 0 for kind in wanted), tally


#: Ecache geometries beside the default: write-back (a write miss
#: allocates and stalls), one- and eight-word lines, and caches small
#: enough that the suite's arrays conflict
ECACHE_GEOMETRIES = {
    "write-back": EcacheConfig(write_through=False),
    "1-word-lines": EcacheConfig(line_words=1, size_words=64),
    "write-back-1-word-lines": EcacheConfig(
        write_through=False, line_words=1, size_words=64),
    "write-back-8-word-lines": EcacheConfig(
        write_through=False, line_words=8, size_words=128, miss_penalty=3),
}


class TestEcacheGeometry:
    """Translated loads and stores probe the Ecache inline, in the
    statements :meth:`~repro.ecache.Ecache.probe_code` writes for the
    cache's geometry and write policy; every geometry stays exact, links
    included, and so does a forced-miss storm, which the inline probe
    does not model: no block enters while one is armed."""

    @pytest.mark.parametrize("geometry", sorted(ECACHE_GEOMETRIES))
    @pytest.mark.parametrize("name", ["sieve", "bubble"])
    def test_store_heavy_program_bit_identical(self, name, geometry):
        from repro.workloads import cached_program

        ecache = ECACHE_GEOMETRIES[geometry]
        program = cached_program(name)
        reference = run(program, ecache=ecache)
        jit = run(program, ecache=ecache, jit=True)
        assert machine_signature(reference) == machine_signature(jit)
        stats = jit.pipeline._translator.stats
        assert stats.links > 0 and stats.cycles > 0
        assert jit.pipeline.ecache.stats.write_misses > 0

    def test_write_back_conflicts_match_at_every_link(self, monkeypatch):
        from repro.workloads import cached_program

        jit = Machine(MachineConfig(
            jit=True, jit_threshold=2,
            ecache=ECACHE_GEOMETRIES["write-back-1-word-lines"]))
        tally = lockstep_exits(cached_program("sieve"), monkeypatch,
                               chunk=1009, jit=jit)
        assert tally["link"] > 0 and tally["canonical"] > 0, tally


    @pytest.mark.parametrize("geometry", ["default", "write-back"])
    def test_forced_miss_storm_armed_mid_run(self, geometry):
        from repro.workloads import cached_program

        program = cached_program("sieve")
        ecache = ECACHE_GEOMETRIES.get(geometry, EcacheConfig())
        machines = []
        for jit in (False, True):
            machine = Machine(MachineConfig(jit=jit, ecache=ecache))
            machine.load_program(program)
            machine.run(30_000)
            machine.ecache.begin_forced_misses(40)
            machines.append(machine)
        reference, jit = machines
        translator = jit.pipeline._translator
        entries = translator.stats.entries
        assert entries > 0
        for machine in machines:
            machine.run()
            assert machine.halted
            assert machine.ecache.fault_forced_events == 40
        assert machine_signature(reference) == machine_signature(jit)
        assert translator.stats.entries > entries


class TestStallFlagAtExit:
    def test_translated_late_miss_leaves_a_data_stall_flag(self):
        # lang seed 3 takes late Ecache misses inside translated passes;
        # the interpreter's last stall was a data stall, so the halted
        # machines' node states (and checkpoint bytes) must agree on it
        generated = _lang_generated(3)
        _, reorganized = _programs_for(generated)
        reference = run_pipeline(reorganized, generated)
        report = check_jit_equivalence(reorganized, generated, reference)
        assert report is None, report.summary()
        assert "stall_is_icache" in machine_signature(reference)["pipeline"]

"""Kernel-lite: an interrupt-driven mini operating system for MIPS-X.

The paper's exception machinery (unvectored transfer to address 0, the
three-deep PC chain, ``jpc``/``jpcrs`` restart -- Section "Exceptions")
exists to make *software* cheap: MIPS-X pushes interrupt dispatch,
context switching, and restart entirely into kernel code.  This module
is that kernel code.  It assembles, together with a handful of user
processes, into a single system-space image that boots at ``_start``,
prints a banner over the simulated UART, arms the periodic timer, and
then multiplexes the CPU between processes with:

* **timer-driven preemption** -- every device interrupt enters the
  handler at address 0, which saves the full register file plus the
  frozen PC chain into the current process control block (PCB) and
  round-robins to the next runnable process;
* **trap-based syscalls** -- processes request kernel services with the
  ABI ``s0 = number, a0/a1 = args, nop, trap`` (results in ``rv``; see
  docs/SOFTWARE.md for why the ``nop`` before ``trap`` is mandatory);
* **blocking I/O** -- ``getc`` with an empty RX FIFO and ``blockread``
  park the process in a wait state; the UART/disk interrupt delivers
  the result into the sleeper's saved registers and marks it runnable.

Everything is deterministic: a given demo produces a bit-identical UART
transmit log under the interpreter, under the JIT, and across a
checkpoint/restore -- the oracle property the device tests pin.

Syscall numbers live in :data:`repro.lang.symbols.SYSCALL_NUMBERS`; the
SPL compiler lowers ``putc``/``getc``/``yield``/``exit`` builtins to the
same trap sequence, so demo processes may be written in SPL and ride the
reorganizer (``trap`` is a scheduling barrier there -- see
``repro.reorg.hazards``).

Register conventions (on top of docs/DESIGN.md's table):

* ``s3`` (r29) is **kernel-reserved**: the handler uses it as the PCB
  pointer without saving it, so processes must never touch it;
* ``s0`` (r26) carries the syscall number and is caller-saved across a
  trap;
* ``gp`` (r31) holds the process index (``cpuid()`` in SPL), which also
  carves the per-process stack.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asm import AsmUnit, Label, Op, Program, Word, parse
from repro.core import Machine, PswBit, perfect_memory_config
from repro.core.config import MachineConfig
from repro.core.pipeline import PipelineStats
from repro.ecache.memory import MemorySystem
from repro.lang.compiler import compile_spl
from repro.lang.symbols import SYSCALL_NUMBERS

# ----------------------------------------------------------------- PCB layout
#: Words per process control block.
PCB_WORDS = 40
#: PCB slot offsets: saved PSW (the interrupted process's ``pswold``),
#: the three frozen PC-chain entries, scheduler state, then the general
#: registers at ``OFF_REGS + n`` for r1..r31 (r29/``s3`` excepted).
OFF_PSW, OFF_PC1, OFF_PC2, OFF_PC3, OFF_STATE = 0, 1, 2, 3, 4
OFF_REGS = 8
#: The kernel-reserved register (``s3``): never saved or restored.
KERNEL_REG = 29

#: Scheduler states stored in ``OFF_STATE``.
STATE_READY, STATE_WAIT_UART, STATE_WAIT_DISK, STATE_DEAD = 0, 1, 2, 3

#: PSW images.  The kernel runs MODE=1 (system), chain frozen, IE off;
#: processes run with the chain shifting and interrupts enabled (which
#: is also what lets translated blocks run for them -- the JIT refuses
#: SHIFT_EN=0 contexts, i.e. the handler itself always interprets).
PSW_KERNEL = 1 << PswBit.MODE
PSW_PROCESS = (1 << PswBit.MODE) | (1 << PswBit.IE) | (1 << PswBit.SHIFT_EN)

#: Exception cause masks the dispatcher tests (cause bits land in the
#: *handler's* PSW -- see ``Pipeline._take_exception``).
CAUSE_TRAP = 1 << PswBit.CAUSE_TRAP
CAUSE_INT = 1 << PswBit.CAUSE_INT


# ----------------------------------------------------------------- demo specs
@dataclasses.dataclass(frozen=True)
class ProcessSpec:
    """One user process: hand-written assembly or SPL source."""

    kind: str                #: ``"asm"`` or ``"spl"``
    source: str              #: assembly text / SPL program text
    entry: str = ""          #: asm entry label (SPL derives ``p{i}__start``)


@dataclasses.dataclass(frozen=True)
class KernelDemo:
    """A bootable multi-process demo with its device stimuli."""

    name: str
    description: str
    processes: Tuple[ProcessSpec, ...]
    feeds: Tuple[Tuple[str, int, int], ...] = ()     #: (text, start, interval)
    sectors: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    timer_interval: int = 97
    expected: str = ""       #: pinned golden UART transmit log


@dataclasses.dataclass
class KernelRun:
    """Result of booting a demo to completion."""

    demo: KernelDemo
    machine: Machine
    uart_log: str
    stats: PipelineStats

    @property
    def matches_expected(self) -> bool:
        """True when the boot log equals the demo's pinned golden log."""
        return self.uart_log == self.demo.expected


# ------------------------------------------------------------- kernel source
def _mmio(config: Optional[MachineConfig] = None) -> Dict[str, int]:
    """Absolute MMIO port addresses for the kernel text."""
    base = (config or MachineConfig()).mmio_base
    return {
        "uart": base + MemorySystem.UART_OFFSET,
        "timer": base + MemorySystem.TIMER_OFFSET,
        "disk": base + MemorySystem.DISK_OFFSET,
        "icu": base + MemorySystem.ICU_OFFSET,
    }


def _saves() -> str:
    """Stores of r1..r31 (minus the kernel register) into the PCB."""
    return "\n".join(
        f"    st r{n}, {OFF_REGS + n}(s3)"
        for n in range(1, 32) if n != KERNEL_REG)


def _restores() -> str:
    """Loads of r1..r31 (minus the kernel register) from the PCB."""
    return "\n".join(
        f"    ld r{n}, {OFF_REGS + n}(s3)"
        for n in range(1, 32) if n != KERNEL_REG)


def _banner_words(demo: KernelDemo) -> str:
    text = f"MIPS-X kernel-lite: {demo.name}\n"
    codes = ", ".join(str(ord(ch)) for ch in text)
    return f"banner_len: .word {len(text)}\nbanner: .word {codes}"


def _pcb_data(count: int) -> str:
    lines = ["proc_table: .word " + ", ".join(f"pcb{i}" for i in range(count))]
    for i in range(count):
        lines.append(f"pcb{i}: .space {PCB_WORDS}")
    lines.append(f"idle_pcb: .space {PCB_WORDS}")
    return "\n".join(lines)


def _boot_process_init(entries: Sequence[str]) -> str:
    """Boot-time PCB initialisation: one context per process.

    A fresh context is three sequential chain entries starting at the
    process entry point, a process PSW, READY state, and the process
    index in the saved ``gp`` slot (``cpuid()``; also the SPL stack
    carve).
    """
    parts = []
    for index, entry in enumerate(entries):
        parts.append(f"""\
    la t0, pcb{index}
    li t1, {PSW_PROCESS}
    st t1, {OFF_PSW}(t0)
    la t2, {entry}
    st t2, {OFF_PC1}(t0)
    addi t3, t2, 1
    st t3, {OFF_PC2}(t0)
    addi t3, t2, 2
    st t3, {OFF_PC3}(t0)
    st r0, {OFF_STATE}(t0)
    li t4, {index}
    st t4, {OFF_REGS + 31}(t0)""")
    return "\n".join(parts)


def _kernel_text(demo: KernelDemo, entries: Sequence[str],
                 config: Optional[MachineConfig] = None) -> str:
    """The complete kernel: vector, handler, scheduler, boot sequence.

    Assembled at address 0 of system space so that every exception --
    MIPS-X is unvectored -- lands on the ``br khandler`` at word 0.
    """
    mmio = _mmio(config)
    nprocs = len(entries)
    return f"""\
# kernel-lite for MIPS-X -- generated by repro.workloads.kernel
# word 0 is the (unvectored) exception vector
vector:
    br khandler
    nop
    nop
# the syscall-skip target: a handler that wants the restart to step
# over a completed trap rewrites the saved pc2 (the trap itself) to
# point here, so the three-instruction restart executes a harmless nop
# in the trap's place
knop:
    nop

# --------------------------------------------------------------- handler
# Entered with MODE=1, IE=0, SHIFT_EN=0; the chain holds the three
# uncompleted PCs, pswold the interrupted PSW.  s3 is kernel-reserved,
# so clobbering it before the register save is legal.
khandler:
    ld s3, cur_pcb
    nop
{_saves()}
    movfrs t0, pswold
    st t0, {OFF_PSW}(s3)
    movfrs t0, pc1
    st t0, {OFF_PC1}(s3)
    movfrs t0, pc2
    st t0, {OFF_PC2}(s3)
    movfrs t0, pc3
    st t0, {OFF_PC3}(s3)
    movfrs t1, psw
    li t2, {CAUSE_TRAP}
    and t2, t1, t2
    bne t2, r0, svc_dispatch
    nop
    nop
    li t2, {CAUSE_INT}
    and t2, t1, t2
    bne t2, r0, irq_dispatch
    nop
    nop
    halt                        # unexpected cause: stop dead

# -------------------------------------------------------------- syscalls
# Saved s0 carries the number, saved a0/a1 the arguments; results are
# written into the sleeper's saved rv slot so the restart picks them up.
svc_dispatch:
    ld t0, {OFF_REGS + 26}(s3)
    nop
    li t1, {SYSCALL_NUMBERS["putc"]}
    beq t0, t1, svc_putc
    nop
    nop
    li t1, {SYSCALL_NUMBERS["getc"]}
    beq t0, t1, svc_getc
    nop
    nop
    li t1, {SYSCALL_NUMBERS["yield"]}
    beq t0, t1, svc_yield
    nop
    nop
    li t1, {SYSCALL_NUMBERS["exit"]}
    beq t0, t1, svc_exit
    nop
    nop
    li t1, {SYSCALL_NUMBERS["blockread"]}
    beq t0, t1, svc_blockread
    nop
    nop
    halt                        # unknown syscall number

svc_putc:
    ld t0, {OFF_REGS + 4}(s3)
    li t1, {mmio["uart"]}
    st t0, 0(t1)
    br svc_skip_resume
    nop
    nop

svc_getc:
    li t1, {mmio["uart"]}
    ld t0, 2(t1)
    nop
    li t2, 1
    and t2, t0, t2
    beq t2, r0, getc_block
    nop
    nop
    ld t0, 1(t1)
    nop
    st t0, {OFF_REGS + 3}(s3)
    br svc_skip_resume
    nop
    nop
getc_block:
    li t0, {STATE_WAIT_UART}
    st t0, {OFF_STATE}(s3)
    st s3, uart_waiter
    br schedule_next
    nop
    nop

svc_yield:
    br svc_skip_sched
    nop
    nop

svc_exit:
    li t0, {STATE_DEAD}
    st t0, {OFF_STATE}(s3)
    ld t0, live_count
    nop
    addi t0, t0, -1
    st t0, live_count
    br schedule_next
    nop
    nop

svc_blockread:
    li t1, {mmio["disk"]}
    ld t0, {OFF_REGS + 4}(s3)
    nop
    st t0, 0(t1)
    ld t0, {OFF_REGS + 5}(s3)
    nop
    st t0, 1(t1)
    li t0, 1
    st t0, 2(t1)
    li t0, {STATE_WAIT_DISK}
    st t0, {OFF_STATE}(s3)
    st s3, disk_waiter
    br schedule_next
    nop
    nop

# Completed-syscall returns: step the restart over the trap (saved pc2
# := knop), then either resume the caller directly or reschedule.
svc_skip_resume:
    la t6, knop
    st t6, {OFF_PC2}(s3)
    br restore_context
    nop
    nop
svc_skip_sched:
    la t6, knop
    st t6, {OFF_PC2}(s3)
    br schedule_next
    nop
    nop

# ------------------------------------------------------------ interrupts
# Read-and-clear the ICU, then service every posted source: the timer
# bumps the tick count, UART RX and disk completion wake their sleeper
# by depositing the result and skipping the sleeper's trap.  Any
# interrupt ends in the scheduler -- that is the preemption.
irq_dispatch:
    li t0, {mmio["icu"]}
    ld t1, 0(t0)
    nop
    li t2, {0x10}
    and t2, t1, t2
    beq t2, r0, irq_no_timer
    nop
    nop
    ld t3, kticks
    nop
    addi t3, t3, 1
    st t3, kticks
irq_no_timer:
    li t2, {0x20}
    and t2, t1, t2
    beq t2, r0, irq_no_uart
    nop
    nop
    ld t4, uart_waiter
    nop
    beq t4, r0, irq_no_uart
    nop
    nop
    li t5, {mmio["uart"]}
    ld t6, 2(t5)
    nop
    li t7, 1
    and t7, t6, t7
    beq t7, r0, irq_no_uart
    nop
    nop
    ld t6, 1(t5)
    nop
    st t6, {OFF_REGS + 3}(t4)
    la t6, knop
    st t6, {OFF_PC2}(t4)
    st r0, {OFF_STATE}(t4)
    st r0, uart_waiter
irq_no_uart:
    li t2, {0x40}
    and t2, t1, t2
    beq t2, r0, irq_no_disk
    nop
    nop
    ld t4, disk_waiter
    nop
    beq t4, r0, irq_no_disk
    nop
    nop
    la t6, knop
    st t6, {OFF_PC2}(t4)
    st r0, {OFF_STATE}(t4)
    st r0, disk_waiter
irq_no_disk:
    br schedule_next
    nop
    nop

# -------------------------------------------------------------- scheduler
# Round-robin starting after the current slot.  No runnable process and
# live processes remaining -> synthesize an idle context (interrupts
# stay enabled there, so the next tick re-enters the scheduler); no
# live processes at all -> halt the machine.
schedule_next:
    ld t0, cur_idx
    ld t1, nprocs
    li t2, 0
sched_loop:
    bge t2, t1, sched_none
    nop
    nop
    addi t0, t0, 1
    blt t0, t1, sched_nowrap
    nop
    nop
    li t0, 0
sched_nowrap:
    la t3, proc_table
    add t4, t3, t0
    ld t4, 0(t4)
    nop
    ld t5, {OFF_STATE}(t4)
    nop
    bne t5, r0, sched_next_try
    nop
    nop
    st t0, cur_idx
    mov s3, t4
    br restore_context
    nop
    nop
sched_next_try:
    addi t2, t2, 1
    br sched_loop
    nop
    nop
sched_none:
    ld t0, live_count
    nop
    beq t0, r0, kernel_halt
    nop
    nop
    la t4, idle_pcb
    li t5, {PSW_PROCESS}
    st t5, {OFF_PSW}(t4)
    la t5, idle_loop
    st t5, {OFF_PC1}(t4)
    addi t6, t5, 1
    st t6, {OFF_PC2}(t4)
    addi t6, t5, 2
    st t6, {OFF_PC3}(t4)
    mov s3, t4
    br restore_context
    nop
    nop
kernel_halt:
    halt
idle_loop:
    br idle_loop
    nop
    nop

# --------------------------------------------------------- context restore
# First freeze the chain (li/movtos psw: MODE only) so the three movtos
# chain writes are not re-shifted away -- this makes the path safe from
# both the handler (chain already frozen) and cold boot (chain still
# shifting).  Then reload pswold + chain + registers and fire the
# canonical three-instruction return: jpc, jpc, jpcrs.
restore_context:
    li t0, {PSW_KERNEL}
    movtos psw, t0
    st s3, cur_pcb
    ld t0, {OFF_PSW}(s3)
    nop
    movtos pswold, t0
    ld t0, {OFF_PC1}(s3)
    nop
    movtos pc1, t0
    ld t0, {OFF_PC2}(s3)
    nop
    movtos pc2, t0
    ld t0, {OFF_PC3}(s3)
    nop
    movtos pc3, t0
{_restores()}
    jpc
    jpc
    jpcrs

# ------------------------------------------------------------------- boot
_start:
    li t0, {mmio["uart"]}
    la t1, banner
    ld t2, banner_len
    nop
    li t3, 0
boot_banner:
    bge t3, t2, boot_banner_done
    nop
    nop
    add t4, t1, t3
    ld t4, 0(t4)
    nop
    st t4, 0(t0)
    addi t3, t3, 1
    br boot_banner
    nop
    nop
boot_banner_done:
{_boot_process_init(entries)}
    li t0, {mmio["timer"]}
    li t1, {demo.timer_interval}
    st t1, 0(t0)
    li t1, 3
    st t1, 1(t0)
    li t0, {mmio["uart"]}
    li t1, 1
    st t1, 3(t0)
    la s3, pcb0
    br restore_context
    nop
    nop

# ------------------------------------------------------------- kernel data
cur_pcb:    .word 0
cur_idx:    .word 0
live_count: .word {nprocs}
uart_waiter: .word 0
disk_waiter: .word 0
kticks:     .word 0
nprocs:     .word {nprocs}
mbox:       .word 0
diskbuf:    .space 16
{_banner_words(demo)}
{_pcb_data(nprocs)}
"""


# --------------------------------------------------------------- SPL merging
def _prefix_unit(unit: AsmUnit, prefix: str) -> AsmUnit:
    """Rename every symbol in a compiled SPL unit with a process prefix.

    SPL units are closed (all their symbols are unit-local), so a blanket
    rename of labels, branch/load targets, and symbolic ``.word`` values
    makes any number of SPL processes coexist in one kernel image.
    """
    out = AsmUnit()
    for item in unit.items:
        if isinstance(item, Label):
            out.items.append(Label(prefix + item.name))
        elif isinstance(item, Op):
            target = prefix + item.target if item.target else None
            out.items.append(Op(item.instr, target=target, source=item.source))
        elif isinstance(item, Word):
            out.items.append(Word([
                prefix + value if isinstance(value, str) else value
                for value in item.values]))
        else:
            out.items.append(item)
    return out


def build_kernel_program(demo: KernelDemo,
                         config: Optional[MachineConfig] = None) -> Program:
    """Assemble kernel + processes for a demo into one bootable image."""
    entries: List[str] = []
    units: List[AsmUnit] = []
    for index, proc in enumerate(demo.processes):
        if proc.kind == "asm":
            entries.append(proc.entry)
            units.append(parse(proc.source))
        else:
            compiled = compile_spl(proc.source, node_stack_words=1024)
            entries.append(f"p{index}__start")
            units.append(_prefix_unit(compiled.unit, f"p{index}_"))
    kernel = parse(_kernel_text(demo, entries, config))
    for unit in units:
        kernel.extend(unit)
    return kernel.assemble(entry="_start")


# -------------------------------------------------------------------- demos
_GREETER_ASM = """\
# process 0: print "ready\\n" through putc syscalls, then exit
p0_entry:
    la t8, p0_msg
    ld t9, p0_len
    nop
    li t10, 0
p0_loop:
    bge t10, t9, p0_done
    nop
    nop
    add t11, t8, t10
    ld a0, 0(t11)
    li s0, 1
    nop
    trap
    addi t10, t10, 1
    br p0_loop
    nop
    nop
p0_done:
    li s0, 4
    nop
    trap
p0_len: .word 6
p0_msg: .word 114, 101, 97, 100, 121, 10
"""

_ECHO_ASM = """\
# process 1: echo UART input until the '!' sentinel, then exit.  getc
# blocks in the kernel while the RX FIFO is empty; the UART interrupt
# delivers each character into this process's saved rv slot.
p1_entry:
p1_loop:
    li s0, 2
    nop
    trap
    mov t8, rv
    li s0, 1
    mov a0, t8
    nop
    trap
    li t9, 33
    beq t8, t9, p1_done
    nop
    nop
    br p1_loop
    nop
    nop
p1_done:
    li s0, 4
    nop
    trap
"""

_PRODUCER_ASM = """\
# process 0: DMA sector 7 into diskbuf (word 0 = length), then push the
# characters one at a time through the mbox word, yielding while full.
# A value of 1 in the mbox is the end-of-stream sentinel.
p0_entry:
    li a0, 7
    la a1, diskbuf
    li s0, 5
    nop
    trap
    ld t8, diskbuf
    nop
    li t9, 0
p0_loop:
    bge t9, t8, p0_flush
    nop
    nop
    la t10, diskbuf
    add t10, t10, t9
    ld t10, 1(t10)
    nop
p0_wait:
    ld t11, mbox
    nop
    beq t11, r0, p0_send
    nop
    nop
    li s0, 3
    nop
    trap
    br p0_wait
    nop
    nop
p0_send:
    st t10, mbox
    addi t9, t9, 1
    br p0_loop
    nop
    nop
p0_flush:
    ld t11, mbox
    nop
    beq t11, r0, p0_eof
    nop
    nop
    li s0, 3
    nop
    trap
    br p0_flush
    nop
    nop
p0_eof:
    li t10, 1
    st t10, mbox
    li s0, 4
    nop
    trap
"""

_CONSUMER_ASM = """\
# process 1: drain the mbox, upper-case a..z, putc each character;
# exit on the sentinel value 1.
p1_entry:
p1_poll:
    ld t8, mbox
    nop
    bne t8, r0, p1_got
    nop
    nop
    li s0, 3
    nop
    trap
    br p1_poll
    nop
    nop
p1_got:
    st r0, mbox
    li t9, 1
    beq t8, t9, p1_done
    nop
    nop
    li t9, 97
    blt t8, t9, p1_put
    nop
    nop
    li t9, 122
    bgt t8, t9, p1_put
    nop
    nop
    addi t8, t8, -32
p1_put:
    mov a0, t8
    li s0, 1
    nop
    trap
    br p1_poll
    nop
    nop
p1_done:
    li s0, 4
    nop
    trap
"""

_SLICE_SPL = """
program slice;
var i, j, total, d;
begin
    total := 0;
    for i := 1 to 60 do begin
        for j := 1 to 5 do begin
            total := total + i + j;
        end;
    end;
    putc('S'); putc('U'); putc('M'); putc('=');
    d := 10000;
    while d > 0 do begin
        putc(48 + (total div d) mod 10);
        d := d div 10;
    end;
    putc(10);
    exit();
end.
"""

_TICKER_ASM = """\
# process 1: print eight dots, spinning ~120 iterations between them so
# the timer slices the SPL compute process in between.  The spin loop is
# pure compute -- it is exactly the kind of hot back-edge the JIT
# translates while the process PSW has SHIFT_EN set.
p1_entry:
    li t8, 0
    li t9, 8
p1_tick:
    bge t8, t9, p1_done
    nop
    nop
    li a0, 46
    li s0, 1
    nop
    trap
    li t10, 120
p1_delay:
    addi t10, t10, -1
    bne t10, r0, p1_delay
    nop
    nop
    addi t8, t8, 1
    br p1_tick
    nop
    nop
p1_done:
    li s0, 4
    nop
    trap
"""


def _sector_words(text: str) -> Tuple[int, ...]:
    """Disk image for the pipeline demo: word 0 length, then characters."""
    return (len(text),) + tuple(ord(ch) for ch in text)


KERNEL_DEMOS: Dict[str, KernelDemo] = {
    "kernel-echo": KernelDemo(
        name="kernel-echo",
        description=("greeter prints over UART while an echo process "
                     "blocks on getc; fed input is echoed back until the "
                     "'!' sentinel"),
        processes=(
            ProcessSpec("asm", _GREETER_ASM, entry="p0_entry"),
            ProcessSpec("asm", _ECHO_ASM, entry="p1_entry"),
        ),
        feeds=(("mips-x rocks!", 20000, 200),),
        expected="MIPS-X kernel-lite: kernel-echo\nready\nmips-x rocks!",
    ),
    "kernel-pipeline": KernelDemo(
        name="kernel-pipeline",
        description=("producer DMAs a disk sector and streams it through "
                     "a shared mailbox to a consumer that upper-cases and "
                     "prints it"),
        processes=(
            ProcessSpec("asm", _PRODUCER_ASM, entry="p0_entry"),
            ProcessSpec("asm", _CONSUMER_ASM, entry="p1_entry"),
        ),
        sectors=((7, _sector_words("mips-x!")),),
        expected="MIPS-X kernel-lite: kernel-pipeline\nMIPS-X!",
    ),
    "kernel-slice": KernelDemo(
        name="kernel-slice",
        description=("an SPL compute process is timer-sliced against an "
                     "assembly ticker printing dots; exercises SPL "
                     "syscall builtins and the JIT under preemption"),
        processes=(
            ProcessSpec("spl", _SLICE_SPL),
            ProcessSpec("asm", _TICKER_ASM, entry="p1_entry"),
        ),
        expected="MIPS-X kernel-lite: kernel-slice\n........SUM=10050\n",
    ),
}


# -------------------------------------------------------------------- runner
def kernel_machine(name: str,
                   config: Optional[MachineConfig] = None) -> Machine:
    """A machine ready to boot kernel demo ``name``: its image loaded,
    its disk sectors written and its UART feeds scheduled.

    Bypasses the workload registry on purpose: kernel images carry
    hand-scheduled delay slots and a pinned trap ABI, so they must not
    pass through the reorganizer again.
    """
    demo = KERNEL_DEMOS[name]
    config = config or perfect_memory_config()
    machine = Machine(config)
    machine.load_program(build_kernel_program(demo, config))
    for sector, words in demo.sectors:
        machine.memory.disk.load(sector, list(words))
    for text, start, interval in demo.feeds:
        machine.memory.uart.feed(text, start=start, interval=interval)
    return machine


def run_kernel_demo(name: str, config: Optional[MachineConfig] = None,
                    max_cycles: int = 2_000_000) -> KernelRun:
    """Boot a kernel demo to completion and return its UART log."""
    machine = kernel_machine(name, config)
    stats = machine.run(max_cycles)
    return KernelRun(demo=KERNEL_DEMOS[name], machine=machine,
                     uart_log=machine.memory.uart.tx_text, stats=stats)


def boot_demo_source(config: Optional[MachineConfig] = None) -> str:
    """Standalone assembly for the echo demo (the checked-in examples/boot.s).

    The echo demo is pure assembly, so kernel + processes concatenate
    into one file that ``repro run --devices examples/boot.s`` can
    assemble and boot directly.
    """
    demo = KERNEL_DEMOS["kernel-echo"]
    entries = [proc.entry for proc in demo.processes]
    parts = [_kernel_text(demo, entries, config)]
    parts.extend(proc.source for proc in demo.processes)
    return "\n".join(parts)


#: Default UART stimulus for ``repro run --devices`` on raw images
#: (mirrors the echo demo's feed).
DEFAULT_BOOT_FEED = KERNEL_DEMOS["kernel-echo"].feeds[0]

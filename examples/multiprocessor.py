#!/usr/bin/env python3
"""The project's end goal: MIPS-X nodes in a shared-memory multiprocessor.

"The goal of the MIPS-X project was to ... build a single processor with a
peak rate of 20 MIPS and then to use 6-10 of these processors as the nodes
in a shared memory multiprocessor.  The resulting machine would be about
two orders of magnitude more powerful than a VAX 11/780."

This example runs a parallel reduction on 1, 2, 4 and 8 nodes (each node
sums a strided share of an array; node 0 combines), measures the speedup,
and then multiplies it by the single-node VAX comparison to check the
paper's two-orders-of-magnitude arithmetic.
"""

from repro.asm import assemble
from repro.core import MachineConfig
from repro.multi import MultiMachine

N = 512
VALUES = [(7 * i + 3) % 101 for i in range(N)]

# strided: node k touches data[k], data[k+ncpu], ... -- one word per
# Ecache line, no reuse, every load a bus transaction
STRIDED_LOOP = """
    li   s0, 0
    mov  t0, gp
    li   s2, {n}
sumloop:
    la   t1, data
    add  t1, t1, t0
    ld   t2, 0(t1)
    nop
    add  s0, s0, t2
    addi t0, t0, {ncpu}
    blt  t0, s2, sumloop
    nop
    nop
"""

# blocked: node k sums a contiguous chunk -- four words per line fetched,
# a quarter of the bus traffic
BLOCKED_LOOP = """
    li   s0, 0
    mov  t9, gp
    sll  t9, t9, {chunk_shift}   ; start = gp * chunk
    mov  t0, t9
    addi s2, t9, {chunk}         ; end = start + chunk
sumloop:
    la   t1, data
    add  t1, t1, t0
    ld   t2, 0(t1)
    nop
    add  s0, s0, t2
    addi t0, t0, 1
    blt  t0, s2, sumloop
    nop
    nop
"""

SOURCE_TEMPLATE = """
_start:
{loop}
    la   t3, partial
    add  t3, t3, gp
    st   s0, 0(t3)
    la   t4, done
    add  t4, t4, gp
    li   t5, 1
    st   t5, 0(t4)
    bne  gp, r0, finish
    nop
    nop
    li   t6, 0
waitloop:
    la   t7, done
    add  t7, t7, t6
    ld   t8, 0(t7)
    nop
    beq  t8, r0, waitloop
    nop
    nop
    addi t6, t6, 1
    li   t9, {ncpu}
    blt  t6, t9, waitloop
    nop
    nop
    li   s1, 0
    li   t6, 0
combine:
    la   t7, partial
    add  t7, t7, t6
    ld   t8, 0(t7)
    nop
    add  s1, s1, t8
    addi t6, t6, 1
    blt  t6, t9, combine
    nop
    nop
    li   a0, 0x3FFFF0
    st   s1, 0(a0)
finish:
    halt
partial: .space {ncpu}
done:    .space {ncpu}
data:    .word {data}
"""


def run(ncpu, blocked):
    import math

    chunk = N // ncpu
    loop = (BLOCKED_LOOP.format(chunk=chunk,
                                chunk_shift=int(math.log2(chunk)))
            if blocked else STRIDED_LOOP.format(n=N, ncpu=ncpu))
    source = SOURCE_TEMPLATE.format(
        loop=loop, n=N, ncpu=ncpu, data=", ".join(map(str, VALUES)))
    system = MultiMachine(ncpu, MachineConfig())
    system.load_program(assemble(source))
    system.run(20_000_000)
    assert system.all_halted
    assert system.console.values == [sum(VALUES)], system.console.values
    return system


print(f"parallel sum of {N} words, answer = {sum(VALUES)}\n")
baseline = None
for blocked in (False, True):
    label = "blocked (contiguous chunks)" if blocked else \
        "strided (one word per cache line: bus-bound)"
    print(f"--- {label} ---")
    print(f"{'nodes':>5}  {'cycles':>8}  {'speedup':>7}  "
          f"{'bus waits':>9}")
    for ncpu in (1, 2, 4, 8):
        system = run(ncpu, blocked)
        if baseline is None:
            baseline = system.cycles
        print(f"{ncpu:>5}  {system.cycles:>8}  "
              f"{baseline / system.cycles:>7.2f}"
              f"  {system.bus.contention_cycles:>9}")
    print()

speedup8 = baseline / run(8, blocked=True).cycles
single_vs_vax = 14.9  # E13: the vax/* rows of BENCH_pipeline.json
print(f"\nthe paper's arithmetic: one node is ~{single_vs_vax:.0f}x a "
      f"VAX 11/780;")
print(f"eight nodes at {speedup8:.1f}x parallel speedup ~= "
      f"{single_vs_vax * speedup8:.0f}x a VAX -- "
      "the 'two orders of magnitude' target")

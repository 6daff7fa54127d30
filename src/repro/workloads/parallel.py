"""Parallel SPL workloads for the shared-memory multiprocessor.

Three programs, each parameterized by node count and self-checking its
result, written the way 1987-era shared-memory software had to be on a
machine with no atomic read-modify-write (sequential consistency plus
classic algorithms):

* **psieve** -- the sieve of Eratosthenes with static block
  partitioning: every node initialises and later counts its own block,
  node 0 serially finalises the prime prefix ``[2..sqrt(SIZE)]``, then
  all nodes mark composites in their blocks in parallel.  Phases are
  separated by a flag-array barrier (each node writes only its own
  ``arrive`` slot and spins on the others -- SC-safe without atomics).
* **pintmm** -- integer matrix multiply with static row-block
  partitioning and the same barrier; the checksum over the product
  matrix is node-count invariant.
* **pring** -- a producer-consumer ring: node ``i`` produces into ring
  buffer ``i`` and consumes from buffer ``i-1 mod n``, every buffer
  guarded by a 2-process **Peterson lock** between its producer and its
  consumer.  Capacity >= 2 makes the ring deadlock-free (each node
  alternates produce/consume, so at most one slot per node is in excess
  and the buffers can never all be full).  Node 0 writes the summed
  ordering-error count and the checksum delta -- ``[0, 0]`` on success
  for every node count.

All three bake their constants (node count, problem size) into the
generated source and write results to the console **only from node 0
after a barrier**, so the output is deterministic and -- by
construction -- identical across node counts, which is what the
bench campaign's multi bit-equality gate leans on.

Programs are compiled with the multiprocessor prologue
(``node_stack_words``), giving each node a private stack below the
shared stack top; on one node (``cpuid() == 0``) the image degrades to
the plain uniprocessor layout, so the ``ncpu=1`` variants also register
in the ordinary workload suite.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.asm.unit import Program
from repro.lang.codegen import NODE_STACK_WORDS
from repro.lang.compiler import compile_spl

#: the parallel workload names, in registry order
PARALLEL_WORKLOADS = ("psieve", "pintmm", "pring")

#: default problem sizes (psieve: sieve bound; pintmm: matrix dim;
#: pring: items per node)
DEFAULT_SIZES = {"psieve": 600, "pintmm": 12, "pring": 40}

#: reduced sizes for --quick sweeps and CI smoke jobs
QUICK_SIZES = {"psieve": 240, "pintmm": 8, "pring": 16}

#: ring-buffer capacity (>= 2 keeps the ring deadlock-free)
RING_CAPACITY = 4

_BARRIER = """
proc barrier(phase);
var j, v;
begin
    arrive[cpuid()] := phase;
    for j := 0 to {last} do begin
        v := 0;
        while v < phase do v := arrive[j];
    end;
end;
"""


def _sieve_source(ncpu: int, size: int) -> str:
    sqrt = int(size ** 0.5)
    chunk = -(-(size - 1) // ncpu)      # ceil((size-1)/ncpu) numbers/node
    barrier = _BARRIER.format(last=ncpu - 1)
    return f"""
program psieve;
var flags[{size + 1}], arrive[{ncpu}], partial[{ncpu}];
{barrier}
proc worker(me);
var lo, hi, i, p, k, count;
begin
    lo := 2 + me * {chunk};
    hi := lo + {chunk - 1};
    if hi > {size} then hi := {size};
    {{ phase 0: every node initialises its own block }}
    if lo <= hi then
        for i := lo to hi do flags[i] := 1;
    barrier(1);
    {{ phase 1: node 0 serially finalises the prime prefix [2..sqrt] }}
    if me = 0 then
        for p := 2 to {sqrt} do
            if flags[p] = 1 then begin
                k := p * p;
                while k <= {sqrt} do begin
                    flags[k] := 0;
                    k := k + p;
                end;
            end;
    barrier(2);
    {{ phase 2: every node marks composites inside its own block }}
    for p := 2 to {sqrt} do
        if flags[p] = 1 then begin
            k := p * p;
            if k < lo then k := ((lo + p - 1) div p) * p;
            while k <= hi do begin
                flags[k] := 0;
                k := k + p;
            end;
        end;
    barrier(3);
    {{ phase 3: per-node prime counts; node 0 combines and reports }}
    count := 0;
    if lo <= hi then
        for i := lo to hi do
            if flags[i] = 1 then count := count + 1;
    partial[me] := count;
    barrier(4);
    if me = 0 then begin
        count := 0;
        for i := 0 to {ncpu - 1} do count := count + partial[i];
        write(count);
    end;
end;

begin
    worker(cpuid());
end.
"""


def _intmm_source(ncpu: int, dim: int) -> str:
    rows = -(-dim // ncpu)              # ceil(dim/ncpu) rows per node
    barrier = _BARRIER.format(last=ncpu - 1)
    return f"""
program pintmm;
var ima[{dim * dim}], imb[{dim * dim}], imr[{dim * dim}],
    arrive[{ncpu}], partial[{ncpu}];
{barrier}
proc worker(me);
var lo, hi, i, j, k, t, sum;
begin
    lo := me * {rows};
    hi := lo + {rows - 1};
    if hi > {dim - 1} then hi := {dim - 1};
    {{ each node initialises its own row block of both operands }}
    if lo <= hi then
        for i := lo to hi do
            for j := 0 to {dim - 1} do begin
                t := i * {dim} + j;
                ima[t] := (t * 7 + 3) mod 31 - 15;
                imb[t] := (t * 5 + 11) mod 29 - 14;
            end;
    barrier(1);
    {{ row-partitioned product }}
    if lo <= hi then
        for i := lo to hi do
            for j := 0 to {dim - 1} do begin
                sum := 0;
                for k := 0 to {dim - 1} do
                    sum := sum + ima[i * {dim} + k] * imb[k * {dim} + j];
                imr[i * {dim} + j] := sum;
            end;
    barrier(2);
    {{ per-node checksums; node 0 combines and reports }}
    sum := 0;
    if lo <= hi then
        for i := lo to hi do
            for j := 0 to {dim - 1} do
                sum := sum + imr[i * {dim} + j];
    partial[me] := sum;
    barrier(3);
    if me = 0 then begin
        sum := 0;
        for i := 0 to {ncpu - 1} do sum := sum + partial[i];
        write(sum);
    end;
end;

begin
    worker(cpuid());
end.
"""


def _ring_source(ncpu: int, items: int) -> str:
    cap = RING_CAPACITY
    barrier = _BARRIER.format(last=ncpu - 1)
    return f"""
program pring;
var qbuf[{ncpu * cap}], qhead[{ncpu}], qtail[{ncpu}], qcount[{ncpu}],
    pflag[{ncpu * 2}], pturn[{ncpu}],
    arrive[{ncpu}], sums[{ncpu}], errs[{ncpu}];
{barrier}
{{ 2-process Peterson lock per ring buffer: role 0 = producer (the
  buffer's owner node), role 1 = consumer (the next node around) }}
proc lock(b, role);
var other, v;
begin
    other := 1 - role;
    pflag[b * 2 + role] := 1;
    pturn[b] := other;
    v := 1;
    while v = 1 do begin
        v := 0;
        if pflag[b * 2 + other] = 1 then
            if pturn[b] = other then v := 1;
    end;
end;

proc unlock(b, role);
begin
    pflag[b * 2 + role] := 0;
end;

proc produce(b, value);
var done, c;
begin
    done := 0;
    while done = 0 do begin
        lock(b, 0);
        c := qcount[b];
        if c < {cap} then begin
            qbuf[b * {cap} + qhead[b]] := value;
            qhead[b] := qhead[b] + 1;
            if qhead[b] >= {cap} then qhead[b] := 0;
            qcount[b] := c + 1;
            done := 1;
        end;
        unlock(b, 0);
    end;
end;

func consume(b);
var v, c, got;
begin
    got := 0;
    while got = 0 do begin
        lock(b, 1);
        c := qcount[b];
        if c > 0 then begin
            v := qbuf[b * {cap} + qtail[b]];
            qtail[b] := qtail[b] + 1;
            if qtail[b] >= {cap} then qtail[b] := 0;
            qcount[b] := c - 1;
            got := 1;
        end;
        unlock(b, 1);
    end;
    return v;
end;

proc worker(me);
var prev, i, v, sum, err;
begin
    prev := me - 1;
    if prev < 0 then prev := {ncpu - 1};
    sum := 0;
    err := 0;
    barrier(1);
    for i := 1 to {items} do begin
        produce(me, me * 4096 + i);
        v := consume(prev);
        if v <> prev * 4096 + i then err := err + 1;
        sum := sum + v;
    end;
    sums[me] := sum;
    errs[me] := err;
    barrier(2);
    if me = 0 then begin
        err := 0;
        sum := 0;
        for i := 0 to {ncpu - 1} do begin
            err := err + errs[i];
            sum := sum + sums[i];
        end;
        {{ recompute the expected checksum; the report is n-invariant }}
        for i := 0 to {ncpu - 1} do begin
            prev := i * 4096;
            for v := 1 to {items} do sum := sum - prev - v;
        end;
        write(err);
        write(sum);
    end;
end;

begin
    worker(cpuid());
end.
"""


_SOURCES = {"psieve": _sieve_source, "pintmm": _intmm_source,
            "pring": _ring_source}


def parallel_source(name: str, ncpu: int, size: int = None) -> str:
    """Generated SPL source for ``name`` at ``ncpu`` nodes.

    ``size`` overrides the workload's default problem size (sieve
    bound / matrix dimension / items per node).
    """
    if name not in _SOURCES:
        raise KeyError(f"unknown parallel workload {name!r}; "
                       f"available: {sorted(_SOURCES)}")
    if not 1 <= ncpu <= 16:
        raise ValueError("ncpu must be between 1 and 16")
    return _SOURCES[name](ncpu, size or DEFAULT_SIZES[name])


@functools.lru_cache(maxsize=None)
def parallel_program(name: str, ncpu: int, size: int = None) -> Program:
    """Compiled+reorganized image for ``name`` at ``ncpu`` nodes, cached.

    Compiled with the per-node stack prologue
    (:data:`repro.lang.codegen.NODE_STACK_WORDS`) so the image runs on a
    :class:`~repro.multi.system.MultiMachine` of any node count up to
    ``ncpu``'s bake-in.
    """
    source = parallel_source(name, ncpu, size)
    return compile_spl(source,
                       node_stack_words=NODE_STACK_WORDS).program()


def expected_console(name: str, ncpu: int, size: int = None) -> List[int]:
    """Independently computed expected console output.

    Deliberately node-count invariant for all three workloads (pring
    reports error counts and a checksum *delta*), so any run can be
    compared bit-for-bit against the single-node reference.
    """
    if name not in _SOURCES:
        raise KeyError(f"unknown parallel workload {name!r}")
    size = size or DEFAULT_SIZES[name]
    if name == "psieve":
        flags = [True] * (size + 1)
        for p in range(2, int(size ** 0.5) + 1):
            if flags[p]:
                for k in range(p * p, size + 1, p):
                    flags[k] = False
        return [sum(1 for i in range(2, size + 1) if flags[i])]
    if name == "pintmm":
        dim = size
        a = [((t * 7 + 3) % 31) - 15 for t in range(dim * dim)]
        b = [((t * 5 + 11) % 29) - 14 for t in range(dim * dim)]
        checksum = 0
        for i in range(dim):
            for j in range(dim):
                checksum += sum(a[i * dim + k] * b[k * dim + j]
                                for k in range(dim))
        return [checksum]
    return [0, 0]   # pring: zero ordering errors, zero checksum delta


#: name -> (ncpu=1 source, expected console) for the workload registry
PARALLEL_PROGRAMS: Dict[str, tuple] = {
    name: (parallel_source(name, 1), expected_console(name, 1))
    for name in PARALLEL_WORKLOADS
}

"""Host-speed sampling: measured seconds at a reference host speed.

Shared hosts slow a process down by up to ~2x in bursts lasting from a
tenth of a second to minutes, which no affordable run length averages
away.  While a :class:`HostMeter` samples, a ``SIGALRM`` handler times
one of two fixed loops every :attr:`HostMeter.INTERVAL_S`, taking them
in turn; an interval's seconds scaled by how slowly the loops ran
meanwhile are what the interval would have taken at the reference
speed -- the speed at which each loop takes
:attr:`HostMeter.REFERENCE_LOOP_S`.

The scale is only as good as the loops' likeness to the measured code.
A burst of one kind slows a tight arithmetic loop more than the
simulator, and one of another kind slows a loop that dispatches through
methods and dictionaries more; so the scale is the geometric mean of
the two loops' rates.  In a busy stretch on the recorded host, whole
passes of the JIT suite spread 4.9% scaled by the arithmetic loop
alone, 6.8% by the dispatch loop alone and 1.8% by both (27.7%
unscaled).  The loops' speed also depends
on what shares the CPU and its caches with them, the simulator
included, so a change to the simulator can move the scale a little.
``compare`` therefore applies its rules to the unscaled wall-clock
readings too and reports where the two disagree.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import signal
import statistics
import time
from typing import Any, Dict, List, Tuple


def _arith(turns: int) -> int:
    total = 0
    for i in range(turns):
        total += i * i % 7
    return total


class _Toy:
    """A four-instruction register machine: calls through bound methods,
    list and dictionary traffic."""

    __slots__ = ("regs", "pc", "memory", "ops")

    def __init__(self):
        self.regs = [0] * 32
        self.pc = 0
        self.memory: Dict[int, int] = {}
        self.ops = (self.add, self.load, self.store, self.branch)

    def add(self, a, b, c):
        self.regs[a] = (self.regs[b] + self.regs[c & 31] + 1) & 0xFFFFFFFF

    def load(self, a, b, c):
        self.regs[a] = self.memory.get((self.regs[b] + c) & 0xFFF, 0)

    def store(self, a, b, c):
        self.memory[(self.regs[b] + c) & 0xFFF] = self.regs[a]

    def branch(self, a, b, c):
        if self.regs[a] & 1:
            self.pc = (self.pc + c) % 64


_TOY_PROGRAM = tuple((i % 4, i * 7 % 32, i * 13 % 32, i * 29 % 64)
                     for i in range(64))


def _dispatch(turns: int) -> None:
    machine = _Toy()
    ops, program = machine.ops, _TOY_PROGRAM
    for _ in range(turns):
        op, a, b, c = program[machine.pc]
        machine.pc = (machine.pc + 1) % 64
        ops[op](a, b, c)


class HostMeter:
    """Samples how fast the host runs Python."""

    INTERVAL_S = 0.02
    #: (loop, turns): each takes about REFERENCE_LOOP_S at reference speed
    LOOPS: Tuple[Tuple[Any, int], ...] = ((_arith, 1500), (_dispatch, 500))
    REFERENCE_LOOP_S = 100e-6

    def __init__(self):
        #: per loop, the end time and duration of each of its samples
        self.ends: Tuple[List[float], ...] = tuple([] for _ in self.LOOPS)
        self.durations: Tuple[List[float], ...] = tuple(
            [] for _ in self.LOOPS)
        self._turn = 0

    def _sample(self, signum, frame) -> None:
        which = self._turn % len(self.LOOPS)
        self._turn += 1
        loop, turns = self.LOOPS[which]
        started = time.perf_counter()
        loop(turns)
        ended = time.perf_counter()
        self.ends[which].append(ended)
        self.durations[which].append(ended - started)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _rate(self, which: int, start: float, end: float) -> float:
        """One loop's mean rate over ``[start, end]``, relative to the
        reference (its nearest earlier sample for an interval shorter
        than the period)."""
        ends, durations = self.ends[which], self.durations[which]
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(ends, end)
        inside = (durations[lo:hi] or durations[max(0, hi - 1):hi]
                  or [self.REFERENCE_LOOP_S])
        return self.REFERENCE_LOOP_S * statistics.fmean(
            1.0 / duration for duration in inside)

    def speed_scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``: the
        geometric mean of the loops' rates."""
        return math.prod(self._rate(which, start, end)
                         for which in range(len(self.LOOPS))
                         ) ** (1.0 / len(self.LOOPS))

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` less the sampling inside it, at reference speed."""
        sampling = 0.0
        for ends, durations in zip(self.ends, self.durations):
            sampling += sum(durations[bisect.bisect_left(ends, start):
                                      bisect.bisect_right(ends, end)])
        return (end - start - sampling) * self.speed_scale(start, end)


def metered_job(fn: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Runner job wrapper: ``fn(**params)`` under a meter in the worker.

    The Runner's worker processes run on the host's other CPU, where the
    measuring process's own meter cannot see them; each job reports its
    own wall and reference seconds beside its value.
    """
    from repro.harness.runner import resolve

    meter = HostMeter()
    with meter.sampling():
        started = time.perf_counter()
        value = resolve(fn)(**params)
        ended = time.perf_counter()
    return {"value": value, "wall_s": ended - started,
            "reference_s": meter.reference_seconds(started, ended)}


def startup_seconds(meter: HostMeter, spawned: float,
                    started: float) -> Dict[str, float]:
    """A fresh process's seconds from its spawn until now.

    ``spawned`` is the parent's ``time.monotonic()`` taken just before it
    started the process (the clock is system-wide); ``started`` is the
    ``time.perf_counter()`` at which ``meter`` began sampling.  The
    interpreter's start, before the meter ran, is taken to have run at
    the speed the rest ran at.  Returns the scaled and the wall seconds.
    """
    ready = time.perf_counter()
    wall = time.monotonic() - spawned
    scaled = (meter.reference_seconds(started, ready)
              + (wall - (ready - started)) * meter.speed_scale(started, ready))
    return {"setup_s": scaled, "wall_setup_s": wall}


def main(argv=None) -> int:
    """The reference start-up: start the interpreter and import numpy.

    Every benchmark process starts an interpreter and loads numpy, and
    no change to the program can change what that costs the reference
    start-up, which runs none of the program's code.  On a shared host
    its time grows by as much as
    0.08 s (80%) for minutes at a time without the meter seeing it, and
    every set-up grows with it; so ``run.py`` times it beside every
    set-up and takes it out of ``setup_s``.
    """
    parser = argparse.ArgumentParser(prog="python -m perfbench.meter")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    meter = HostMeter()
    with meter.sampling():
        started = time.perf_counter()
        import numpy  # noqa: F401
        print(json.dumps(startup_seconds(meter, args.spawned, started)),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

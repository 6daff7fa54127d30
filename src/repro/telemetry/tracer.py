"""Ring-buffer cycle tracer: instruction lifecycles and stall spans.

The tracer records, per instruction in flight, the cycle span it spent
in each of the five pipestages of Figure 1 (IF, RF, ALU, MEM, WB), plus
spans for every Icache-miss and Ecache-late-miss stall and instant
events for squashing branches and exceptions.  The result exports to
Chrome/Perfetto ``trace_event`` JSON (:mod:`repro.telemetry.perfetto`)
so a run can be opened in ``ui.perfetto.dev`` and read directly off the
timeline.

Attachment pattern (the same deal the fault injector gets): tracing is
**opt-in and external**.  The tracer drives the pipeline one
:meth:`~repro.core.pipeline.Pipeline.cycle` at a time and observes the
architectural stage latches (``pipeline.s``) between cycles; a machine
with no tracer attached executes exactly the code it always did --
including the bulk-stall fast path -- at zero added cost.  Tracing
therefore trades the fast path for observability, which is the right
trade for the bounded windows it is used on (the ring buffer keeps the
last ``capacity`` instructions).

The tracer is architecturally invisible: a traced run retires the same
instructions, in the same cycles, with the same
:class:`~repro.core.pipeline.PipelineStats`, as an untraced run
(pinned by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.pipeline import TraceSink
from repro.telemetry.metrics import Metrics

#: stage names, in pipeline order (Figure 1)
STAGES = ("IF", "RF", "ALU", "MEM", "WB")

#: stall span kinds -> the histogram metric each feeds
STALL_KINDS = {
    "icache_miss": "pipeline.stall.icache_miss.length",
    "ecache_late_miss": "pipeline.stall.ecache_late_miss.length",
    "bus_wait": "multi.bus.wait.length",
}


class FlightTrace:
    """The recorded lifecycle of one instruction through the pipe."""

    __slots__ = ("pc", "text", "squashed", "spans")

    def __init__(self, pc: int, text: str):
        """Start a lifecycle record for the instruction at ``pc``."""
        self.pc = pc
        self.text = text
        self.squashed = False
        #: per-stage inclusive [start, end] cycle spans (None = skipped)
        self.spans: List[Optional[List[int]]] = [None] * len(STAGES)

    @property
    def first_cycle(self) -> Optional[int]:
        """First cycle this instruction occupied any stage."""
        for span in self.spans:
            if span is not None:
                return span[0]
        return None

    @property
    def last_cycle(self) -> Optional[int]:
        """Last cycle this instruction occupied any stage."""
        for span in reversed(self.spans):
            if span is not None:
                return span[1]
        return None

    @property
    def lifetime(self) -> int:
        """Cycles from first stage entry to last stage exit, inclusive."""
        first, last = self.first_cycle, self.last_cycle
        if first is None or last is None:
            return 0
        return last - first + 1

    def __repr__(self) -> str:
        """Debug form: pc, text, and the per-stage spans."""
        mark = " squashed" if self.squashed else ""
        return f"<FlightTrace {self.pc:#x} {self.text}{mark} {self.spans}>"


class _ChainingSink(TraceSink):
    """Captures branch/exception instants; forwards to a prior sink."""

    def __init__(self, tracer: "CycleTracer",
                 previous: Optional[TraceSink]):
        self._tracer = tracer
        self._previous = previous

    def on_fetch(self, pc: int) -> None:
        """Forward the fetch event to the chained sink."""
        if self._previous is not None:
            self._previous.on_fetch(pc)

    def on_retire(self, pc, instr, squashed) -> None:
        """Forward the retire event to the chained sink."""
        if self._previous is not None:
            self._previous.on_retire(pc, instr, squashed)

    def on_branch(self, pc, instr, taken, target) -> None:
        """Record a squash instant on wrong-way squashing branches."""
        if instr.squash and not taken:
            self._tracer._instant("branch squash",
                                  {"pc": f"{pc:#x}",
                                   "target": f"{target:#x}"})
        if self._previous is not None:
            self._previous.on_branch(pc, instr, taken, target)

    def on_data(self, pc, address, is_store) -> None:
        """Forward the data-reference event to the chained sink."""
        if self._previous is not None:
            self._previous.on_data(pc, address, is_store)

    def on_ecache(self, kind, address) -> None:
        """Forward the external-cache event to the chained sink."""
        if self._previous is not None:
            self._previous.on_ecache(kind, address)

    def on_exception(self, cause: str) -> None:
        """Record an exception instant, then forward."""
        self._tracer._instant(f"exception {cause}", {"cause": cause})
        if self._previous is not None:
            self._previous.on_exception(cause)

    def on_device_irq(self, cause_bits: int) -> None:
        """Record a device-interrupt instant, then forward."""
        self._tracer._device_irq(cause_bits)
        if self._previous is not None:
            self._previous.on_device_irq(cause_bits)


class CycleTracer:
    """Drives a machine cycle-by-cycle, recording lifecycle spans.

    ``capacity`` bounds all three ring buffers (retired instruction
    records, stall spans, instant events); the most recent entries win,
    so tracing an arbitrarily long run keeps memory bounded.

    Pass a :class:`~repro.telemetry.metrics.Metrics` registry to also
    feed the stall-length and instruction-lifetime histograms.
    """

    def __init__(self, machine, capacity: int = 65536,
                 metrics: Optional[Metrics] = None):
        """Attach to ``machine``; chains any already-installed sink."""
        self.machine = machine
        self.capacity = capacity
        self.metrics = metrics
        self.records: Deque[FlightTrace] = deque(maxlen=capacity)
        #: (kind, start_cycle, end_cycle) inclusive stall spans
        self.stall_spans: Deque[Tuple[str, int, int]] = deque(maxlen=capacity)
        #: (cycle, name, args) point events (squashes, exceptions)
        self.instants: Deque[Tuple[int, str, Dict[str, str]]] = deque(
            maxlen=capacity)
        #: (cycle, cause_bits) device-interrupt posts (UART/timer/disk)
        self.device_irqs: Deque[Tuple[int, int]] = deque(maxlen=capacity)
        self._live: Dict[int, FlightTrace] = {}
        self._live_flights: Dict[int, object] = {}
        self._open_stall: Optional[List] = None  # [kind, start, end]
        pipeline = machine.pipeline
        self._sink = _ChainingSink(self, pipeline.trace)
        pipeline.trace = self._sink

    # ------------------------------------------------------------- driving
    def step(self, cycles: int = 1) -> None:
        """Advance the machine ``cycles`` clock cycles, recording each."""
        pipeline = self.machine.pipeline
        for _ in range(cycles):
            if pipeline.halted:
                break
            before = self.begin_cycle()
            pipeline.cycle()
            self.end_cycle(before)

    def begin_cycle(self) -> Tuple[int, int]:
        """Snapshot the stall counters before an externally-driven cycle.

        For drivers that own the clock (``MultiMachine``): call this,
        execute exactly one ``pipeline.cycle()`` (or ``machine.step()``)
        yourself, then hand the returned snapshot to :meth:`end_cycle`.
        """
        stats = self.machine.pipeline.stats
        return (stats.icache_stall_cycles, stats.data_stall_cycles)

    def end_cycle(self, before: Tuple[int, int]) -> None:
        """Classify and record the cycle an external driver just ran."""
        pipeline = self.machine.pipeline
        stats = pipeline.stats
        cycle = stats.cycles
        icache_stalls, data_stalls = before
        if stats.icache_stall_cycles != icache_stalls:
            self._stall_cycle("icache_miss", cycle)
        elif stats.data_stall_cycles != data_stalls:
            self._stall_cycle("ecache_late_miss", cycle)
        else:
            self._close_stall()
        self._observe_stages(pipeline, cycle)

    def observe_wait(self, cycle: int) -> None:
        """Record one bus-wait cycle (node frozen on a contended bus)."""
        self._stall_cycle("bus_wait", cycle)

    def run(self, max_cycles: int = 10_000_000):
        """Run to halt (or ``max_cycles``), then finalize open spans.

        Returns the machine's :class:`~repro.core.pipeline.PipelineStats`
        -- the same object an untraced ``machine.run()`` returns.
        """
        pipeline = self.machine.pipeline
        while not pipeline.halted and pipeline.stats.cycles < max_cycles:
            self.step()
        self.finalize()
        return pipeline.stats

    def finalize(self) -> None:
        """Close open stall spans and flush still-in-flight records."""
        self._close_stall()
        for key in list(self._live):
            self._retire(key)

    def view(self) -> Tuple[List[FlightTrace], List[Tuple[str, int, int]]]:
        """The records and stall spans so far, the still-open ones
        included, without closing them: tracing can go on after a look."""
        spans = list(self.stall_spans)
        if self._open_stall is not None:
            spans.append(tuple(self._open_stall))
        return list(self.records) + list(self._live.values()), spans

    # ----------------------------------------------------------- recording
    def _observe_stages(self, pipeline, cycle: int) -> None:
        current = pipeline.s
        seen = set()
        for stage, flight in enumerate(current):
            if flight is None:
                continue
            key = id(flight)
            seen.add(key)
            record = self._live.get(key)
            if record is None:
                record = FlightTrace(flight.pc, str(flight.instr))
                self._live[key] = record
                # hold the flight so ids stay unique while live
                self._live_flights[key] = flight
            record.squashed = flight.squashed
            span = record.spans[stage]
            if span is None:
                record.spans[stage] = [cycle, cycle]
            else:
                span[1] = cycle
        for key in [k for k in self._live if k not in seen]:
            self._retire(key)

    def _retire(self, key: int) -> None:
        record = self._live.pop(key)
        self._live_flights.pop(key, None)
        self.records.append(record)
        if self.metrics is not None and record.lifetime:
            self.metrics.histogram(
                "pipeline.instruction.lifetime").observe(record.lifetime)

    def _stall_cycle(self, kind: str, cycle: int) -> None:
        if self._open_stall is not None and self._open_stall[0] == kind:
            self._open_stall[2] = cycle
        else:
            self._close_stall()
            self._open_stall = [kind, cycle, cycle]

    def _close_stall(self) -> None:
        if self._open_stall is None:
            return
        kind, start, end = self._open_stall
        self._open_stall = None
        self.stall_spans.append((kind, start, end))
        if self.metrics is not None:
            self.metrics.histogram(STALL_KINDS[kind]).observe(
                end - start + 1)

    def _instant(self, name: str, args: Dict[str, str]) -> None:
        self.instants.append(
            (self.machine.pipeline.stats.cycles, name, args))

    def _device_irq(self, cause_bits: int) -> None:
        self.device_irqs.append(
            (self.machine.pipeline.stats.cycles, cause_bits))

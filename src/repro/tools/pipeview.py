"""Pipeline visualization: classic instruction/cycle occupancy diagrams.

Renders the textbook pipeline diagram for a running machine::

    cycle            1    2    3    4    5    6    7    8
    0x100 li t0,0    F    R    A    M    W
    0x101 li t1,10        F    R    A    M    W
    0x102 add ...              F    R    A    M    W
    0x103 bgt ...                   F    R    A    M    W
    0x104 nop (slot)                     F    R    A    M    W
    ...

Stall cycles show as ``.`` (the qualified w1 clock withheld), squashed
instructions are marked ``x`` at writeback.  Invaluable when debugging
delay-slot behaviour or verifying what the reorganizer produced.

The diagram is drawn from a :class:`~repro.telemetry.tracer.CycleTracer`:
its per-instruction stage spans, its stall spans, and its squash and
exception instants, which date each squash.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.processor import Machine
from repro.telemetry.tracer import CycleTracer

_STAGE_LETTERS = "FRAMW"

#: stages each kind of squash annuls, by the instant or instruction that
#: dates it: a wrong-way branch and ``halt`` annul the two slots behind
#: them, an exception everything short of writeback
_SQUASHED_STAGES = {"branch": (0, 1), "halt": (0, 1),
                    "exception": (0, 1, 2, 3)}


@dataclasses.dataclass
class _Row:
    pc: int
    text: str
    first_cycle: int
    cells: Dict[int, str] = dataclasses.field(default_factory=dict)
    squashed: bool = False


class PipelineTracer:
    """Records a machine's stage occupancy cycle by cycle."""

    def __init__(self, machine: Machine, max_rows: int = 64):
        self.machine = machine
        self.max_rows = max_rows
        self.start_cycle = machine.stats.cycles
        # the tracer's sink (squash and exception instants) is attached
        # only while stepping, so a run after the diagram pays nothing
        pipeline = machine.pipeline
        previous = pipeline.trace
        self._tracer = CycleTracer(machine, capacity=max_rows * 4)
        self._sink, pipeline.trace = pipeline.trace, previous

    def step(self, cycles: int = 1) -> None:
        """Advance and record ``cycles`` machine cycles."""
        pipeline = self.machine.pipeline
        previous, pipeline.trace = pipeline.trace, self._sink
        try:
            self._tracer.step(cycles)
        finally:
            pipeline.trace = previous

    @property
    def rows(self) -> List[_Row]:
        """One row per traced instruction, in order of entry."""
        records, stall_spans = self._tracer.view()
        # a stall's first cycle holds each stage's letter; w1 is withheld
        # from the next cycle on
        stalls = {cycle for _, start, end in stall_spans
                  for cycle in range(start + 1, end + 1)}
        squashes = [(cycle, _SQUASHED_STAGES[name.split()[0]])
                    for cycle, name, _ in self._tracer.instants]
        squashes += [(record.spans[2][0], _SQUASHED_STAGES["halt"])
                     for record in records
                     if record.text == "halt" and record.spans[2]]
        rows = []
        for record in records:
            occupied = [(stage, cycle) for stage, span in enumerate(record.spans)
                        if span is not None
                        for cycle in range(span[0], span[1] + 1)]
            squashed_from = min(
                (cycle for cycle, stages in squashes
                 for stage, at in occupied if at == cycle and stage in stages),
                default=None) if record.squashed else None
            row = _Row(pc=record.pc, text=record.text,
                       first_cycle=record.first_cycle,
                       squashed=record.squashed)
            for stage, cycle in occupied:
                letter = _STAGE_LETTERS[stage]
                if cycle in stalls:
                    letter = "."
                elif squashed_from is not None and cycle >= squashed_from:
                    letter = "x" if stage == 4 else letter.lower()
                row.cells[cycle] = letter
            rows.append((record.first_cycle, occupied[0][0], row))
        rows.sort(key=lambda entry: entry[:2])
        return [row for _, _, row in rows]

    def render(self, last_rows: Optional[int] = None,
               instruction_width: int = 28) -> str:
        """Render the recorded diagram as text."""
        rows = self.rows
        rows = rows[-last_rows:] if last_rows else rows
        if not rows:
            return "(no instructions traced)"
        first = min(min(r.cells) for r in rows if r.cells)
        last = max(max(r.cells) for r in rows if r.cells)
        header = " " * (8 + instruction_width)
        header += "".join(f"{c:>4}" for c in range(first, last + 1))
        lines = [header]
        for row in rows:
            if not row.cells:
                continue
            label = f"{row.pc:#06x}  {row.text[:instruction_width]:<{instruction_width}}"
            cells = "".join(f"{row.cells.get(c, ''):>4}"
                            for c in range(first, last + 1))
            lines.append(label + cells)
        legend = ("legend: F/R/A/M/W = pipestages, lower-case/x = squashed, "
                  "'.' = stall (w1 withheld)")
        return "\n".join(lines + [legend])


def trace_pipeline(machine: Machine, cycles: int = 30,
                   last_rows: Optional[int] = None) -> str:
    """Convenience: trace ``cycles`` cycles of a loaded machine and render."""
    tracer = PipelineTracer(machine)
    tracer.step(cycles)
    return tracer.render(last_rows=last_rows)

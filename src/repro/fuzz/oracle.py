"""The differential oracle: run one generated program on independent
models of MIPS-X semantics and compare everything observable.

Four model pairs, matching the repo's redundancy axes:

* **golden-vs-pipeline** (the reorganizer contract): the *naive* program
  runs on the instruction-level golden simulator; the *reorganized*
  program runs on the cycle-accurate pipeline.  Full architectural state
  is compared -- registers (minus the generator's declared code-address
  registers), the MD register, the bounded data region, and the console
  stream.  A reorganizer crash (:class:`ReorgError`) or a pipeline
  hazard trap (:class:`HazardViolation`) is itself a divergence: the
  reorganizer emitted hazardous code.
* **live-vs-replay** (the capture-once/replay-many contract): the same
  pipeline run is captured with a :class:`TraceCollector`, and the
  recorded fetch/ecache streams are replayed through the vectorized
  trace models, which must reproduce the live cache statistics exactly.
* **jit-vs-interpreter** (the translated-fast-path contract): the
  reorganized program runs again with the block translator enabled at a
  low threshold, and the whole machine state
  (:func:`repro.checkpoint.state.machine_signature`) must match the
  interpretive run bit-for-bit -- every pipeline counter (cycles
  included: the fast path is cycle-exact), latches, caches, memory.
* **checkpoint-vs-straight** (the snapshot/restore contract, see
  :mod:`repro.checkpoint`): the reorganized program runs again to a
  seeded random cycle, drains to quiescence, snapshots through a JSON
  round trip, restores into a fresh machine and finishes; the same
  whole-state signature must match the uninterrupted run bit-for-bit.

Every check returns ``None`` for agreement or a structured
:class:`DivergenceReport` (the whole-state pairs name the first
differing paths, :func:`repro.checkpoint.state.state_diff`); programs
that fail to terminate or assemble raise, and the campaign layer
records those as harness failures, not divergences.

``golden_mutator`` is a **dev-only hook**: tests (and nothing else) use
it to plant a known semantic bug in the golden model and assert the
fuzzer catches and shrinks it (see :mod:`repro.fuzz.mutation`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm.assembler import parse as parse_asm
from repro.asm.unit import Program
from repro.checkpoint.state import machine_signature, state_diff
from repro.core import Machine, MachineConfig
from repro.core.golden import GoldenError, GoldenSimulator
from repro.core.pipeline import HazardViolation
from repro.ecache import trace_sim as ecache_sim
from repro.fuzz.gen import GeneratedProgram
from repro.icache import trace_sim as icache_sim
from repro.reorg import ReorgError, reorganize
from repro.traces.capture import TraceCollector

#: model pair names used in reports and corpus metadata
PAIR_GOLDEN_PIPELINE = "golden-vs-pipeline"
PAIR_LIVE_REPLAY = "live-vs-replay"
PAIR_JIT_INTERP = "jit-vs-interpreter"
PAIR_CHECKPOINT = "checkpoint-vs-straight"
#: os mode's interpretive reference run itself misbehaved (hazard trap)
PAIR_OS_REFERENCE = "os-reference"


@dataclasses.dataclass
class DivergenceReport:
    """One observed disagreement between two models."""

    pair: str                    #: PAIR_GOLDEN_PIPELINE | PAIR_LIVE_REPLAY
    kind: str                    #: "state" | "reorg-error" | "hazard" | ...
    mismatches: List[Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary(self, limit: int = 4) -> str:
        parts = [f"{self.pair} [{self.kind}]"]
        for mismatch in self.mismatches[:limit]:
            parts.append(str(mismatch.get("detail", mismatch)))
        if len(self.mismatches) > limit:
            parts.append(f"... {len(self.mismatches) - limit} more")
        return "; ".join(parts)


class FuzzProgramError(RuntimeError):
    """The generated program is unusable (did not assemble/terminate).

    This is a *generator or harness* bug, not a model divergence; the
    campaign records it under the harness taxonomy (exit 1), never as a
    finding (exit 2).
    """


# ------------------------------------------------------------- model runs
def _programs_for(generated: GeneratedProgram
                  ) -> Tuple[Optional[Program], Program]:
    """(naive program, reorganized program) for one generated test.

    os mode has no naive half (the golden model has no exception
    support, so nothing ever runs un-reorganized): the slot is ``None``
    and the reorganized program is the hand-scheduled harness unit --
    which must stay out of the reorganizer, its delay slots and trap
    ABI are pinned by hand -- concatenated with the *reorganized*
    random body, vector at address 0.
    """
    if generated.mode == "lang":
        from repro.lang import compile_spl

        compilation = compile_spl(generated.source, scheme=None)
        naive = compilation.naive_program()
        reorganized = reorganize(parse_asm(compilation.asm_text)).unit.assemble()
        return naive, reorganized
    if generated.mode == "os":
        unit = parse_asm(generated.harness)
        unit.extend(reorganize(parse_asm(generated.source)).unit)
        return None, unit.assemble(entry="_start")
    naive = parse_asm(generated.source).assemble()
    reorganized = reorganize(parse_asm(generated.source)).unit.assemble()
    return naive, reorganized


def run_golden(program: Program, generated: GeneratedProgram,
               mutator: Optional[Callable[[GoldenSimulator], None]] = None,
               ) -> GoldenSimulator:
    sim = GoldenSimulator()
    if mutator is not None:
        mutator(sim)
    sim.load_program(program)
    try:
        sim.run(generated.max_instructions)
    except GoldenError as exc:
        raise FuzzProgramError(
            f"golden run failed (seed {generated.seed}): {exc}") from exc
    return sim


def run_pipeline(program: Program, generated: GeneratedProgram,
                 config: Optional[MachineConfig] = None,
                 collector: Optional[TraceCollector] = None) -> Machine:
    machine = Machine(config or MachineConfig())
    if collector is not None:
        machine.set_trace(collector)
    machine.load_program(program)
    if generated.uart_feed is not None:
        text, start, interval = generated.uart_feed
        machine.memory.uart.feed(text, start=start, interval=interval)
    machine.run(generated.max_cycles)
    if not machine.halted:
        raise FuzzProgramError(
            f"pipeline run did not halt within {generated.max_cycles} "
            f"cycles (seed {generated.seed})")
    return machine


# ------------------------------------------------------------ comparisons
def _compare_state(golden: GoldenSimulator, machine: Machine,
                   generated: GeneratedProgram) -> List[Dict[str, object]]:
    mismatches: List[Dict[str, object]] = []
    excluded = set(generated.excluded_regs)
    for register in range(1, 32):
        if register in excluded:
            continue
        want = golden.regs[register]
        got = machine.regs[register]
        if want != got:
            mismatches.append({
                "what": f"r{register}",
                "detail": f"r{register}: golden {want:#x}, "
                          f"pipeline {got:#x}"})
    if golden.md.value != machine.pipeline.md.value:
        mismatches.append({
            "what": "md",
            "detail": f"md: golden {golden.md.value:#x}, "
                      f"pipeline {machine.pipeline.md.value:#x}"})
    if generated.data_words:
        golden_words = golden.memory.system
        machine_words = machine.memory.system
        for offset in range(generated.data_words):
            address = generated.data_base + offset
            want = golden_words.read(address)
            got = machine_words.read(address)
            if want != got:
                mismatches.append({
                    "what": f"mem[{address:#x}]",
                    "detail": f"mem[{address:#x}]: golden {want:#x}, "
                              f"pipeline {got:#x}"})
    if (golden.console.values != machine.console.values
            or golden.console.text != machine.console.text):
        mismatches.append({
            "what": "console",
            "detail": f"console: golden {golden.console.values!r}/"
                      f"{golden.console.text!r}, pipeline "
                      f"{machine.console.values!r}/"
                      f"{machine.console.text!r}"})
    return mismatches


def check_program(generated: GeneratedProgram,
                  config: Optional[MachineConfig] = None,
                  golden_mutator: Optional[
                      Callable[[GoldenSimulator], None]] = None,
                  collector: Optional[TraceCollector] = None,
                  ) -> Optional[DivergenceReport]:
    """Golden-vs-pipeline oracle; ``None`` means the models agree.

    ``collector`` optionally captures the pipeline run's event streams
    so :func:`check_trace_replay` can reuse the same execution.

    os-mode programs have no golden half (the instruction-level model
    has no exception support), so this check is vacuously ``None`` for
    them; :func:`check_all` runs the pairs that do apply.
    """
    if generated.mode == "os":
        return None
    try:
        naive, reorganized = _programs_for(generated)
    except ReorgError as exc:
        return DivergenceReport(
            pair=PAIR_GOLDEN_PIPELINE, kind="reorg-error",
            mismatches=[{"what": "reorganizer",
                         "detail": f"reorganizer rejected its own output: "
                                   f"{exc}"}])
    except (ValueError, KeyError) as exc:
        raise FuzzProgramError(
            f"generated program did not build (seed {generated.seed}): "
            f"{exc}") from exc

    golden = run_golden(naive, generated, mutator=golden_mutator)
    try:
        machine = run_pipeline(reorganized, generated, config=config,
                               collector=collector)
    except HazardViolation as exc:
        return DivergenceReport(
            pair=PAIR_GOLDEN_PIPELINE, kind="hazard",
            mismatches=[{"what": "pipeline",
                         "detail": f"reorganized code tripped the hazard "
                                   f"checker: {exc}"}])
    mismatches = _compare_state(golden, machine, generated)
    if mismatches:
        return DivergenceReport(pair=PAIR_GOLDEN_PIPELINE, kind="state",
                                mismatches=mismatches)
    return None


def check_trace_replay(machine: Machine, collector: TraceCollector,
                       ) -> Optional[DivergenceReport]:
    """Live-vs-replay oracle over one captured pipeline run."""
    mismatches: List[Dict[str, object]] = []
    if machine.config.icache.enabled:
        replayed = icache_sim.replay(machine.config.icache,
                                     collector.fetch_array())
        if replayed != machine.icache.stats:
            mismatches.append({
                "what": "icache",
                "detail": f"icache replay diverged: live "
                          f"{machine.icache.stats}, replay {replayed}"})
    if machine.config.ecache.enabled:
        kinds, addresses = collector.ecache_arrays()
        replayed_stats, _ = ecache_sim.replay(machine.config.ecache,
                                              kinds, addresses)
        if replayed_stats != machine.ecache.stats:
            mismatches.append({
                "what": "ecache",
                "detail": f"ecache replay diverged: live "
                          f"{machine.ecache.stats}, replay "
                          f"{replayed_stats}"})
    if mismatches:
        return DivergenceReport(pair=PAIR_LIVE_REPLAY, kind="stats",
                                mismatches=mismatches)
    return None


def check_jit_equivalence(program: Program, generated: GeneratedProgram,
                          reference: Machine,
                          config: Optional[MachineConfig] = None,
                          ) -> Optional[DivergenceReport]:
    """Jit-vs-interpreter oracle; ``None`` means bit-identical.

    ``reference`` is an already-completed interpretive run of
    ``program``.  The same program runs again with the translator
    enabled at threshold 2 (so even short fuzz programs get hot enough
    to translate), and the whole-state signatures must match.
    """
    from repro.core.translate import Translator

    base = config or MachineConfig()
    if not Translator.supports(base):
        return None
    jit_config = dataclasses.replace(base, jit=True, jit_threshold=2)
    try:
        jit_machine = run_pipeline(program, generated, config=jit_config)
    except HazardViolation as exc:
        return DivergenceReport(
            pair=PAIR_JIT_INTERP, kind="hazard",
            mismatches=[{"what": "pipeline",
                         "detail": f"jit run tripped the hazard checker "
                                   f"where the interpreter did not: {exc}"}])
    want = machine_signature(reference)
    got = machine_signature(jit_machine)
    if want == got:
        return None
    return DivergenceReport(pair=PAIR_JIT_INTERP, kind="state", mismatches=[
        {"what": diff["path"],
         "detail": f"{diff['path']}: interpreter {diff['want']!r} != jit "
                   f"{diff['got']!r}"}
        for diff in state_diff(want, got)])


def check_checkpoint_equivalence(program: Program,
                                 generated: GeneratedProgram,
                                 reference: Machine,
                                 config: Optional[MachineConfig] = None,
                                 jit: bool = False,
                                 ) -> Optional[DivergenceReport]:
    """Checkpoint-vs-straight oracle; ``None`` means bit-identical.

    The program runs again to a seeded random cycle, drains to a
    quiescent boundary, snapshots, round-trips the snapshot through
    JSON (exactly what the on-disk store persists), restores it into a
    *fresh* machine, and finishes.  The whole machine state must match
    the uninterrupted ``reference`` run bit-for-bit.

    ``jit=True`` exercises the same contract with the block translator
    enabled (translated blocks must be invalidated on restore, never
    resumed stale).
    """
    import random as _random

    from repro.checkpoint.state import (CheckpointError, QuiescenceTimeout,
                                        round_trip)

    base = config or MachineConfig()
    if jit:
        from repro.core.translate import Translator

        if not Translator.supports(base):
            return None
        base = dataclasses.replace(base, jit=True, jit_threshold=2)
    total = reference.stats.cycles
    cut = _random.Random(generated.seed ^ 0xC0FFEE).randint(
        1, max(1, total - 1))
    first = Machine(base)
    first.load_program(program)
    if generated.uart_feed is not None:
        # the snapshot carries pending RX schedules (format v2), so the
        # feed is applied only to the pre-snapshot machine, never to the
        # restored one
        text, start, interval = generated.uart_feed
        first.memory.uart.feed(text, start=start, interval=interval)
    try:
        restored = round_trip(first, cut)
    except QuiescenceTimeout as exc:
        return DivergenceReport(
            pair=PAIR_CHECKPOINT, kind="quiescence",
            mismatches=[{"what": "drain",
                         "detail": f"drain to quiescence failed at cycle "
                                   f"{cut} (seed {generated.seed}): {exc}"}])
    except CheckpointError as exc:
        return DivergenceReport(
            pair=PAIR_CHECKPOINT, kind="restore-error",
            mismatches=[{"what": "restore",
                         "detail": f"the snapshot round trip at cycle "
                                   f"{cut} failed (seed {generated.seed}): "
                                   f"{exc}"}])
    restored.run(generated.max_cycles)
    if not restored.halted:
        return DivergenceReport(
            pair=PAIR_CHECKPOINT, kind="no-halt",
            mismatches=[{"what": "pipeline",
                         "detail": f"restored run did not halt within "
                                   f"{generated.max_cycles} cycles where "
                                   f"the straight run did "
                                   f"(seed {generated.seed})"}])
    want = machine_signature(reference)
    got = machine_signature(restored)
    if want == got:
        return None
    return DivergenceReport(pair=PAIR_CHECKPOINT, kind="state", mismatches=[
        {"what": diff["path"],
         "detail": f"{diff['path']} (snapshot at cycle {cut}): straight "
                   f"{diff['want']!r} != restored {diff['got']!r}"}
        for diff in state_diff(want, got)])


def check_all(generated: GeneratedProgram,
              config: Optional[MachineConfig] = None,
              golden_mutator: Optional[
                  Callable[[GoldenSimulator], None]] = None,
              ) -> List[DivergenceReport]:
    """Run all applicable oracles on one generated program.

    isa/lang: one interpretive pipeline execution serves the first two
    pairs -- it is compared against the golden run *and* captured for
    the trace-replay comparison -- then becomes the bit-exact reference
    for a second execution with the block translator enabled
    (:func:`check_jit_equivalence`) and for the checkpoint round trip.

    os: the golden model has no exception support and the trace replay
    has no collector hooks for device events, so only the two
    cycle-exact whole-machine pairs run -- jit-vs-interpreter and
    checkpoint-vs-straight, both of which are sensitive to
    interrupt-arrival timing and UART RX schedules.
    """
    try:
        naive, reorganized = _programs_for(generated)
    except ReorgError as exc:
        return [DivergenceReport(
            pair=PAIR_GOLDEN_PIPELINE, kind="reorg-error",
            mismatches=[{"what": "reorganizer",
                         "detail": f"reorganizer rejected its own output: "
                                   f"{exc}"}])]
    except (ValueError, KeyError) as exc:
        raise FuzzProgramError(
            f"generated program did not build (seed {generated.seed}): "
            f"{exc}") from exc

    if generated.mode == "os":
        try:
            machine = run_pipeline(reorganized, generated, config=config)
        except HazardViolation as exc:
            return [DivergenceReport(
                pair=PAIR_OS_REFERENCE, kind="hazard",
                mismatches=[{"what": "pipeline",
                             "detail": f"os-mode reference run tripped the "
                                       f"hazard checker: {exc}"}])]
        reports = []
        jit_report = check_jit_equivalence(reorganized, generated, machine,
                                           config=config)
        if jit_report is not None:
            reports.append(jit_report)
        checkpoint_report = check_checkpoint_equivalence(
            reorganized, generated, machine, config=config)
        if checkpoint_report is not None:
            reports.append(checkpoint_report)
        return reports

    golden = run_golden(naive, generated, mutator=golden_mutator)
    collector = TraceCollector(fetches=True, data=False, branches=False,
                               ecache=True)
    try:
        machine = run_pipeline(reorganized, generated, config=config,
                               collector=collector)
    except HazardViolation as exc:
        return [DivergenceReport(
            pair=PAIR_GOLDEN_PIPELINE, kind="hazard",
            mismatches=[{"what": "pipeline",
                         "detail": f"reorganized code tripped the hazard "
                                   f"checker: {exc}"}])]

    reports: List[DivergenceReport] = []
    mismatches = _compare_state(golden, machine, generated)
    if mismatches:
        reports.append(DivergenceReport(pair=PAIR_GOLDEN_PIPELINE,
                                        kind="state", mismatches=mismatches))
    replay_report = check_trace_replay(machine, collector)
    if replay_report is not None:
        reports.append(replay_report)
    jit_report = check_jit_equivalence(reorganized, generated, machine,
                                       config=config)
    if jit_report is not None:
        reports.append(jit_report)
    checkpoint_report = check_checkpoint_equivalence(reorganized, generated,
                                                     machine, config=config)
    if checkpoint_report is not None:
        reports.append(checkpoint_report)
    return reports

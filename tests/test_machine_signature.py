"""The one machine-state signature and the diff that explains a mismatch.

:func:`repro.checkpoint.state.machine_signature` is ``machine_state``'s
body -- memory, devices, registers, latches, PC chain, FSMs, caches with
their LRU order, every counter -- and :func:`state_diff` names the
first paths where two such states differ.  These tests pin:

* the diff names exactly the planted paths, in document order, and the
  jit oracle's :class:`~repro.fuzz.oracle.DivergenceReport` carries
  them;
* the bulk-stall leap (``Pipeline.run`` consuming a multi-cycle stall
  in one step) ends every fuzz program in the same whole state as
  stepping ``Pipeline.cycle()`` one cycle at a time.
"""

import pytest

from repro.checkpoint.state import machine_signature, state_diff
from repro.core import Machine, MachineConfig
from repro.core.pipeline import Pipeline
from repro.fuzz.gen import GenConfig, generate_program
from repro.fuzz.oracle import (PAIR_JIT_INTERP, _programs_for,
                               check_jit_equivalence, run_pipeline)


def _generated(seed, mode):
    return generate_program(seed, GenConfig(mode=mode, quick=True))


class TestStateDiff:
    def test_walks_dicts_and_lists_up_to_the_limit(self):
        want = {"a": [1, 2, 3], "b": {"c": 3, "t": (1, 2)}, "d": {"x": 1}}
        got = {"a": [1, 5], "b": {"c": 4, "t": (1, 3)}, "d": {"y": 1}}
        assert state_diff(want, got) == [
            {"path": "a[1]", "want": 2, "got": 5},
            {"path": "a[2:]", "want": [3], "got": []},
            {"path": "b.c", "want": 3, "got": 4},
            {"path": "b.t", "want": (1, 2), "got": (1, 3)},
            {"path": "d", "want": {"x": 1}, "got": {"y": 1}},
        ]
        assert [diff["path"] for diff in state_diff(want, got, limit=2)] == [
            "a[1]", "a[2:]"]
        assert state_diff(want, want) == []

    def test_names_each_planted_divergence(self):
        generated = _generated(1, "isa")
        _, program = _programs_for(generated)
        reference = run_pipeline(program, generated)
        assert check_jit_equivalence(program, generated, reference) is None
        clean = machine_signature(reference)

        # one pipeline field, one memory word (the lowest address, so
        # entry 0 of the sorted space) and one Icache LRU-order entry
        reference.pipeline.md.value ^= 1
        words = reference.memory.system._words
        words[min(words)] ^= 1
        reference.icache._order[0][0] = -1
        planted = ["memory.system[0]", "pipeline.md", "icache.order[0][0]"]

        assert [diff["path"] for diff in
                state_diff(clean, machine_signature(reference))] == planted
        report = check_jit_equivalence(program, generated, reference)
        assert report is not None and report.pair == PAIR_JIT_INTERP
        assert [mismatch["what"] for mismatch in report.mismatches] == planted


def _stepped(program, generated) -> Machine:
    """``run_pipeline`` without the bulk-stall leap: one cycle a step."""
    machine = Machine(MachineConfig())
    machine.load_program(program)
    if generated.uart_feed is not None:
        text, start, interval = generated.uart_feed
        machine.memory.uart.feed(text, start=start, interval=interval)
    pipeline = machine.pipeline
    while not pipeline.halted and pipeline.stats.cycles < generated.max_cycles:
        pipeline.cycle()
    assert pipeline.halted
    return machine


@pytest.mark.parametrize("mode", ["isa", "lang", "os"])
def test_bulk_stall_leap_matches_single_stepping(mode, monkeypatch):
    bulk_steps = []
    real = Pipeline._consume_stall_bulk

    def counted(self, cycles):
        bulk_steps.append(cycles)
        real(self, cycles)

    monkeypatch.setattr(Pipeline, "_consume_stall_bulk", counted)
    for seed in range(1, 21):
        generated = _generated(seed, mode)
        _, program = _programs_for(generated)
        before = len(bulk_steps)
        leapt = run_pipeline(program, generated)
        assert len(bulk_steps) > before, f"seed {seed} took no bulk step"
        want = machine_signature(_stepped(program, generated))
        got = machine_signature(leapt)
        assert want == got, f"seed {seed}: {state_diff(want, got)}"

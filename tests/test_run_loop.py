"""The cycle loop: one body, however it is driven.

``Pipeline.run`` drives the cycle body as a loop in calls of at most
``REENTRY_CYCLES`` cycles, and ``Pipeline.cycle`` runs one pass of the
same body.  These tests pin:

* a machine run to halt in one ``run()``, in seeded random budgets
  (some inside one loop call, some spanning several) and by ``cycle()``
  stepping ends in the same whole state -- ideal memory, a kernel boot
  with devices and interrupts, and the translator;
* ``cycle()`` advances exactly one cycle, through stalls too, and never
  enters a translated block;
* the loop's re-entry, however often, changes no translator counter and
  no cycle a fault hook sees;
* under ideal memory, where the cycle skips the cache probes, the trace
  sink still hears one ifetch per fetch and one read or write per
  non-MMIO load and store.
"""

import dataclasses
import random

import pytest

from repro.checkpoint.state import machine_signature, state_diff
from repro.core import Machine, MachineConfig, perfect_memory_config
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import FaultHook
from repro.traces.capture import TraceCollector
from repro.workloads import cached_program
from repro.workloads.kernel import KERNEL_DEMOS, build_kernel_program

LIMIT = 2_000_000
REENTRY = pipeline_module.REENTRY_CYCLES


def _perm() -> Machine:
    machine = Machine(perfect_memory_config())
    machine.load_program(cached_program("perm"))
    return machine


def _kernel_echo() -> Machine:
    """kernel-echo loaded with its UART feed, not yet run."""
    demo = KERNEL_DEMOS["kernel-echo"]
    config = perfect_memory_config()
    machine = Machine(config)
    machine.load_program(build_kernel_program(demo, config))
    for text, start, interval in demo.feeds:
        machine.memory.uart.feed(text, start=start, interval=interval)
    return machine


def _sieve_jit() -> Machine:
    machine = Machine(MachineConfig(jit=True))
    machine.load_program(cached_program("sieve"))
    return machine


def _sliced(machine: Machine, seed: int) -> Machine:
    """Run to halt in random budgets on both sides of the re-entry
    interval."""
    rng = random.Random(seed)
    while not machine.halted and machine.stats.cycles < LIMIT:
        budget = (rng.randint(1, REENTRY - 1) if rng.random() < 0.5
                  else rng.randint(REENTRY + 1, 5 * REENTRY))
        machine.run(machine.stats.cycles + budget)
    return machine


def _stepped(machine: Machine) -> Machine:
    while not machine.halted and machine.stats.cycles < LIMIT:
        machine.step()
    return machine


def _agree(want: Machine, got: Machine, how: str) -> None:
    assert got.halted, how
    left, right = machine_signature(want), machine_signature(got)
    assert left == right, f"{how}: {state_diff(left, right)}"


@pytest.mark.parametrize("build", [_perm, _kernel_echo],
                         ids=["perm-ideal", "kernel-echo"])
def test_run_slices_and_steps_agree(build):
    whole = build()
    whole.run(LIMIT)
    assert whole.halted
    assert whole.stats.cycles > REENTRY
    for seed in (1, 2):
        _agree(whole, _sliced(build(), seed), f"sliced, seed {seed}")
    _agree(whole, _stepped(build()), "stepped")


def test_kernel_echo_takes_device_interrupts():
    machine = _kernel_echo()
    machine.run(LIMIT)
    assert machine.stats.interrupts > 0
    assert machine.memory.uart.tx_text == KERNEL_DEMOS["kernel-echo"].expected


def test_jit_slices_agree_and_stepping_enters_no_block():
    whole = _sieve_jit()
    whole.run(LIMIT)
    assert whole.pipeline._translator.stats.entries > 0
    for seed in (1, 2):
        _agree(whole, _sliced(_sieve_jit(), seed), f"sliced, seed {seed}")

    machine = _sieve_jit()
    machine.run(whole.stats.cycles // 2)
    translator = machine.pipeline._translator
    entries = translator.stats.entries
    assert entries > 0 and translator.blocks
    for _ in range(3 * REENTRY):
        machine.step()
    assert translator.stats.entries == entries


def _translator_state(machine: Machine):
    translator = machine.pipeline._translator
    return (dataclasses.asdict(translator.stats), dict(translator._counts),
            set(translator.dead))


@pytest.mark.parametrize("interval", [7, REENTRY])
def test_reentry_changes_no_translate_counter(interval, monkeypatch):
    once = _sieve_jit()
    monkeypatch.setattr(pipeline_module, "REENTRY_CYCLES", 10 * LIMIT)
    once.run(LIMIT)
    monkeypatch.setattr(pipeline_module, "REENTRY_CYCLES", interval)
    chunked = _sieve_jit()
    chunked.run(LIMIT)
    _agree(once, chunked, f"re-entered every {interval} cycles")
    assert _translator_state(chunked) == _translator_state(once)


class _CycleLog(FaultHook):
    def __init__(self):
        self.cycles = []

    def on_cycle(self, pipeline) -> None:
        self.cycles.append(pipeline.stats.cycles)


def test_reentry_is_invisible_to_hooks(monkeypatch):
    """A stall leap runs no hook; re-entering mid-stall must not turn
    the rest of the stall into hooked single cycles."""
    logs = []
    for interval in (10 * LIMIT, 7):
        monkeypatch.setattr(pipeline_module, "REENTRY_CYCLES", interval)
        machine = Machine(MachineConfig())
        machine.load_program(cached_program("sieve"))
        log = _CycleLog()
        machine.set_fault_hook(log)
        machine.run(LIMIT)
        assert machine.halted
        logs.append(log.cycles)
    assert machine.stats.icache_stall_cycles > 0
    assert len(logs[0]) < machine.stats.cycles
    assert logs[1] == logs[0]


def test_cycle_steps_one_cycle_through_stalls():
    machine = Machine(MachineConfig())
    machine.load_program(cached_program("sieve"))
    stats = machine.stats
    for _ in range(3 * REENTRY):
        before = stats.cycles
        machine.step()
        assert stats.cycles == before + 1
    assert stats.icache_stall_cycles > 0


def test_ideal_memory_skips_probes_but_not_sink_events():
    machine = _kernel_echo()
    assert machine.pipeline._ideal_memory
    sink = TraceCollector(fetches=True, data=True, branches=False,
                          ecache=True)
    machine.set_trace(sink)
    machine.run(LIMIT)
    assert machine.halted

    kinds, addresses = (column.tolist() for column in sink.ecache_arrays())
    ifetches = [address for kind, address in zip(kinds, addresses)
                if kind == 2]
    assert ifetches == sink.fetch_array().tolist()

    mmio_base = machine.memory.mmio_base
    data = sink.data_trace
    assert any(address >= mmio_base for address, _ in data)
    want = [(int(is_store), address) for address, is_store in data
            if address < mmio_base]
    got = [(kind, address) for kind, address in zip(kinds, addresses)
           if kind != 2]
    assert got == want
    assert {kind for kind, _ in got} == {0, 1}

    assert machine.ecache.stats.reads == machine.ecache.stats.writes == 0
    assert machine.icache.stats.accesses == 0


def test_modelled_caches_are_not_ideal():
    assert not Machine(MachineConfig()).pipeline._ideal_memory

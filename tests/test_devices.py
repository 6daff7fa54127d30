"""The MMIO device layer and the kernel-lite software stack.

Three layers of guarantees:

* **device semantics** -- UART TX/RX scheduling, timer one-shot vs
  periodic catch-up, block-device DMA and completion interrupts, ICU
  read-and-clear -- each against the programmer's model documented in
  docs/SOFTWARE.md;
* **the kernel demos** -- every multi-process demo boots to completion
  with its pinned golden UART log, pinned cycle count, and a nonzero
  interrupt count (preemption actually happened);
* **bit-identity** -- the boot is identical under the interpreter, the
  translated fast path, and across a mid-boot checkpoint/restore
  (the kernel rows of `repro campaign equivalence`), and the gate's
  report validator catches tampered reports.
"""

import json
import pathlib

import pytest

from repro.core import Machine, perfect_memory_config
from repro.core.config import MachineConfig
from repro.ecache.devices import DISK_IRQ, IDLE, TIMER_IRQ, UART_IRQ
from repro.ecache.memory import MemorySystem
from repro.workloads.kernel import (
    DEFAULT_BOOT_FEED,
    KERNEL_DEMOS,
    boot_demo_source,
    run_kernel_demo,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Pinned whole-boot cycle counts under ``perfect_memory_config`` --
#: the determinism contract: any drift here is a semantic change.
PINNED_CYCLES = {
    "kernel-echo": 57_830,
    "kernel-pipeline": 65_668,
    "kernel-slice": 1_400_749,
}


def make_memory() -> MemorySystem:
    config = MachineConfig()
    return MemorySystem(config.memory_words, config.mmio_base)


class TestUart:
    def test_feed_delivers_on_schedule(self):
        memory = make_memory()
        uart = memory.uart
        uart.feed("ab", start=10, interval=5)
        assert uart.next_event == 10
        assert uart.service(9) == 0
        assert not uart.rx_fifo
        uart.service(10)
        assert list(uart.rx_fifo) == [ord("a")]
        assert uart.next_event == 15
        uart.service(20)
        assert list(uart.rx_fifo) == [ord("a"), ord("b")]
        assert uart.next_event == IDLE
        assert uart.rx_delivered == 2

    def test_rx_pops_oldest_and_status_tracks_fifo(self):
        uart = make_memory().uart
        uart.feed("xy", start=0)
        uart.service(5)
        assert uart.read(uart.STATUS_PORT) & uart.RX_READY
        assert uart.read(uart.RX_PORT) == ord("x")
        assert uart.read(uart.RX_PORT) == ord("y")
        assert uart.read(uart.RX_PORT) == 0          # empty FIFO reads 0
        assert uart.read(uart.STATUS_PORT) == uart.TX_READY

    def test_tx_collects_boot_log(self):
        uart = make_memory().uart
        for char in "ok":
            uart.write(uart.TX_PORT, ord(char))
        assert uart.tx_text == "ok"
        assert uart.tx_chars == 2

    def test_rx_interrupt_requires_ctrl_enable(self):
        uart = make_memory().uart
        uart.feed("a", start=0)
        assert uart.service(1) == 0                  # queued, no IRQ
        assert list(uart.rx_fifo) == [ord("a")]
        uart.write(uart.CTRL_PORT, 1)
        uart.feed("b", start=2)
        assert uart.service(2) == UART_IRQ
        assert uart.irqs == 1


class TestDeviceTimer:
    def test_one_shot_fires_once_then_disarms(self):
        memory = make_memory()
        timer = memory.timer
        memory.clock = lambda: 100
        timer.write(timer.INTERVAL_PORT, 10)
        timer.write(timer.CTRL_PORT, timer.ENABLE)
        assert timer.next_event == 110
        assert timer.service(109) == 0
        assert timer.service(110) == TIMER_IRQ
        assert not timer.enabled
        assert timer.next_event == IDLE
        assert timer.read(timer.COUNT_PORT) == 1

    def test_periodic_catchup_counts_all_but_posts_once(self):
        memory = make_memory()
        timer = memory.timer
        memory.clock = lambda: 0
        timer.write(timer.INTERVAL_PORT, 10)
        timer.write(timer.CTRL_PORT, timer.ENABLE | timer.PERIODIC)
        # The machine slept through 5 periods (a bulk stall): one
        # service call catches up, but the ICU level means one post.
        assert timer.service(50) == TIMER_IRQ
        assert timer.read(timer.COUNT_PORT) == 5
        assert timer.next_event == 60

    def test_write_zero_disarms(self):
        timer = make_memory().timer
        timer.write(timer.INTERVAL_PORT, 10)
        timer.write(timer.CTRL_PORT, timer.ENABLE)
        timer.write(timer.CTRL_PORT, 0)
        assert timer.next_event == IDLE
        assert timer.service(1_000_000) == 0


class TestBlockDevice:
    def test_read_command_dmas_sector_and_interrupts(self):
        memory = make_memory()
        disk = memory.disk
        disk.load(3, [11, 22, 33])
        disk.write(disk.SECTOR_PORT, 3)
        disk.write(disk.ADDR_PORT, 0x500)
        disk.write(disk.CMD_PORT, disk.CMD_READ)
        assert disk.read(disk.STATUS_PORT) == disk.BUSY
        due = disk.SEEK_CYCLES + disk.SECTOR_WORDS
        assert disk.service(due - 1) == 0            # still seeking
        assert disk.service(due) == DISK_IRQ
        assert disk.read(disk.STATUS_PORT) == disk.DONE
        assert memory.system.read(0x500) == 11
        assert memory.system.read(0x501) == 22
        assert memory.system.read(0x502) == 33
        assert disk.reads == 1

    def test_write_command_captures_memory(self):
        memory = make_memory()
        disk = memory.disk
        memory.system.write(0x600, 77)
        disk.write(disk.SECTOR_PORT, 5)
        disk.write(disk.ADDR_PORT, 0x600)
        disk.write(disk.CMD_PORT, disk.CMD_WRITE)
        disk.service(disk.SEEK_CYCLES + disk.SECTOR_WORDS)
        assert disk.sectors[5][0] == 77
        assert disk.writes == 1

    def test_command_while_busy_is_ignored(self):
        disk = make_memory().disk
        disk.write(disk.CMD_PORT, disk.CMD_READ)
        disk.write(disk.SECTOR_PORT, 9)
        disk.write(disk.CMD_PORT, disk.CMD_WRITE)   # ignored: busy
        disk.service(disk.SEEK_CYCLES + disk.SECTOR_WORDS)
        assert disk.reads == 1
        assert disk.writes == 0


class TestInterruptControlUnit:
    def test_read_and_clear_vs_peek(self):
        icu = make_memory().icu
        icu.post(TIMER_IRQ | UART_IRQ)
        assert icu.read(1) == TIMER_IRQ | UART_IRQ   # peek keeps the level
        assert icu.read(0) == TIMER_IRQ | UART_IRQ   # read-and-clear
        assert icu.read(1) == 0

    def test_posts_accumulate_as_a_level(self):
        icu = make_memory().icu
        icu.post(TIMER_IRQ)
        icu.post(DISK_IRQ)
        assert icu.read(0) == TIMER_IRQ | DISK_IRQ


class TestKernelDemos:
    @pytest.mark.parametrize("name", sorted(KERNEL_DEMOS))
    def test_demo_boots_with_pinned_log_and_cycles(self, name):
        run = run_kernel_demo(name)
        assert run.machine.halted
        assert run.matches_expected, (
            f"{name} UART log drifted:\n{run.uart_log!r}\n"
            f"expected:\n{run.demo.expected!r}")
        assert run.stats.cycles == PINNED_CYCLES[name]
        assert run.stats.interrupts > 0              # preemption happened

    def test_echo_round_trip_rx_to_getc_to_tx(self):
        """Every fed character travels RX FIFO -> getc -> putc -> TX."""
        run = run_kernel_demo("kernel-echo")
        text, _, _ = DEFAULT_BOOT_FEED
        uart = run.machine.memory.uart
        assert uart.rx_delivered == len(text)
        assert uart.irqs == len(text)                # one RX IRQ per char
        assert run.uart_log.endswith(text)           # echoed back out
        assert not uart.rx_fifo                      # fully drained

    def test_boot_example_matches_generated_source(self):
        """examples/boot.s is the echo demo, checked in verbatim."""
        checked_in = (REPO_ROOT / "examples" / "boot.s").read_text()
        assert checked_in == boot_demo_source(), (
            "examples/boot.s is stale -- regenerate from "
            "repro.workloads.kernel.boot_demo_source()")

    def test_spl_processes_lower_syscalls_to_traps(self):
        """The SPL builtins emit the documented trap ABI."""
        from repro.lang.symbols import SYSCALL_BUILTINS, SYSCALL_NUMBERS

        assert set(SYSCALL_BUILTINS) <= set(SYSCALL_NUMBERS)
        # kernel-slice carries an SPL process; its compiled image must
        # contain traps (the putc/yield/exit lowering), proven by boot.
        kinds = {proc.kind for proc in KERNEL_DEMOS["kernel-slice"].processes}
        assert "spl" in kinds


def check_equivalence_file(path):
    from repro.tools.check_results import check_campaign_file

    return check_campaign_file("equivalence", path)


#: the kernel jobs the gate tests run: the two short demos (kernel-slice
#: runs ~1.4M cycles per boot, so it is left to the campaign itself)
QUICK_DEMOS = ("kernel-echo", "kernel-pipeline")


@pytest.fixture(scope="module")
def gate_payload(tmp_path_factory):
    """The committed equivalence report with its kernel section
    replaced by fresh rows of the two short demos."""
    from repro.harness.equivalence import kernel_case

    committed = json.loads(
        (REPO_ROOT / "EQUIVALENCE_campaign.json").read_text())
    payload = {**committed,
               "kernel": {name: kernel_case(name) for name in QUICK_DEMOS}}
    output = tmp_path_factory.mktemp("equivalence") / "EQUIVALENCE.json"
    output.write_text(json.dumps(payload))
    return payload, output


class TestDevicesGate:
    """The equivalence campaign's kernel rows (`repro campaign
    equivalence`)."""

    def test_quick_gate_is_clean(self, gate_payload):
        from repro.harness.equivalence import gate

        payload, _ = gate_payload
        assert gate(payload) == [], payload["kernel"]

    def test_jit_and_checkpoint_legs_are_bit_identical(self, gate_payload):
        payload, _ = gate_payload
        for name, row in payload["kernel"].items():
            assert row["jit"]["ok"], f"{name}: JIT log diverged"
            assert row["jit"]["blocks_compiled"] > 0, (
                f"{name}: JIT never engaged -- vacuous comparison")
            assert row["checkpoint"]["ok"], (
                f"{name}: restore diverged from the straight run at "
                f"cycle {row['checkpoint']['snapshot_cycle']}")

    def test_committed_report_reproduces(self, gate_payload):
        payload, _ = gate_payload
        committed = json.loads(
            (REPO_ROOT / "EQUIVALENCE_campaign.json").read_text())
        for name in QUICK_DEMOS:
            assert payload["kernel"][name] == committed["kernel"][name], (
                f"{name}: EQUIVALENCE_campaign.json is stale -- rerun "
                "`repro campaign equivalence`")

    def test_report_validator_accepts_clean_report(self, gate_payload):
        _, output = gate_payload
        assert check_equivalence_file(str(output)) == []

    def test_report_validator_catches_tampering(self, gate_payload, tmp_path):
        payload, _ = gate_payload
        tampered = json.loads(json.dumps(payload))
        row = tampered["kernel"]["kernel-echo"]
        row["jit"]["ok"] = False
        row["interrupts"] = 0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        failures = check_equivalence_file(str(path))
        assert any("translated fast path" in failure for failure in failures)
        assert any("zero interrupts" in failure for failure in failures)

    def test_report_validator_catches_missing_file(self, tmp_path):
        assert check_equivalence_file(str(tmp_path / "absent.json"))


class TestDeviceTelemetry:
    def test_device_counters_in_machine_metrics(self):
        run = run_kernel_demo("kernel-echo")
        values = run.machine.metrics().snapshot()
        assert values["device.uart.tx_chars"] == len(run.uart_log)
        assert values["device.timer.fires"] > 0
        assert values["device.uart.irqs"] > 0

    def test_perfetto_trace_carries_device_irq_track(self):
        from repro.telemetry.perfetto import (
            DEVICE_TID,
            trace_events,
            validate_trace_events,
        )
        from repro.telemetry.tracer import CycleTracer
        from repro.workloads.kernel import build_kernel_program

        demo = KERNEL_DEMOS["kernel-echo"]
        config = perfect_memory_config()
        machine = Machine(config)
        machine.load_program(build_kernel_program(demo, config))
        for text, start, interval in demo.feeds:
            machine.memory.uart.feed(text, start=start, interval=interval)
        tracer = CycleTracer(machine, capacity=4096)
        tracer.run(5_000)                            # first few interrupts
        payload = trace_events(tracer)
        assert validate_trace_events(payload) == []
        irqs = [event for event in payload["traceEvents"]
                if event.get("tid") == DEVICE_TID and event["ph"] == "i"]
        assert irqs, "no device-IRQ instants on tid 11"
        assert all(event["name"].startswith("irq ") for event in irqs)
        assert any("timer" in event["name"] for event in irqs)

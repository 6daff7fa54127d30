"""The devices campaign: boot every kernel-lite demo three ways and compare.

Standing gate for the software stack (see ``docs/SOFTWARE.md``): each
demo in
:data:`repro.workloads.kernel.KERNEL_DEMOS` must

* **boot clean** -- the interpretive run halts and its UART transmit
  log equals the demo's pinned golden log, with at least one delivered
  interrupt (a "demo" that never preempts tests nothing);
* **stay cycle-exact under the JIT** -- a second run with the block
  translator enabled must produce the identical boot log, cycle count,
  and retired-instruction count, and must actually compile blocks;
* **survive checkpoint/restore** -- a third run snapshots mid-boot
  (quiescent drain, JSON round-trip, restore into a fresh machine) and
  finishes; log and counters must match the straight run bit-for-bit.

:func:`run_devices_gate` writes the ``DEVICES_results.json`` report;
:func:`gate` is its verdict: a failed comparison is a *finding*, a demo
that raised is a *harness* failure.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
from typing import Any, Dict, List, Optional

from repro.core import Machine, perfect_memory_config
from repro.harness.campaign import (FINDING, HARNESS, REPO_ROOT, Failure,
                                    write_json_atomic)
from repro.workloads.kernel import (KERNEL_DEMOS, KernelRun,
                                    build_kernel_program, run_kernel_demo)

#: demos the --quick gate boots (the timer-sliced SPL demo runs ~1.4M
#: cycles interpreted, so CI smoke keeps the two short ones)
QUICK_DEMOS = ("kernel-echo", "kernel-pipeline")

#: demo boot budget (the longest demo, kernel-slice, runs ~1.4M cycles)
MAX_CYCLES = 2_000_000

DEFAULT_REPORT = REPO_ROOT / "DEVICES_results.json"

#: keys every demo row must carry
ROW_KEYS = ("uart_log", "cycles", "interrupts", "expected_ok", "halted",
            "jit", "checkpoint", "ok")


def _signature(run: KernelRun) -> Dict[str, Any]:
    """The comparable outcome of one boot: log + audited counters."""
    stats = run.stats
    return {
        "uart_log": run.uart_log,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "interrupts": stats.interrupts,
        "device_metrics": dict(run.machine.memory.device_metrics()),
    }


def _boot(name: str, jit: bool = False) -> KernelRun:
    config = perfect_memory_config()
    if jit:
        config = dataclasses.replace(config, jit=True)
    return run_kernel_demo(name, config=config, max_cycles=MAX_CYCLES)


def _checkpoint_boot(name: str, straight: KernelRun) -> Dict[str, Any]:
    """Snapshot one demo mid-boot, restore, finish, and compare.

    The cut cycle is seeded from the demo name so the gate is
    deterministic but each demo snapshots at a different phase of its
    boot (banner, feed window, teardown).
    """
    demo = KERNEL_DEMOS[name]
    config = perfect_memory_config()
    total = straight.stats.cycles
    cut = random.Random(sum(name.encode())).randint(
        total // 4, max(total // 4 + 1, total - total // 4))
    machine = Machine(config)
    machine.load_program(build_kernel_program(demo, config))
    for sector, words in demo.sectors:
        machine.memory.disk.load(sector, list(words))
    for text, start, interval in demo.feeds:
        machine.memory.uart.feed(text, start=start, interval=interval)
    machine.pipeline.run(cut)
    state = json.loads(json.dumps(machine.snapshot()))
    restored = Machine(config)
    restored.restore(state)
    stats = restored.run(MAX_CYCLES)
    run = KernelRun(demo=demo, machine=restored,
                    uart_log=restored.memory.uart.tx_text, stats=stats)
    return {
        "snapshot_cycle": cut,
        "snapshot_format": state["format"],
        "ok": _signature(run) == _signature(straight),
        "halted": restored.halted,
    }


def _gate_demo(name: str) -> Dict[str, Any]:
    """Boot one demo three ways; every comparison lands in the row."""
    straight = _boot(name)
    row: Dict[str, Any] = {
        "description": KERNEL_DEMOS[name].description,
        **_signature(straight),
        "expected_ok": straight.matches_expected,
        "halted": straight.machine.halted,
    }
    jit_run = _boot(name, jit=True)
    translator = jit_run.machine.pipeline._translator
    row["jit"] = {
        "ok": _signature(jit_run) == _signature(straight),
        "halted": jit_run.machine.halted,
        "blocks_compiled": translator.stats.compiled if translator else 0,
        "entries_taken": translator.stats.entries if translator else 0,
    }
    row["checkpoint"] = _checkpoint_boot(name, straight)
    row["ok"] = (row["expected_ok"] and row["halted"]
                 and row["interrupts"] > 0
                 and row["jit"]["ok"] and row["jit"]["blocks_compiled"] > 0
                 and row["checkpoint"]["ok"])
    return row


def run_devices_gate(quick: bool = False,
                     output: Optional[pathlib.Path] = None,
                     ) -> Dict[str, Any]:
    """Run the gate over the demo set and persist the report."""
    names = QUICK_DEMOS if quick else tuple(KERNEL_DEMOS)
    demos: Dict[str, Any] = {}
    harness_failures: List[str] = []
    for name in names:
        try:
            demos[name] = _gate_demo(name)
        except Exception as exc:               # noqa: BLE001 -- taxonomy
            harness_failures.append(f"{name}: {type(exc).__name__}: {exc}")
    failed = sorted(name for name, row in demos.items() if not row["ok"])
    payload: Dict[str, Any] = {
        "schema": 1,
        "quick": quick,
        "demos": demos,
        "summary": {
            "demos": len(names),
            "ok": sum(1 for row in demos.values() if row["ok"]),
            "failed": failed,
            "harness_failures": harness_failures,
        },
    }
    path = pathlib.Path(output) if output else DEFAULT_REPORT
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


def add_arguments(parser) -> None:
    """The devices campaign's description and options."""
    parser.description = (
        "Boot each kernel-lite demo (see docs/SOFTWARE.md) three ways and "
        "compare: the UART boot log must match its pinned golden log "
        "with interrupts delivered, the JIT run must be bit-exact (log, "
        "cycles, instructions) with blocks compiled, and a mid-boot "
        "snapshot/restore must finish bit-identical to the straight "
        "run.  A finding is a failed comparison.")
    parser.add_argument("--quick", action="store_true",
                        help="skip the long timer-sliced demo (CI smoke)")


def run(args) -> Dict[str, Any]:
    """Run the gate from parsed command-line options."""
    return run_devices_gate(quick=args.quick, output=args.output)


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict, per demo.

    * **boot** -- the demo halted and its UART log equals the pinned
      golden log, with at least one delivered interrupt (a boot that
      never preempts tests nothing);
    * **jit** -- the translated-fast-path run was bit-exact (log,
      cycles, instructions) and compiled at least one block;
    * **checkpoint** -- the mid-boot snapshot/restore run finished
      bit-identical to the straight run.
    """
    demos = payload.get("demos")
    summary = payload.get("summary")
    failures = []
    if not isinstance(demos, dict) or not demos:
        failures.append(Failure(HARNESS, "section 'demos' is missing or "
                                         "empty (partial or interrupted "
                                         "gate run?)"))
    if not isinstance(summary, dict):
        failures.append(Failure(HARNESS, "section 'summary' is missing or "
                                         "not an object"))
    if failures:
        return failures
    for failure in summary.get("harness_failures", []):
        failures.append(Failure(HARNESS, f"harness failure: {failure}"))
    for name, row in sorted(demos.items()):
        if not isinstance(row, dict):
            failures.append(Failure(HARNESS, f"demo '{name}' row is not "
                                             "an object"))
            continue
        missing = [key for key in ROW_KEYS if key not in row]
        if missing:
            failures.append(Failure(HARNESS, f"demo '{name}' is missing "
                                             f"{missing}"))
            continue
        if not row["halted"]:
            failures.append(Failure(FINDING, f"demo '{name}' did not halt"))
        if not row["expected_ok"]:
            failures.append(Failure(
                FINDING, f"demo '{name}' boot log differs from its pinned "
                         f"golden log (got {row['uart_log']!r})"))
        if not row["interrupts"]:
            failures.append(Failure(
                FINDING, f"demo '{name}' delivered zero interrupts "
                         "(nothing was preempted)"))
        jit = row["jit"]
        if not jit.get("ok"):
            failures.append(Failure(
                FINDING, f"demo '{name}' diverged under the translated "
                         "fast path"))
        if not jit.get("blocks_compiled"):
            failures.append(Failure(
                FINDING, f"demo '{name}' compiled no blocks under the JIT "
                         "(fast path never engaged)"))
        if not row["checkpoint"].get("ok"):
            failures.append(Failure(
                FINDING, f"demo '{name}' diverged across checkpoint/"
                         "restore (snapshot at cycle "
                         f"{row['checkpoint'].get('snapshot_cycle')})"))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable per-demo verdict lines for the CLI."""
    lines = []
    for name, row in sorted(payload["demos"].items()):
        verdict = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"  {name:<16} {verdict:<5} {row['cycles']:>9} cycles, "
            f"{row['interrupts']:>4} interrupts, jit "
            f"{'exact' if row['jit']['ok'] else 'DIVERGED'} "
            f"({row['jit']['blocks_compiled']} blocks), checkpoint "
            f"{'exact' if row['checkpoint']['ok'] else 'DIVERGED'} "
            f"@{row['checkpoint']['snapshot_cycle']}")
    summary = payload["summary"]
    lines.append(f"devices gate: {summary['ok']}/{summary['demos']} demos "
                 f"held ({len(summary['harness_failures'])} harness "
                 "failures)")
    return "\n".join(lines)

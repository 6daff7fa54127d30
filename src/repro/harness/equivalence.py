"""The equivalence campaign: fast paths against the reference, whole state.

The interpretive pipeline is the reference semantics.  A fast path
holds only if it ends in the reference run's whole machine state
(:func:`repro.checkpoint.state.machine_signature`, or ``multi_state``
for a multiprocessor).  One Runner grid holds two kinds of job:

* **restore** -- sieve and bubble with the JIT off and on, the parallel
  sieve on a 4-node multiprocessor, and a band of fuzz seeds with the
  JIT off and on: each runs to a cut, snapshots, passes through JSON,
  restores into a fresh machine and finishes
  (:func:`repro.checkpoint.state.round_trip`);
* **kernel** -- each kernel-lite demo (see ``docs/SOFTWARE.md``) boots
  three ways.  The straight boot's UART log must equal the demo's
  pinned golden log, with at least one interrupt delivered (a demo
  that never preempts tests nothing).  The boot under the JIT must
  compile blocks, and it and a boot snapshotted mid-way must end in
  the straight boot's state.

Every comparison records the paths that differ (``mismatches``).
:func:`gate` is the verdict: a failed comparison is a *finding*, a job
that died in the harness is a *harness* failure.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
from typing import Any, Callable, Dict, List, Optional

from repro.checkpoint.state import machine_signature, round_trip, state_diff
from repro.harness.campaign import (FINDING, HARNESS, REPO_ROOT, Failure,
                                    OptionError, add_runner_arguments,
                                    write_json_atomic)
from repro.harness.runner import Job, Runner

DEFAULT_REPORT = REPO_ROOT / "EQUIVALENCE_campaign.json"

#: the longest job, kernel-slice's three boots, runs for seconds; two
#: minutes means a hang, not a slow machine
JOB_TIMEOUT = 120.0

#: run bound, well above the longest run (kernel-slice, ~1.4M cycles)
MAX_CYCLES = 2_000_000

#: named single-core workloads of the restore section
WORKLOADS = ("sieve", "bubble")

#: keys every kernel row must carry
KERNEL_KEYS = ("uart_log", "cycles", "interrupts", "expected_ok", "halted",
               "jit", "checkpoint", "ok")


def _compare(want: Dict[str, Any], got: Dict[str, Any]) -> Dict[str, Any]:
    """One leg's verdict: a whole state against the reference's."""
    paths = ([] if want == got
             else [diff["path"] for diff in state_diff(want, got)])
    return {"ok": not paths, "mismatches": paths}


def _restore_leg(build: Callable[[], Any], cut: int, want: Dict[str, Any],
                 signature=machine_signature) -> Dict[str, Any]:
    """Round-trip a freshly built machine at ``cut``, finish it, and
    compare its ``signature`` with the straight run's, ``want``."""
    restored = round_trip(build(), cut)
    restored.run(MAX_CYCLES)
    return {"snapshot_cycle": cut, **_compare(want, signature(restored))}


# ---------------------------------------------------------------- restore
def workload_case(name: str, jit: bool) -> Dict[str, Any]:
    """A named workload, snapshotted halfway."""
    from repro.core import Machine, MachineConfig
    from repro.workloads import cached_program

    program, config = cached_program(name), MachineConfig(jit=jit)

    def build() -> Machine:
        machine = Machine(config)
        machine.load_program(program)
        return machine

    straight = build()
    straight.run(MAX_CYCLES)
    total = straight.stats.cycles
    leg = _restore_leg(build, max(1, total // 2), machine_signature(straight))
    return {"cycles": total, "halted": straight.halted, **leg,
            "ok": straight.halted and leg["ok"]}


def multi_case(nodes: int) -> Dict[str, Any]:
    """The parallel sieve on ``nodes`` nodes, snapshotted halfway; both
    runs share one config, so their whole ``multi_state`` compares."""
    from repro.checkpoint.state import multi_state
    from repro.multi.system import MultiMachine
    from repro.workloads.parallel import parallel_program

    program = parallel_program("psieve", nodes)

    def build() -> MultiMachine:
        system = MultiMachine(nodes)
        system.load_program(program)
        return system

    straight = build()
    total = straight.run(MAX_CYCLES)
    leg = _restore_leg(build, max(1, total // 2), multi_state(straight),
                       multi_state)
    return {"cycles": total, "halted": straight.all_halted, **leg,
            "ok": straight.all_halted and leg["ok"]}


def fuzz_case(seed: int, mode: str, jit: bool) -> Dict[str, Any]:
    """One fuzz seed through the oracle's checkpoint pair."""
    from repro.fuzz.gen import GenConfig, generate_program
    from repro.fuzz.oracle import (_programs_for,
                                   check_checkpoint_equivalence,
                                   run_pipeline)

    generated = generate_program(seed, GenConfig(mode=mode, quick=True))
    _naive, reorganized = _programs_for(generated)
    reference = run_pipeline(reorganized, generated)
    report = check_checkpoint_equivalence(reorganized, generated,
                                          reference, jit=jit)
    mismatches = ([] if report is None
                  else [mismatch["detail"] for mismatch in report.mismatches])
    return {"cycles": reference.stats.cycles, "halted": reference.halted,
            "ok": not mismatches, "mismatches": mismatches}


# ----------------------------------------------------------------- kernel
def kernel_case(name: str) -> Dict[str, Any]:
    """Boot one kernel demo straight, under the JIT, and across a
    checkpoint; every comparison lands in the row.

    The cut cycle is seeded from the demo name, so the campaign is
    deterministic but each demo snapshots at a different phase of its
    boot (banner, feed window, teardown).
    """
    from repro.core import perfect_memory_config
    from repro.workloads.kernel import (KERNEL_DEMOS, kernel_machine,
                                        run_kernel_demo)

    config = perfect_memory_config()
    straight = run_kernel_demo(name, config, MAX_CYCLES)
    stats, machine = straight.stats, straight.machine
    want = machine_signature(machine)
    row: Dict[str, Any] = {
        "description": KERNEL_DEMOS[name].description,
        "uart_log": straight.uart_log,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "interrupts": stats.interrupts,
        "device_metrics": dict(machine.memory.device_metrics()),
        "expected_ok": straight.matches_expected,
        "halted": machine.halted,
    }
    jit_run = run_kernel_demo(name, dataclasses.replace(config, jit=True),
                              MAX_CYCLES)
    translator = jit_run.machine.pipeline._translator
    row["jit"] = {
        **_compare(want, machine_signature(jit_run.machine)),
        "blocks_compiled": translator.stats.compiled if translator else 0,
        "entries_taken": translator.stats.entries if translator else 0,
    }
    total = stats.cycles
    cut = random.Random(sum(name.encode())).randint(
        total // 4, max(total // 4 + 1, total - total // 4))
    row["checkpoint"] = _restore_leg(lambda: kernel_machine(name, config),
                                     cut, want)
    row["ok"] = (row["expected_ok"] and row["halted"]
                 and row["interrupts"] > 0
                 and row["jit"]["ok"] and row["jit"]["blocks_compiled"] > 0
                 and row["checkpoint"]["ok"])
    return row


# ------------------------------------------------------------------ driver
def _jobs(fuzz_seeds: int) -> List[Job]:
    """The grid: ``section/key`` job ids, the long kernel boots first."""
    from repro.workloads.kernel import KERNEL_DEMOS

    cases = [("kernel", name, "kernel_case", {"name": name})
             for name in KERNEL_DEMOS]
    for name in WORKLOADS:
        for jit in (False, True):
            cases.append(("restore", f"{name}-jit{int(jit)}",
                          "workload_case", {"name": name, "jit": jit}))
    cases.append(("restore", "psieve-n4", "multi_case", {"nodes": 4}))
    for seed in range(fuzz_seeds):
        mode = ("isa", "lang")[seed % 2]
        for jit in (False, True):
            key = f"fuzz-seed{seed:03d}-{mode}-jit{int(jit)}"
            cases.append(("restore", key, "fuzz_case",
                          {"seed": seed, "mode": mode, "jit": jit}))
    return [Job(id=f"{section}/{key}",
                fn=f"repro.harness.equivalence:{fn}", params=params,
                timeout=JOB_TIMEOUT, sweep="equivalence")
            for section, key, fn, params in cases]


def run_campaign(fuzz_seeds: int = 6,
                 workers: Optional[int] = None,
                 parallel: bool = True,
                 output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run the grid and persist the report.

    Raises :class:`OptionError` before any job runs for a negative
    ``fuzz_seeds``.
    """
    if fuzz_seeds < 0:
        raise OptionError(f"fuzz seeds cannot be negative, got "
                          f"{fuzz_seeds}")
    runner = Runner(max_workers=workers, default_timeout=JOB_TIMEOUT)
    payload: Dict[str, Any] = {
        "schema": 1,
        "config": {"fuzz_seeds": fuzz_seeds},
        "restore": {}, "kernel": {}, "harness": {},
    }
    for result in runner.run(_jobs(fuzz_seeds), parallel=parallel):
        if result.ok:
            section, key = result.job_id.split("/", 1)
            payload[section][key] = result.value
        else:
            payload["harness"][result.job_id] = {
                "status": result.status, "error_kind": result.error_kind,
                "error": result.error}
    path = pathlib.Path(output) if output else DEFAULT_REPORT
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


def add_arguments(parser) -> None:
    """The equivalence campaign's description and options."""
    parser.description = (
        "Show every fast path equal to the interpretive reference on the "
        "whole machine state: sieve, bubble, a 4-node parallel sieve and "
        "fuzz seeds snapshotted mid-run, restored into a fresh machine "
        "and finished (JIT off and on), and each kernel-lite demo (see "
        "docs/SOFTWARE.md) booted straight, under the JIT and across a "
        "mid-boot snapshot, its UART log matched against its pinned "
        "golden log.  A finding is a failed comparison.")
    parser.add_argument("--fuzz-seeds", type=int, default=6,
                        help="fuzz seeds in the restore section "
                             "(default 6)")
    add_runner_arguments(parser)


def run(args) -> Dict[str, Any]:
    """Run the campaign from parsed command-line options."""
    return run_campaign(fuzz_seeds=args.fuzz_seeds, workers=args.workers,
                        parallel=not args.serial, output=args.output)


def _kernel_failures(name: str, row: Any) -> List[Failure]:
    """One kernel row's verdict, field by field."""
    if not isinstance(row, dict):
        return [Failure(HARNESS, f"demo '{name}' row is not an object")]
    missing = [key for key in KERNEL_KEYS if key not in row]
    if missing:
        return [Failure(HARNESS, f"demo '{name}' is missing {missing}")]
    failures = []
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
            FINDING, f"demo '{name}' diverged under the translated fast "
                     f"path at {jit.get('mismatches')}"))
    if not jit.get("blocks_compiled"):
        failures.append(Failure(
            FINDING, f"demo '{name}' compiled no blocks under the JIT "
                     "(fast path never engaged)"))
    checkpoint = row["checkpoint"]
    if not checkpoint.get("ok"):
        failures.append(Failure(
            FINDING, f"demo '{name}' diverged across checkpoint/restore "
                     f"(snapshot at cycle "
                     f"{checkpoint.get('snapshot_cycle')}) at "
                     f"{checkpoint.get('mismatches')}"))
    return failures


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict.

    * **restore** -- every round-tripped run halted in the straight
      run's whole state;
    * **kernel** -- each demo halted, its UART log equals the pinned
      golden log and it delivered at least one interrupt; its JIT boot
      compiled at least one block, and that boot and its checkpointed
      boot ended in the straight boot's whole state;
    * **harness** -- no job errored, timed out or crashed.
    """
    failures = [Failure(HARNESS, f"section '{section}' is missing or "
                                 "empty (partial or interrupted "
                                 "campaign?)")
                for section in ("restore", "kernel")
                if not isinstance(payload.get(section), dict)
                or not payload[section]]
    if failures:
        return failures
    for job_id, failure in sorted(payload.get("harness", {}).items()):
        failures.append(Failure(
            HARNESS, f"job '{job_id}' ended '{failure.get('status')}' "
                     f"({failure.get('error_kind')})"))
    for key, row in sorted(payload["restore"].items()):
        if not row.get("halted"):
            failures.append(Failure(FINDING, f"restore case '{key}' never "
                                             "halted"))
        elif not row.get("ok"):
            failures.append(Failure(
                FINDING, f"restore case '{key}' diverged from the "
                         f"straight run at {row.get('mismatches')}"))
    for name, row in sorted(payload["kernel"].items()):
        failures.extend(_kernel_failures(name, row))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    restore, kernel = payload["restore"], payload["kernel"]
    lines = [
        f"equivalence campaign ({payload['config']['fuzz_seeds']} fuzz "
        "seeds)",
        f"  restore          {sum(row['ok'] for row in restore.values())}/"
        f"{len(restore)} bit-identical",
    ]
    for key, row in sorted(restore.items()):
        if not row["ok"]:
            lines.append(f"  ! restore/{key}: {row['mismatches'][:3]}")
    for name, row in sorted(kernel.items()):
        lines.append(
            f"  {name:<16} {'ok' if row['ok'] else 'FAIL':<5} "
            f"{row['cycles']:>9} cycles, {row['interrupts']:>4} "
            f"interrupts, jit {'exact' if row['jit']['ok'] else 'DIVERGED'}"
            f" ({row['jit']['blocks_compiled']} blocks), checkpoint "
            f"{'exact' if row['checkpoint']['ok'] else 'DIVERGED'} "
            f"@{row['checkpoint']['snapshot_cycle']}")
    for job_id, failure in sorted(payload["harness"].items()):
        lines.append(f"  x {job_id}: {failure['status']} "
                     f"({failure['error_kind']})")
    return "\n".join(lines)

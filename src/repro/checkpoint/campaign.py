"""The checkpoint campaign: restore equivalence and corruption rejection.

Two sections, each a falsifiable claim about the checkpoint layer:

* **equivalence** -- for every named workload (and a band of fuzz
  seeds), run to a mid-point, snapshot, JSON-round-trip, restore into a
  *fresh* machine, finish, and require the whole machine state
  (``machine_signature``, or ``multi_state``) to be bit-identical to an
  uninterrupted run, with the JIT both off and on.
* **corruption** -- build a two-generation snapshot ladder, then
  truncate the newest, flip a byte under its sha, forge a bad format
  version, and attempt a wrong-config restore.  Each must raise its
  named error, and ``load_latest`` must fall back to the older good
  generation (never load garbage).

Verdict (:func:`gate`): a divergence or recovery failure in either
section is a *finding*; a job that died in an unclassified way is a
*harness* failure.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.processor import Machine
from repro.harness.campaign import (FINDING, HARNESS, REPO_ROOT, Failure,
                                    add_runner_arguments, write_json_atomic)
from repro.harness.runner import Job, Runner
from repro.checkpoint.state import (
    FORMAT,
    SnapshotConfigError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    machine_signature,
    machine_state,
    multi_state,
    restore_machine,
    state_diff,
)
from repro.checkpoint.store import SnapshotStore, state_cycles

DEFAULT_REPORT = REPO_ROOT / "CHECKPOINT_campaign.json"

#: an equivalence job runs for seconds; two minutes means a hang, not a
#: slow machine
JOB_TIMEOUT = 120.0

#: named single-core workloads for the equivalence section
WORKLOADS = ("sieve", "bubble")


# ------------------------------------------------------------ equivalence
def _equivalence_cases(fuzz_seeds: int) -> List[Dict[str, Any]]:
    cases: List[Dict[str, Any]] = []
    for name in WORKLOADS:
        for jit in (False, True):
            cases.append({"kind": "workload", "name": name, "jit": jit})
    cases.append({"kind": "multi", "name": "psieve", "nodes": 4})
    for seed in range(fuzz_seeds):
        for jit in (False, True):
            cases.append({"kind": "fuzz", "seed": seed,
                          "mode": ("isa", "lang")[seed % 2], "jit": jit})
    return cases


def _workload_program(name: str):
    from repro.workloads import cached_program

    return cached_program(name)


def _check_workload_case(name: str, jit: bool) -> Dict[str, Any]:
    """Snapshot a named workload halfway, restore fresh, finish, and
    compare against the uninterrupted run -- the oracle's signature
    comparison, without the fuzz generator."""
    program = _workload_program(name)
    config = MachineConfig(jit=jit)

    straight = Machine(config)
    straight.load_program(program)
    straight.run(10_000_000)
    if not straight.halted:
        return {"status": "no-halt", "detail": f"{name} never halted"}
    total = straight.stats.cycles

    first = Machine(config)
    first.load_program(program)
    first.run(max(1, total // 2))
    state = json.loads(json.dumps(first.snapshot()))

    second = Machine(config)
    second.load_program(program)
    second.restore(state)
    second.run(10_000_000)
    if not second.halted:
        return {"status": "no-halt", "detail": f"{name} resumed run hung"}

    want, got = machine_signature(straight), machine_signature(second)
    if want != got:
        paths = [diff["path"] for diff in state_diff(want, got, 3)]
        return {"status": "diverged", "detail": f"state differs at {paths}"}
    return {"status": "ok", "cycles": total,
            "snapshot_cycles": state_cycles(state)}


def _check_multi_case(nodes: int) -> Dict[str, Any]:
    """Same round-trip for the parallel sieve on a MultiMachine; both
    runs share one config, so their whole ``multi_state`` compares."""
    from repro.multi.system import MultiMachine
    from repro.workloads.parallel import parallel_program

    program = parallel_program("psieve", nodes)

    straight = MultiMachine(nodes)
    straight.load_program(program)
    straight.run(10_000_000)
    if not straight.all_halted:
        return {"status": "no-halt", "detail": "psieve never halted"}
    total = straight.cycles

    first = MultiMachine(nodes)
    first.load_program(program)
    while not first.all_halted and first.cycles < max(1, total // 2):
        first.step()
    state = json.loads(json.dumps(first.snapshot()))

    second = MultiMachine(nodes)
    second.load_program(program)
    second.restore(state)
    second.run(10_000_000)
    if not second.all_halted:
        return {"status": "no-halt", "detail": "psieve resumed run hung"}
    want, got = multi_state(straight), multi_state(second)
    if want != got:
        paths = [diff["path"] for diff in state_diff(want, got, 3)]
        return {"status": "diverged", "detail": f"state differs at {paths}"}
    return {"status": "ok", "cycles": total,
            "snapshot_cycles": state_cycles(state)}


def _check_fuzz_case(seed: int, mode: str, jit: bool) -> Dict[str, Any]:
    """One fuzz seed through the oracle's checkpoint differential."""
    from repro.fuzz.gen import GenConfig, generate_program
    from repro.fuzz.oracle import (
        _programs_for,
        check_checkpoint_equivalence,
        run_pipeline,
    )

    generated = generate_program(seed, GenConfig(mode=mode, quick=True))
    _naive, reorganized = _programs_for(generated)
    reference = run_pipeline(reorganized, generated)
    report = check_checkpoint_equivalence(reorganized, generated,
                                          reference, jit=jit)
    if report is None:
        return {"status": "ok"}
    return {"status": "diverged", "detail": report.kind,
            "mismatches": report.mismatches[:3]}


def equivalence_point(case: Dict[str, Any]) -> Dict[str, Any]:
    """One equivalence job (also the picklable Runner entry point)."""
    if case["kind"] == "workload":
        verdict = _check_workload_case(case["name"], case["jit"])
    elif case["kind"] == "multi":
        verdict = _check_multi_case(case["nodes"])
    else:
        verdict = _check_fuzz_case(case["seed"], case["mode"], case["jit"])
    return {**case, **verdict}


def _case_id(case: Dict[str, Any]) -> str:
    if case["kind"] == "workload":
        tail = f"{case['name']}-jit{int(case['jit'])}"
    elif case["kind"] == "multi":
        tail = f"{case['name']}-n{case['nodes']}"
    else:
        tail = f"seed{case['seed']:03d}-{case['mode']}-jit{int(case['jit'])}"
    return f"equiv/{case['kind']}-{tail}"


def run_equivalence(fuzz_seeds: int = 50,
                    workers: Optional[int] = None,
                    parallel: bool = True) -> Dict[str, Any]:
    """The restore-equivalence gate over workloads + fuzz seeds."""
    cases = _equivalence_cases(fuzz_seeds)
    jobs = [Job(id=_case_id(case),
                fn="repro.checkpoint.campaign:equivalence_point",
                params={"case": case}, timeout=JOB_TIMEOUT,
                sweep="checkpoint")
            for case in cases]
    runner = Runner(max_workers=workers, default_timeout=JOB_TIMEOUT)
    results = runner.run(jobs, parallel=parallel)

    rows: List[Dict[str, Any]] = []
    ok = diverged = harness = 0
    for result in results:
        if result.ok and isinstance(result.value, dict):
            verdict = result.value
            rows.append({"id": result.job_id, **verdict})
            if verdict["status"] == "ok":
                ok += 1
            else:
                diverged += 1
        else:
            harness += 1
            rows.append({"id": result.job_id, "status": result.status,
                         "error_kind": result.error_kind,
                         "error": result.error})
    return {"cases": len(cases), "ok": ok, "diverged": diverged,
            "harness_failures": harness,
            "failures": [row for row in rows if row["status"] != "ok"]}


# ------------------------------------------------------------- corruption
def _corruption_ladder(store: SnapshotStore,
                       run_id: str) -> Tuple[Machine, List[pathlib.Path]]:
    """Two honest generations of a sieve run, newest last."""
    program = _workload_program("sieve")
    machine = Machine()
    machine.load_program(program)
    machine.run(2_000)
    store.save(run_id, machine.snapshot())
    machine.run(machine.stats.cycles + 2_000)
    store.save(run_id, machine.snapshot())
    return machine, store.generations(run_id)


def run_corruption(store_root: Optional[pathlib.Path] = None
                   ) -> Dict[str, Any]:
    """The corruption-rejection gate: every tampered snapshot must raise
    its named error and ``load_latest`` must fall back a generation."""
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if store_root is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="ckpt-corrupt-")
        store_root = pathlib.Path(own_tmp.name)
    try:
        cases: List[Dict[str, Any]] = []

        def attempt(name: str, expect: type, fn) -> None:
            try:
                fn()
            except expect as error:
                cases.append({"case": name, "status": "ok",
                              "error": type(error).__name__})
            except Exception as error:  # noqa: BLE001 -- report, don't mask
                cases.append({"case": name, "status": "wrong-error",
                              "error": f"{type(error).__name__}: {error}"})
            else:
                cases.append({"case": name, "status": "not-rejected",
                              "error": None})

        # -- truncated newest generation ------------------------------
        store = SnapshotStore(pathlib.Path(store_root) / "truncate")
        machine, ladder = _corruption_ladder(store, "victim")
        good_older = ladder[0]
        newest = ladder[-1]
        data = newest.read_bytes()
        newest.write_bytes(data[:len(data) // 2])
        attempt("truncated", SnapshotIntegrityError,
                lambda: store.load(newest))
        state, path = store.load_latest("victim")
        cases.append({
            "case": "truncated-fallback",
            "status": "ok" if (path == good_older
                               and state is not None) else "no-fallback",
            "error": None if path == good_older else str(path)})

        # -- single byte flipped under the sha ------------------------
        store = SnapshotStore(pathlib.Path(store_root) / "flip")
        machine, ladder = _corruption_ladder(store, "victim")
        newest = ladder[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01
        newest.write_bytes(bytes(data))
        attempt("flipped-byte", SnapshotIntegrityError,
                lambda: store.load(newest))
        state, path = store.load_latest("victim")
        cases.append({
            "case": "flipped-byte-fallback",
            "status": "ok" if path == ladder[0] else "no-fallback",
            "error": None if path == ladder[0] else str(path)})

        # -- forged format version (valid sha!) -----------------------
        store = SnapshotStore(pathlib.Path(store_root) / "format")
        machine, ladder = _corruption_ladder(store, "victim")
        forged = json.loads(ladder[-1].read_text())
        forged["format"] = FORMAT + 999
        store.save("victim", forged)
        attempt("format-version", SnapshotFormatError,
                lambda: store.load(store.generations("victim")[-1]))

        # -- wrong-config restore -------------------------------------
        state = machine_state(machine)
        other = Machine(MachineConfig(
            icache=dataclasses.replace(MachineConfig().icache, ways=4)))
        other.load_program(_workload_program("sieve"))
        attempt("wrong-config", SnapshotConfigError,
                lambda: restore_machine(other, state))

        failures = [case for case in cases if case["status"] != "ok"]
        return {"cases": cases, "failures": len(failures),
                "ok": not failures}
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


# ------------------------------------------------------------------ driver
def run_campaign(fuzz_seeds: int = 50,
                 workers: Optional[int] = None,
                 parallel: bool = True,
                 quick: bool = False,
                 output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run both gates and persist the structured report."""
    if quick:
        fuzz_seeds = min(fuzz_seeds, 6)
    equivalence = run_equivalence(fuzz_seeds, workers=workers,
                                  parallel=parallel)
    corruption = run_corruption()

    payload: Dict[str, Any] = {
        "schema": 2,
        "config": {"fuzz_seeds": fuzz_seeds, "quick": quick},
        "equivalence": equivalence,
        "corruption": corruption,
        "ok": (equivalence["diverged"] == 0
               and equivalence["harness_failures"] == 0
               and corruption["ok"]),
    }
    path = pathlib.Path(output) if output else DEFAULT_REPORT
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


def add_arguments(parser) -> None:
    """The checkpoint campaign's description and options."""
    parser.description = (
        "Run the standing checkpoint gates: snapshot mid-run + restore + "
        "finish must be bit-identical to an uninterrupted run (workloads, "
        "a 4-node multiprocessor, and fuzz seeds; JIT off and on); "
        "corrupted/truncated/mis-versioned snapshots must be rejected "
        "with named errors and fall back a generation.  A finding is a "
        "failed gate.")
    parser.add_argument("--fuzz-seeds", type=int, default=50,
                        help="fuzz seeds in the equivalence gate "
                             "(default 50)")
    parser.add_argument("--quick", action="store_true",
                        help="few fuzz seeds (CI smoke)")
    add_runner_arguments(parser)


def run(args) -> Dict[str, Any]:
    """Run both gates from parsed command-line options."""
    return run_campaign(fuzz_seeds=args.fuzz_seeds, workers=args.workers,
                        parallel=not args.serial, quick=args.quick,
                        output=args.output)


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict over its two sections.

    * **equivalence** -- every restore-equivalence case bit-identical;
    * **corruption** -- every tamper case rejected with its named error
      and fallen back to a good generation.
    """
    missing = [section for section in ("equivalence", "corruption")
               if not isinstance(payload.get(section), dict)]
    if missing:
        return [Failure(HARNESS, f"section '{section}' is missing or not "
                                 "an object (partial or interrupted "
                                 "campaign?)") for section in missing]
    failures = []
    equivalence = payload["equivalence"]
    if equivalence.get("diverged"):
        failures.append(Failure(
            FINDING, f"{equivalence['diverged']} restore-equivalence "
                     "case(s) diverged from the straight run (see the "
                     "report's 'equivalence.failures')"))
    if equivalence.get("harness_failures"):
        failures.append(Failure(
            HARNESS, f"{equivalence['harness_failures']} equivalence "
                     "job(s) failed in the harness"))
    cases = payload["corruption"].get("cases")
    if not isinstance(cases, list) or not cases:
        failures.append(Failure(HARNESS, "section 'corruption' has no "
                                         "cases"))
    else:
        for case in cases:
            if case.get("status") != "ok":
                failures.append(Failure(
                    FINDING, f"corruption case '{case.get('case')}' ended "
                             f"'{case.get('status')}' ({case.get('error')})"))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    equivalence = payload["equivalence"]
    corruption = payload["corruption"]
    lines = [
        f"checkpoint campaign "
        f"({payload['config']['fuzz_seeds']} fuzz seeds"
        + (", quick" if payload["config"].get("quick") else "") + ")",
        f"  equivalence     {equivalence['ok']}/{equivalence['cases']} "
        f"bit-identical, {equivalence['diverged']} diverged, "
        f"{equivalence['harness_failures']} harness",
        f"  corruption      {len(corruption['cases'])} cases, "
        f"{corruption['failures']} failures",
    ]
    for row in equivalence["failures"][:5]:
        lines.append(f"  ! {row['id']}: {row['status']} "
                     f"{row.get('detail', '')}")
    for case in corruption["cases"]:
        if case["status"] != "ok":
            lines.append(f"  ! corruption/{case['case']}: "
                         f"{case['status']} ({case['error']})")
    return "\n".join(lines)

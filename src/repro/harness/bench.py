"""The bench campaign: the experiment results, and the timings a gate reads.

``repro campaign bench`` runs every section on every call and writes
one report, ``BENCH_pipeline.json`` at the repo root:

* ``experiments`` -- each job of the full experiment grid
  (:func:`repro.harness.experiments.default_jobs`), its verdict and the
  value its point function returned: the Table 1 rows, the Icache
  organizations and fetch-back study, the Ecache sizes, the coprocessor
  schemes and the workload CPIs behind EXPERIMENTS.md;
* ``sweep`` -- the grid's wall time through the parallel
  :class:`~repro.harness.runner.Runner` and serially, held to
  :data:`SWEEP_SPEEDUP_FLOOR`, and the jobs whose serial value differed
  from their parallel one;
* ``jit`` -- the translated fast path against the interpreter: whole
  machine equivalence, coverage and the speedups held to
  :data:`JIT_SPEEDUP_FLOOR` and :data:`JIT_WORKLOAD_SPEEDUP_FLOOR`;
* ``traced`` -- the capture-once/replay-many sweeps: their rows and
  trace store hits;
* ``multi`` -- the multiprocessor scaling grid (:func:`build_multi_section`);
* ``metrics`` -- the workload-cpi sweep's telemetry snapshots, the
  analysis CPI beside each and the suite totals
  (:func:`build_metrics_summary`), audited for the CPI and counter
  accounting identities.

:func:`gate` is the campaign's verdict on those sections, the paper's
shapes included: a failed job or a missing or malformed section is a
*harness* failure; a wrong result, a broken paper shape or identity or a
missed floor is a *finding*.  The report is the one place each paper
number is derived; ``tests/test_experiments_doc.py`` holds EXPERIMENTS.md's
measured column to the committed report's rows.  No other
wall time is recorded: perfbench (``BENCHMARK.json``) measures
throughput under its own scaled protocol.
"""

from __future__ import annotations

import datetime
import os
import pathlib
import platform
import tempfile
import time
from typing import Any, Dict, List, Sequence

from repro.harness.campaign import (FINDING, HARNESS, REPO_ROOT, Failure,
                                    write_json_atomic)
from repro.harness.runner import JobResult, Runner

DEFAULT_REPORT = REPO_ROOT / "BENCH_pipeline.json"

#: workloads the jit section times: one loop-heavy integer program and
#: one branchy one, both in the Pascal suite
JIT_WORKLOADS = ("sieve", "bubble")


def measure_jit_throughput(names: Sequence[str] = JIT_WORKLOADS,
                           repeats: int = 3) -> Dict[str, Any]:
    """Translated-fast-path speedup per workload: jit vs interpreter.

    Each workload runs ``repeats`` alternating interpreter/jit pairs
    (programs compiled once, outside the timed region) and each side's
    wall is its fastest run.  ``equivalent`` asserts the jit run halts
    in the interpretive run's whole machine state
    (:func:`~repro.checkpoint.state.machine_signature`), so the fast
    path is exact or it is broken; ``compile_s`` is the wall time the
    block compiler spent admitting blocks and, on first entry,
    generating their code, ``entry_hit_rate`` is taken entries over
    dispatch hits -- a low rate means guards keep bouncing blocks back
    to the interpreter -- and ``links`` counts the entries made
    straight from a linked exit.  ``shapes`` splits blocks compiled,
    entries and translated cycles by block shape
    (:data:`repro.core.translate.SHAPES`).
    """
    from repro.checkpoint.state import machine_signature
    from repro.core import Machine, MachineConfig
    from repro.workloads import cached_program

    per_workload: Dict[str, Any] = {}
    total_nojit = 0.0
    total_jit = 0.0
    all_equivalent = True
    for name in names:
        program = cached_program(name)
        walls: Dict[bool, List[float]] = {False: [], True: []}
        machines: Dict[bool, Any] = {}
        for _ in range(repeats):
            for jit in (False, True):
                started = time.perf_counter()
                machine = Machine(MachineConfig(jit=jit))
                machine.load_program(program)
                machine.run()
                walls[jit].append(time.perf_counter() - started)
                machines[jit] = machine
        nojit_wall, jit_wall = min(walls[False]), min(walls[True])
        total_nojit += nojit_wall
        total_jit += jit_wall
        machine = machines[True]
        translator = machine.pipeline._translator
        stats = translator.stats
        hits = stats.entries + stats.entry_rejected
        run_cycles = machine.stats.cycles
        row: Dict[str, Any] = {
            "nojit_wall_s": round(nojit_wall, 4),
            "nojit_cycles_per_sec": round(
                machines[False].stats.cycles / nojit_wall),
            "jit_wall_s": round(jit_wall, 4),
            "jit_cycles_per_sec": round(run_cycles / jit_wall),
            "equivalent": (machine_signature(machine)
                           == machine_signature(machines[False])),
            "compile_s": round(translator.compile_s, 4),
            "blocks_compiled": stats.compiled,
            "entry_hit_rate": (round(stats.entries / hits, 4)
                               if hits else 0.0),
            "links": stats.links,
            "cycle_coverage": (round(stats.cycles / run_cycles, 4)
                               if run_cycles else 0.0),
            "shapes": {
                shape: dict(zip(("compiled", "entries", "cycles"), counts))
                for shape, counts in stats.shapes.items()},
            "speedup": round(nojit_wall / jit_wall, 2),
        }
        all_equivalent &= row["equivalent"]
        per_workload[name] = row
    return {
        "workloads": per_workload,
        "repeats": repeats,
        "equivalent": all_equivalent,
        "speedup": (round(total_nojit / total_jit, 2) if total_jit else 0.0),
    }


def _results_section(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Each job's verdict and value; a workload-cpi value leaves out its
    telemetry snapshot, which ``metrics.per_workload`` holds."""
    section = {}
    for r in results:
        value = r.value
        if isinstance(value, dict) and "metrics" in value:
            value = {key: v for key, v in value.items() if key != "metrics"}
        section[r.job_id] = {"status": r.status, "sweep": r.sweep,
                             "attempts": r.attempts, "value": value}
    return section


def build_metrics_summary(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Aggregate per-job telemetry snapshots into one summary payload.

    Pure and deterministic: no timestamps, counters summed across jobs,
    derived gauges recomputed from the summed counters (never averaged)
    -- so a parallel sweep aggregates **byte-identically** to a serial
    one (pinned by ``tests/test_telemetry.py``).  The payload is the
    bench report's ``metrics`` section, which :func:`gate` audits: each
    workload's full snapshot, the analysis CPI reported alongside it
    (the identity under test), and the suite totals.
    """
    per_workload: Dict[str, Any] = {}
    analysis: Dict[str, Any] = {}
    for result in results:
        if not result.ok or result.sweep != "workload-cpi":
            continue
        value = result.value or {}
        snapshot = value.get("metrics")
        if not isinstance(snapshot, dict):
            continue
        name = value.get("workload", result.job_id)
        per_workload[name] = {key: snapshot[key] for key in sorted(snapshot)}
        analysis[name] = {
            "cpi": value.get("cpi"),
            "noop_fraction": value.get("noop_fraction"),
            "cycles": value.get("cycles"),
            "instructions": value.get("instructions"),
        }
    from repro.telemetry.metrics import (derived_from_counters,
                                         merge_counter_snapshots)

    totals = merge_counter_snapshots(per_workload.values())
    return {
        "schema": 1,
        "sweep": "workload-cpi",
        "workloads": sorted(per_workload),
        "per_workload": per_workload,
        "analysis": analysis,
        "totals": totals,
        "derived": derived_from_counters(totals),
    }


def build_multi_section(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Aggregate multi-scaling job results into the ``multi`` section.

    Pure and deterministic (no wall-clock fields): per-job rows keyed by
    job id, plus speedup/contention curves grouped by ``(workload,
    bus_latency, invalidation)`` with the curve's smallest node count as
    the speedup baseline -- so ``speedup[0] == 1.0`` by construction and
    a serial sweep aggregates byte-identically to a parallel one.
    """
    rows: Dict[str, Any] = {}
    failures: List[str] = []
    total = 0
    for result in results:
        if result.sweep != "multi-scaling":
            continue
        total += 1
        if not result.ok or not isinstance(result.value, dict):
            failures.append(result.job_id)
            continue
        value = result.value
        rows[result.job_id] = {
            "workload": value["workload"],
            "nodes": value["nodes"],
            "bus_latency": value["bus_latency"],
            "invalidation": value["invalidation"],
            "size": value["size"],
            "cycles": value["cycles"],
            "node_cycles": value["node_cycles"],
            "instructions": value["instructions"],
            "bus": value["bus"],
            "result": value["result"],
            "result_ok": value["result_ok"],
        }
    groups: Dict[tuple, List[dict]] = {}
    for row in rows.values():
        key = (row["workload"], row["bus_latency"], row["invalidation"])
        groups.setdefault(key, []).append(row)
    curves: Dict[str, Any] = {}
    for (workload, latency, invalidation), members in groups.items():
        members.sort(key=lambda row: row["nodes"])
        base = members[0]["cycles"]
        label = (f"{workload}/bus{latency}/"
                 f"{'inv' if invalidation else 'noinv'}")
        curves[label] = {
            "workload": workload,
            "bus_latency": latency,
            "invalidation": invalidation,
            "nodes": [row["nodes"] for row in members],
            "cycles": [row["cycles"] for row in members],
            "speedup": [round(base / row["cycles"], 6) if row["cycles"]
                        else 0.0 for row in members],
            "acquisitions": [row["bus"]["acquisitions"]
                             for row in members],
            "contention_cycles": [row["bus"]["contention_cycles"]
                                  for row in members],
            "invalidations": [row["bus"]["invalidations"]
                              for row in members],
        }
    return {
        "schema": 1,
        "jobs": total,
        "ok": len(rows),
        "failures": sorted(failures),
        "rows": {key: rows[key] for key in sorted(rows)},
        "curves": {key: curves[key] for key in sorted(curves)},
    }


def _traced_section() -> Dict[str, Any]:
    """Run the capture-once/replay-many sweeps: rows and store hits,
    from one store in a fresh temporary directory, so the counts depend
    only on the source, never on what ``.trace_cache/`` holds."""
    from repro.harness.experiments import TRACED_SWEEPS
    from repro.traces.store import TraceStore

    per_sweep: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="bench-traces-") as root:
        store = TraceStore(root=pathlib.Path(root))
        for name, evaluate in TRACED_SWEEPS.items():
            outcome = evaluate(store=store)
            per_sweep[name] = {
                "rows": outcome["rows"],
                "cache_hits": outcome["cache_hits"],
                "cache_misses": outcome["cache_misses"],
            }
    return {"per_sweep": per_sweep}


def _timed_run(runner: Runner, jobs, parallel: bool):
    started = time.perf_counter()
    results = runner.run(jobs, parallel=parallel)
    return results, time.perf_counter() - started


def add_arguments(parser) -> None:
    """The bench campaign's description and options."""
    parser.description = (
        "Run the full experiment grid (in parallel, then serially), the "
        "jit equivalence and speedup probe, the traced sweeps and the "
        "multiprocessor scaling sweep, and write their results, with the "
        "workload-cpi telemetry, to one report.  A finding is a wrong "
        "result, a broken paper shape, a traced or serial row that differs "
        "from its live parallel row, a broken CPI or counter identity, or "
        "a missed speedup floor.")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPUs)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")


def run(args) -> Dict[str, Any]:
    """Run every section and persist ``BENCH_pipeline.json``.

    The experiment grid runs twice, in parallel and then serially; the
    report keeps the parallel values and names, in ``sweep.mismatched``,
    every job whose serial value differs.  The workload-cpi sweep's
    telemetry snapshots become the ``metrics`` section
    (:func:`build_metrics_summary`).
    """
    from repro.harness.experiments import default_jobs, multi_scaling_jobs

    runner = Runner(max_workers=args.workers)
    jobs = default_jobs(timeout=args.timeout)
    jit = measure_jit_throughput()
    # Parallel first: forked workers must not inherit caches the serial
    # pass warmed in this process, or the speedup figure flatters itself.
    results, parallel_wall = _timed_run(runner, jobs, parallel=True)
    serial, serial_wall = _timed_run(runner, jobs, parallel=False)
    serial_values = {r.job_id: r.value for r in serial}
    traced = _traced_section()
    multi = build_multi_section(runner.run(
        multi_scaling_jobs(timeout=args.timeout), parallel=True))

    payload: Dict[str, Any] = {
        "schema": 1,
        "generated": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workers": runner.max_workers,
        },
        "sweep": {
            "jobs": len(jobs),
            "ok": sum(1 for r in results if r.ok),
            "serial_wall_s": round(serial_wall, 3),
            "parallel_wall_s": round(parallel_wall, 3),
            "speedup": round(serial_wall / parallel_wall, 2),
            "mismatched": sorted(r.job_id for r in results
                                 if r.value != serial_values.get(r.job_id)),
        },
        "experiments": _results_section(results),
        "jit": jit,
        "traced": traced,
        "multi": multi,
        "metrics": build_metrics_summary(results),
    }
    path = pathlib.Path(args.output) if args.output else DEFAULT_REPORT
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


#: the parallel sweep must not be slower than the serial one on a host
#: that gave it two or more workers
SWEEP_SPEEDUP_FLOOR = 1.0

#: floors for the translated fast path: aggregate and per-workload
#: wall-clock speedup of the jit over the interpreter.  Five bench runs
#: on a 2-CPU Xeon, each side timed as the fastest of three alternating
#: runs, read 6.52-9.12x aggregate, sieve
#: 5.02-9.79x and bubble 6.64-9.34x (``jit_gate`` in
#: BENCH_signature.json), so the floors catch a fast path that quietly
#: stopped being fast without failing a healthy one.
JIT_SPEEDUP_FLOOR = 5.0
JIT_WORKLOAD_SPEEDUP_FLOOR = 3.0

#: minimum psieve speedup at 4 nodes (measured: 2.25 -- below 1.2 the
#: bus or barrier regressed)
MULTI_PSIEVE_N4_SPEEDUP = 1.2

#: the 2-word fetch-back must cut the 1-word miss ratio below this
#: fraction of it (E4: it "almost halves the miss ratio")
FETCHBACK_HALVING = 0.6

#: the miss service time with the Icache tags off the datapath (E5: the
#: paper's tags-in-datapath organization misses in 2 cycles)
SLOW_MISS_CYCLES = 3

#: the paper's Icache organization must fetch within this factor of the
#: best 2-cycle organization of the 512-word design space (E5)
ORGANIZATION_SLACK = 1.10

#: the 64K-word Ecache must miss less than this fraction of the 4K one
#: (E15: the design point captures most of the locality)
ECACHE_LOCALITY = 0.5

#: E12's reference interface, and the one that forfeits the Icache
FINAL_COPROC_SCHEME = "address-line interface (final)"
NONCACHED_COPROC_SCHEME = "non-cached coprocessor instructions"

#: keys each plain section of a complete report must carry (``jit``,
#: ``multi`` and ``metrics`` have checks of their own)
SECTION_KEYS = {
    "sweep": ("jobs", "ok", "speedup", "mismatched"),
    "experiments": (),
    "traced": ("per_sweep",),
}

#: keys a complete ``metrics`` section must hold as objects
METRICS_KEYS = ("per_workload", "analysis", "totals", "derived")

#: keys a complete ``multi`` section must carry
MULTI_KEYS = ("jobs", "ok", "failures", "rows", "curves")

#: keys every multi row must carry
MULTI_ROW_KEYS = ("workload", "nodes", "bus_latency", "invalidation",
                  "cycles", "bus", "result", "result_ok")


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict, section by section.

    * **sections** -- ``sweep``, ``experiments`` and ``traced`` are
      present with their keys, every experiment job ended ok, and on a
      host that gave the sweep two or more workers the parallel sweep
      is not slower than the serial one (:data:`SWEEP_SPEEDUP_FLOOR`);
    * **determinism** -- every job returned the same value serially as
      in parallel (``sweep.mismatched`` is empty);
    * **paper shapes** -- :func:`_gate_paper`, on the experiment rows;
    * **trace replay** -- :func:`_gate_traced`;
    * **jit** -- :func:`_gate_jit`;
    * **metrics** -- :func:`_gate_metrics`;
    * **multi** -- :func:`_gate_multi`.

    Every problem names its section, so a partial report reads as
    "section 'sweep' is missing", never as a ``KeyError``.
    """
    failures: List[Failure] = []
    for section, keys in SECTION_KEYS.items():
        value = payload.get(section)
        if not isinstance(value, dict):
            failures.append(Failure(
                HARNESS, f"section '{section}' is missing or not an object "
                         "(partial or interrupted bench run?)"))
            continue
        for key in keys:
            if key not in value:
                failures.append(Failure(
                    HARNESS, f"section '{section}' is missing key '{key}'"))
    experiments = payload.get("experiments")
    for job_id, row in sorted((experiments if isinstance(experiments, dict)
                               else {}).items()):
        if not isinstance(row, dict) or "status" not in row:
            failures.append(Failure(
                HARNESS, f"section 'experiments' row '{job_id}' has no "
                         "'status' field"))
        elif row["status"] not in ("ok", "retried-ok"):
            failures.append(Failure(
                HARNESS, f"experiment job '{job_id}' ended "
                         f"'{row['status']}'"))
    sweep, host = payload.get("sweep"), payload.get("host")
    if isinstance(sweep, dict) and isinstance(host, dict):
        speedup, workers = sweep.get("speedup"), host.get("workers")
        if (isinstance(speedup, (int, float)) and isinstance(workers, int)
                and workers >= 2 and speedup < SWEEP_SPEEDUP_FLOOR):
            failures.append(Failure(
                FINDING, f"section 'sweep' speedup {speedup} on {workers} "
                         f"workers is below {SWEEP_SPEEDUP_FLOOR} (the "
                         "parallel sweep is slower than the serial one)"))
    if isinstance(sweep, dict):
        for job_id in sweep.get("mismatched") or ():
            failures.append(Failure(
                FINDING, f"experiment job '{job_id}' returned a different "
                         "value serially than in parallel (its point "
                         "function is not deterministic)"))
    values = {job_id: row["value"] for job_id, row in
              (experiments if isinstance(experiments, dict) else {}).items()
              if isinstance(row, dict) and isinstance(row.get("value"), dict)}
    return (failures + _gate_paper(values)
            + _gate_traced(payload.get("traced"), values)
            + _gate_jit(payload.get("jit"))
            + _gate_metrics(payload.get("metrics"))
            + _gate_multi(payload.get("multi")))


def _table1_shape(rows: Dict[str, dict]) -> List[str]:
    cost = {f"{slots}-slot-{squash}":
            rows[f"branch/{slots}-slot-{squash}"]["cycles_per_branch"]
            for slots in (1, 2) for squash in ("none", "always", "optional")}
    problems = []
    for slots in (1, 2):
        none, always, optional = (cost[f"{slots}-slot-{squash}"] for squash
                                  in ("none", "always", "optional"))
        if not optional <= always:
            problems.append(f"{slots}-slot optional squashing ({optional:.3f}"
                            f") is no longer best (always {always:.3f})")
        if not always < none:
            problems.append(f"{slots}-slot squashing ({always:.3f}) no "
                            f"longer beats no squashing ({none:.3f})")
    for squash in ("none", "optional"):
        one, two = cost[f"1-slot-{squash}"], cost[f"2-slot-{squash}"]
        if not one < two:
            problems.append(f"one slot ({one:.3f}) no longer beats two "
                            f"({two:.3f}) at squash '{squash}'")
    for scheme, value in sorted(cost.items()):
        slots = int(scheme[0])
        if not 1.0 <= value <= 1.0 + slots:
            problems.append(f"{scheme} costs {value:.3f} cycles per branch, "
                            f"outside [1, {1 + slots}]")
    return problems


def _fetchback_shape(rows: Dict[str, dict]) -> List[str]:
    fetchback = {words: rows[f"icache/fetchback-{words}"]
                 for words in (1, 2, 3, 4)}
    one, two = fetchback[1]["miss_ratio"], fetchback[2]["miss_ratio"]
    problems = []
    if not two < FETCHBACK_HALVING * one:
        problems.append(f"the 2-word fetch-back miss ratio {two:.4f} is not "
                        f"below {FETCHBACK_HALVING} of the 1-word {one:.4f} "
                        "(it no longer 'almost halves' it)")
    for words in (3, 4):
        cost, base = fetchback[words]["fetch_cost"], fetchback[2]["fetch_cost"]
        if cost < base - 1e-9:
            problems.append(f"the {words}-word fetch cost {cost:.4f} beats "
                            f"the 2-word {base:.4f} (paper: not "
                            "advantageous)")
    return problems


def _service_time_shape(rows: Dict[str, dict]) -> List[str]:
    from repro.core.config import IcacheConfig

    paper = IcacheConfig()
    paper_cost = rows[f"icache/{paper.sets}set-{paper.ways}way-"
                      f"{paper.block_words}w"]["fetch_cost"]
    organizations = [value for job_id, value in rows.items()
                     if job_id.startswith("icache/")
                     and not job_id.startswith("icache/fetchback-")]
    # the miss ratio does not depend on the service time, and the fetch
    # cost is 1 + miss ratio x service time
    best_slow = 1.0 + SLOW_MISS_CYCLES * min(
        value["miss_ratio"] for value in organizations)
    best = min(value["fetch_cost"] for value in organizations)
    problems = []
    if not best_slow > paper_cost:
        problems.append(f"a {SLOW_MISS_CYCLES}-cycle organization fetches in "
                        f"{best_slow:.4f} cycles, recovering the 2-cycle "
                        f"paper organization's {paper_cost:.4f}")
    if not paper_cost < ORGANIZATION_SLACK * best:
        problems.append(f"the paper organization's fetch cost {paper_cost:.4f}"
                        f" is not within {ORGANIZATION_SLACK}x of the best "
                        f"organization's {best:.4f}")
    return problems


def _coproc_shape(rows: Dict[str, dict]) -> List[str]:
    workloads = {job_id: value["schemes"] for job_id, value in rows.items()
                 if job_id.startswith("coproc/")}
    if not workloads:
        raise KeyError("coproc/*")
    problems = []
    for job_id, schemes in sorted(workloads.items()):
        performance = {name: scheme["relative_performance"]
                       for name, scheme in schemes.items()}
        final = performance[FINAL_COPROC_SCHEME]
        noncached = performance[NONCACHED_COPROC_SCHEME]
        if abs(final - 1.0) > 1e-9:
            problems.append(f"{job_id}: the final scheme's relative "
                            f"performance is {final}, not the 1.0 reference")
        if any(value > final + 1e-9 for value in performance.values()):
            problems.append(f"{job_id}: a scheme beats the final one "
                            f"({performance})")
        if any(value <= noncached for name, value in performance.items()
               if name != NONCACHED_COPROC_SCHEME):
            problems.append(f"{job_id}: the non-cached scheme ({noncached:.3f}"
                            f") is no longer the slowest ({performance})")
    return problems


def _ecache_shape(rows: Dict[str, dict]) -> List[str]:
    sweep = sorted((value["size_words"], value["miss_rate"])
                   for job_id, value in rows.items()
                   if job_id.startswith("ecache/"))
    rates = [rate for _, rate in sweep]
    small = rows["ecache/4096w"]["miss_rate"]
    design = rows["ecache/65536w"]["miss_rate"]
    problems = []
    if any(b > a for a, b in zip(rates, rates[1:])):
        problems.append(f"the miss rate is not monotone in size: {sweep}")
    if not design < ECACHE_LOCALITY * small:
        problems.append(f"the 64K-word miss rate {design:.4f} is not below "
                        f"{ECACHE_LOCALITY} of the 4K-word {small:.4f} (the "
                        "design point no longer captures most of the "
                        "locality)")
    return problems


#: the paper's results, each checked on the experiment rows that derive it
PAPER_SHAPES = (
    ("E1 Table 1", _table1_shape),
    ("E4 fetch-back", _fetchback_shape),
    ("E5 service time", _service_time_shape),
    ("E12 coprocessor interface", _coproc_shape),
    ("E15 Ecache size", _ecache_shape),
)


def _gate_paper(rows: Dict[str, dict]) -> List[Failure]:
    """The paper's shapes on the experiment rows (``rows`` maps each job
    id to its value):

    * **E1** -- squashing beats no squashing, optional squashing is best
      at each slot count, one slot beats two, and every cost lies in
      ``[1, 1 + slots]``;
    * **E4** -- the 2-word fetch-back miss ratio is under
      :data:`FETCHBACK_HALVING` of the 1-word one, and no 3- or 4-word
      fetch cost is below the 2-word cost;
    * **E5** -- no organization at :data:`SLOW_MISS_CYCLES` recovers the
      paper organization's 2-cycle fetch cost, and that cost is within
      :data:`ORGANIZATION_SLACK` of the best 2-cycle organization;
    * **E12** -- per FP workload, the final interface is the 1.0
      reference and the best, and the non-cached one the slowest;
    * **E15** -- the miss rate is monotone in size, and the 64K-word
      point is under :data:`ECACHE_LOCALITY` of the 4K-word one.

    A broken shape is a finding; a row the shape needs that is missing
    or has no value is a harness failure.
    """
    failures: List[Failure] = []
    for name, shape in PAPER_SHAPES:
        try:
            problems = shape(rows)
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(Failure(
                HARNESS, f"{name}: experiment rows incomplete (no value for "
                         f"{exc})"))
            continue
        failures += [Failure(FINDING, f"{name}: {problem}")
                     for problem in problems]
    return failures


def _gate_traced(section: Any, rows: Dict[str, dict]) -> List[Failure]:
    """Trace replay: every row of every traced sweep equals, field for
    field and bit for bit, the live experiment row of the same id."""
    per_sweep = section.get("per_sweep") if isinstance(section, dict) else None
    if not isinstance(per_sweep, dict):
        return []                    # named by the section check
    failures: List[Failure] = []
    for sweep, outcome in sorted(per_sweep.items()):
        traced = outcome.get("rows") if isinstance(outcome, dict) else None
        if not isinstance(traced, list) or not traced:
            failures.append(Failure(HARNESS, f"traced: sweep '{sweep}' has "
                                             "no rows"))
            continue
        for row in traced:
            job_id = row.get("id") if isinstance(row, dict) else None
            live = rows.get(job_id)
            if live is None:
                failures.append(Failure(
                    HARNESS, f"traced: sweep '{sweep}' row {job_id!r} has no "
                             "live experiment row with a value"))
                continue
            differs = sorted(key for key, value in live.items()
                             if row.get(key) != value)
            if differs:
                failures.append(Failure(
                    FINDING, f"traced: row '{job_id}' differs from its live "
                             f"row in {differs} (trace replay is not exact)"))
    return failures


def _gate_jit(section: Any) -> List[Failure]:
    """The ``jit`` section, in order of importance:

    * **equivalence** -- every workload's jit run must halt with the
      interpretive run's whole machine signature, every pipeline
      counter included (``equivalent: true``); the fast path is
      cycle-exact or it is wrong, and no speedup excuses a wrong answer;
    * **speedup floors** -- aggregate >= :data:`JIT_SPEEDUP_FLOOR` and
      each workload >= :data:`JIT_WORKLOAD_SPEEDUP_FLOOR` times the
      interpreter;
    * **coverage sanity** -- blocks compiled and cycle coverage are
      non-zero (a jit that never fires "passes" equivalence trivially).
    """
    if not isinstance(section, dict):
        return [Failure(HARNESS, "section 'jit' is missing or not an "
                                 "object (partial or interrupted bench "
                                 "run?)")]
    failures: List[Failure] = []
    if not section.get("equivalent", False):
        failures.append(Failure(
            FINDING, "jit: aggregate 'equivalent' flag is false -- the "
                     "translated fast path diverged from the interpreter"))
    speedup = section.get("speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < JIT_SPEEDUP_FLOOR:
        failures.append(Failure(
            FINDING, f"jit: aggregate speedup {speedup!r} is below the "
                     f"{JIT_SPEEDUP_FLOOR}x floor"))
    workloads = section.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        failures.append(Failure(HARNESS, "jit: section has no per-workload "
                                         "rows"))
        return failures
    for name, row in sorted(workloads.items()):
        if not isinstance(row, dict):
            failures.append(Failure(HARNESS, f"jit: workload '{name}' row "
                                             "is not an object"))
            continue
        if not row.get("equivalent", False):
            failures.append(Failure(
                FINDING, f"jit: workload '{name}' is not cycle-exact (jit "
                         "vs interpreter machine signatures differ)"))
        row_speedup = row.get("speedup", 0.0)
        if row_speedup < JIT_WORKLOAD_SPEEDUP_FLOOR:
            failures.append(Failure(
                FINDING, f"jit: workload '{name}' speedup {row_speedup} "
                         f"is below the {JIT_WORKLOAD_SPEEDUP_FLOOR}x "
                         "floor"))
        if not row.get("blocks_compiled"):
            failures.append(Failure(
                FINDING, f"jit: workload '{name}' compiled no blocks (the "
                         "fast path never engaged)"))
        if not row.get("cycle_coverage"):
            failures.append(Failure(
                FINDING, f"jit: workload '{name}' reports zero cycle "
                         "coverage"))
    return failures


def _gate_metrics(section: Any) -> List[Failure]:
    """The ``metrics`` section (:func:`build_metrics_summary`) and its
    identities:

    * **CPI identity** -- each workload's counter-derived CPI
      (``pipeline.cycles / pipeline.instructions.retired``) must equal
      the analysis-module CPI recorded alongside it;
    * **accounting identities** -- per workload and on the suite totals,
      the counters must satisfy the invariants of
      :func:`repro.telemetry.metrics.check_counter_consistency` (stall
      cycles bounded by total cycles, retired+squashed bounded by
      fetched, late-miss retries equal to read+ifetch misses, ...);
    * **derived gauges** -- ``derived`` must match what the summed
      counters derive to (no hand-edited gauges).
    """
    from repro.telemetry.metrics import (check_counter_consistency,
                                         derived_from_counters)

    if not isinstance(section, dict):
        return [Failure(HARNESS, "section 'metrics' is missing or not an "
                                 "object (partial or interrupted bench "
                                 "run?)")]
    failures = [Failure(HARNESS, f"metrics: key '{key}' is missing or not "
                                 "an object")
                for key in METRICS_KEYS
                if not isinstance(section.get(key), dict)]
    if failures:
        return failures
    if not section["per_workload"]:
        failures.append(Failure(HARNESS, "metrics: 'per_workload' is empty "
                                         "(the workload-cpi sweep produced "
                                         "no snapshots)"))
    analysis = section["analysis"]
    for name, snapshot in sorted(section["per_workload"].items()):
        if not isinstance(snapshot, dict):
            failures.append(Failure(HARNESS, f"metrics: workload '{name}' "
                                             "snapshot is not an object"))
            continue
        counters = {key: value for key, value in snapshot.items()
                    if isinstance(value, int)}
        row = analysis.get(name)
        if not isinstance(row, dict) or "cpi" not in row:
            failures.append(Failure(HARNESS, f"metrics: workload '{name}' "
                                             "has no analysis CPI to check "
                                             "against"))
            analysis_cpi = None
        else:
            analysis_cpi = row["cpi"]
        for issue in check_counter_consistency(counters, analysis_cpi):
            failures.append(Failure(
                FINDING, f"metrics: workload '{name}' failed {issue.name}: "
                         f"{issue.message}"))
    totals = section["totals"]
    for issue in check_counter_consistency(totals):
        failures.append(Failure(
            FINDING, f"metrics: suite totals failed {issue.name}: "
                     f"{issue.message}"))
    for name, expected in derived_from_counters(totals).items():
        recorded = section["derived"].get(name)
        if recorded is None or abs(recorded - expected) > 1e-9:
            failures.append(Failure(
                FINDING, f"metrics: derived gauge '{name}' is {recorded!r}, "
                         f"but the summed counters derive to {expected!r}"))
    return failures


def _gate_multi(multi: Any) -> List[Failure]:
    """The ``multi`` section (:func:`build_multi_section`):

    * **job failures** -- every scaling point must have completed;
    * **self-check** -- every row's ``result_ok`` (the workload's
      console output against the independently computed expectation);
    * **node-count invariance** -- the parallel workloads report the
      same result at every node count, so all rows of one workload must
      be bit-equal to the single-node reference;
    * **speedup identity** -- each curve's baseline (smallest node
      count) must have speedup exactly 1.0, and an ``N=1`` row can only
      be that baseline;
    * **contention monotonicity** -- at fixed bus latency, bus
      contention cycles must not decrease as nodes are added;
    * **measured scaling** -- when a psieve curve (bus latency 0,
      invalidation on) reaches 4 nodes, its speedup must clear
      :data:`MULTI_PSIEVE_N4_SPEEDUP`.
    """
    if not isinstance(multi, dict):
        return [Failure(HARNESS, "section 'multi' is missing or not an "
                                 "object (partial or interrupted bench "
                                 "run?)")]
    failures = [Failure(HARNESS, f"section 'multi' is missing key '{key}'")
                for key in MULTI_KEYS if key not in multi]
    if failures:
        return failures
    for job_id in multi["failures"]:
        failures.append(Failure(HARNESS, f"multi: scaling point '{job_id}' "
                                         "failed in the harness"))
    rows = multi["rows"]
    if not isinstance(rows, dict) or not rows:
        failures.append(Failure(HARNESS, "multi: section has no rows "
                                         "(empty sweep?)"))
        return failures
    by_workload: Dict[str, List[tuple]] = {}
    for job_id, row in sorted(rows.items()):
        if not isinstance(row, dict):
            failures.append(Failure(HARNESS, f"multi: row '{job_id}' is not "
                                             "an object"))
            continue
        missing = [key for key in MULTI_ROW_KEYS if key not in row]
        if missing:
            failures.append(Failure(HARNESS, f"multi: row '{job_id}' is "
                                             f"missing {missing}"))
            continue
        if not row["result_ok"]:
            failures.append(Failure(
                FINDING, f"multi: row '{job_id}' failed its self-check "
                         f"(result {row['result']!r})"))
        by_workload.setdefault(row["workload"], []).append((job_id, row))
    for workload, entries in sorted(by_workload.items()):
        entries.sort(key=lambda pair: pair[1]["nodes"])
        reference_id, reference = entries[0]
        for job_id, row in entries[1:]:
            if row["result"] != reference["result"]:
                failures.append(Failure(
                    FINDING, f"multi: row '{job_id}' result "
                             f"{row['result']!r} differs from the "
                             f"'{reference_id}' reference "
                             f"{reference['result']!r} (results must be "
                             "node-count invariant)"))
    for label, curve in sorted(multi["curves"].items()):
        if not isinstance(curve, dict):
            failures.append(Failure(HARNESS, f"multi: curve '{label}' is "
                                             "not an object"))
            continue
        nodes = curve.get("nodes", [])
        speedup = curve.get("speedup", [])
        contention = curve.get("contention_cycles", [])
        if not nodes or not (len(nodes) == len(speedup)
                             == len(contention)):
            failures.append(Failure(HARNESS, f"multi: curve '{label}' "
                                             "arrays are empty or "
                                             "misaligned"))
            continue
        if list(nodes) != sorted(set(nodes)):
            failures.append(Failure(
                HARNESS, f"multi: curve '{label}' node counts {nodes} are "
                         "not strictly increasing"))
        if speedup[0] != 1.0:
            failures.append(Failure(
                FINDING, f"multi: curve '{label}' baseline speedup is "
                         f"{speedup[0]!r}, must be exactly 1.0"))
        if 1 in nodes and nodes.index(1) != 0:
            failures.append(Failure(
                FINDING, f"multi: curve '{label}' has an N=1 row that is "
                         "not the baseline"))
        if any(b < a for a, b in zip(contention, contention[1:])):
            failures.append(Failure(
                FINDING, f"multi: curve '{label}' contention cycles "
                         f"{contention} decrease with node count"))
        if (curve.get("workload") == "psieve"
                and curve.get("bus_latency") == 0
                and curve.get("invalidation") and 4 in nodes):
            measured = speedup[nodes.index(4)]
            if measured < MULTI_PSIEVE_N4_SPEEDUP:
                failures.append(Failure(
                    FINDING, f"multi: curve '{label}' speedup at 4 nodes "
                             f"is {measured}, below the "
                             f"{MULTI_PSIEVE_N4_SPEEDUP} floor (bus or "
                             "barrier regression)"))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a bench payload."""
    lines: List[str] = []
    jit = payload["jit"]
    lines.append(f"jit speedup       {jit['speedup']}x vs interpreter"
                 + ("" if jit["equivalent"] else "  [NOT CYCLE-EXACT]"))
    for name, row in sorted(jit["workloads"].items()):
        lines.append(
            f"  {name:<12} {row['speedup']}x "
            f"({row['jit_cycles_per_sec']:,} vs "
            f"{row['nojit_cycles_per_sec']:,} cyc/s, "
            f"{row['cycle_coverage']:.1%} coverage, "
            f"{row['links']:,} links, "
            f"compile {row['compile_s']}s)")
        for shape, counts in row["shapes"].items():
            if counts["compiled"]:
                lines.append(
                    f"    {shape:<14} {counts['compiled']} blocks, "
                    f"{counts['entries']:,} entries, "
                    f"{counts['cycles']:,} cycles")
    metrics = payload["metrics"]
    lines.append(f"metrics           {len(metrics['workloads'])} "
                 f"workloads aggregated, suite CPI "
                 f"{metrics['derived'].get('pipeline.cpi', 0.0):.3f}")
    sweep = payload["sweep"]
    lines.append(f"sweep             {sweep['ok']}/{sweep['jobs']} jobs ok")
    lines.append(f"  serial          {sweep['serial_wall_s']}s")
    lines.append(f"  parallel        {sweep['parallel_wall_s']}s "
                 f"({payload['host']['workers']} workers)")
    lines.append(f"  speedup         {sweep['speedup']}x")
    lines.append("traced (capture-once/replay-many)")
    for name, row in sorted(payload["traced"]["per_sweep"].items()):
        lines.append(f"  {name:<22} {len(row['rows']):>3} rows, "
                     f"{row['cache_hits']} store hits, "
                     f"{row['cache_misses']} misses")
    multi = payload["multi"]
    lines.append(f"multi scaling     {multi['ok']}/{multi['jobs']} points ok")
    for label, curve in sorted(multi["curves"].items()):
        pairs = ", ".join(f"n{n}={s}x"
                          for n, s in zip(curve["nodes"], curve["speedup"]))
        lines.append(f"  {label:<22} {pairs}")
    for job_id in multi["failures"]:
        lines.append(f"  FAILED {job_id}")
    return "\n".join(lines)

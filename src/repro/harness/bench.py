"""``repro bench``: the experiment results, and the timings a gate reads.

``collect()`` runs every section on every call and writes
``BENCH_pipeline.json`` at the repo root:

* ``experiments`` -- each job of the experiment grid
  (:func:`repro.harness.experiments.default_jobs`) and its verdict;
* ``sweep`` -- the grid's wall time through the parallel
  :class:`~repro.harness.runner.Runner` and serially, which
  ``check_results --bench-file`` holds to its sweep speedup floor;
* ``jit`` -- the translated fast path against the interpreter: whole
  machine equivalence, coverage and the speedups ``check_results
  --jit`` holds to its floors;
* ``traced`` -- the capture-once/replay-many sweeps: rows and trace
  store hits;
* ``multi`` -- the multiprocessor scaling grid (:func:`build_multi_section`);
* ``metrics`` -- the suite totals of the workload-cpi sweep's telemetry
  snapshots, which :func:`build_metrics_summary` aggregates in full into
  ``METRICS_summary.json`` -- the file ``check_results --metrics-file``
  audits for counter/analysis CPI consistency.

No other wall time is recorded: perfbench (``BENCHMARK.json``) measures
throughput under its own scaled protocol.
"""

from __future__ import annotations

import datetime
import os
import pathlib
import platform
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.campaign import REPO_ROOT, write_json_atomic
from repro.harness.runner import JobResult, Runner

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_METRICS_OUTPUT = REPO_ROOT / "METRICS_summary.json"

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
    block compiler spent, ``entry_hit_rate`` is taken entries over
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
    return {
        r.job_id: {
            "status": r.status,
            "sweep": r.sweep,
            "attempts": r.attempts,
        }
        for r in results
    }


def build_metrics_summary(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Aggregate per-job telemetry snapshots into one summary payload.

    Pure and deterministic: no timestamps, counters summed across jobs,
    derived gauges recomputed from the summed counters (never averaged)
    -- so a parallel sweep aggregates **byte-identically** to a serial
    one (pinned by ``tests/test_telemetry.py``).  The payload is what
    ``METRICS_summary.json`` holds and what ``check_results.py
    --metrics-file`` audits: each workload's full snapshot, the analysis
    CPI reported alongside it (the identity under test), and the suite
    totals.
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


def _traced_section(quick: bool) -> Dict[str, Any]:
    """Run the capture-once/replay-many sweeps: rows and store hits,
    from one store in a fresh temporary directory, so the counts depend
    only on the source, never on what ``.trace_cache/`` holds."""
    from repro.harness.experiments import TRACED_SWEEPS
    from repro.traces.store import TraceStore

    per_sweep: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="bench-traces-") as root:
        store = TraceStore(root=pathlib.Path(root))
        for name, evaluate in TRACED_SWEEPS.items():
            outcome = evaluate(quick=quick, store=store)
            per_sweep[name] = {
                "rows": len(outcome["rows"]),
                "cache_hits": outcome["cache_hits"],
                "cache_misses": outcome["cache_misses"],
            }
    return {"per_sweep": per_sweep}


def _timed_run(runner: Runner, jobs, parallel: bool):
    started = time.perf_counter()
    results = runner.run(jobs, parallel=parallel)
    return results, time.perf_counter() - started


def collect(quick: bool = False,
            workers: Optional[int] = None,
            timeout: Optional[float] = None,
            output: Optional[pathlib.Path] = None,
            metrics_output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run every section and persist ``BENCH_pipeline.json``.

    ``quick`` selects the reduced experiment grid, the shorter traces
    and the multi node counts (1, 2, 4); the full run sweeps 1..10
    nodes.  The workload-cpi sweep's telemetry snapshots go to
    ``METRICS_summary.json`` (see :func:`build_metrics_summary`) and
    their suite totals into the payload's ``metrics`` section.
    """
    from repro.harness.experiments import default_jobs, multi_scaling_jobs

    runner = Runner(max_workers=workers)
    jobs = default_jobs(quick=quick, timeout=timeout)
    jit = measure_jit_throughput()
    # Parallel first: forked workers must not inherit caches the serial
    # pass warmed in this process, or the speedup figure flatters itself.
    results, parallel_wall = _timed_run(runner, jobs, parallel=True)
    _, serial_wall = _timed_run(runner, jobs, parallel=False)
    traced = _traced_section(quick)
    multi = build_multi_section(runner.run(
        multi_scaling_jobs(quick=quick, timeout=timeout), parallel=True))

    payload: Dict[str, Any] = {
        "schema": 1,
        "generated": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": quick,
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
        },
        "experiments": _results_section(results),
        "jit": jit,
        "traced": traced,
        "multi": multi,
    }
    metrics_summary = build_metrics_summary(results)
    if metrics_summary["per_workload"]:
        payload["metrics"] = {
            "workloads": metrics_summary["workloads"],
            "totals": metrics_summary["totals"],
            "derived": metrics_summary["derived"],
        }
        metrics_path = (pathlib.Path(metrics_output) if metrics_output
                        else DEFAULT_METRICS_OUTPUT)
        write_json_atomic(metrics_path, metrics_summary)
    path = pathlib.Path(output) if output else DEFAULT_OUTPUT
    write_json_atomic(path, payload)
    return payload


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
    metrics = payload.get("metrics")
    if metrics:
        lines.append(
            f"metrics           {len(metrics['workloads'])} "
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
        lines.append(f"  {name:<22} {row['rows']:>3} rows, "
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

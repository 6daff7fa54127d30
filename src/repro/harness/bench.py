"""Benchmark telemetry: core throughput and sweep wall-clock.

``collect()`` (the engine behind ``repro bench``) measures

* **core throughput** -- simulated ``cycles/sec`` of the cycle-accurate
  pipeline on compiled workloads, compile time excluded;
* **experiment sweep wall-clock** -- the full grid from
  :mod:`repro.harness.experiments`, run serially and through the parallel
  :class:`~repro.harness.runner.Runner`, with per-job durations;

and writes ``BENCH_pipeline.json`` at the repo root so successive PRs
leave a machine-readable perf trajectory.  ``merge_section`` lets other
producers (the pytest benchmark suite) fold their timings into the same
file without clobbering it.

The workload-cpi sweep's per-job telemetry snapshots (see
:mod:`repro.telemetry`) are aggregated by :func:`build_metrics_summary`
into ``METRICS_summary.json`` -- the file ``tools/check_results.py
--metrics-file`` audits for counter/analysis CPI consistency.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.campaign import REPO_ROOT, write_json_atomic
from repro.harness.runner import JobResult, Runner

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_METRICS_OUTPUT = REPO_ROOT / "METRICS_summary.json"

#: workloads used for the cycles/sec probe: one loop-heavy integer
#: program and one branchy one, both in the Pascal suite
THROUGHPUT_WORKLOADS = ("sieve", "bubble")


def measure_core_throughput(names: Sequence[str] = THROUGHPUT_WORKLOADS,
                            repeats: int = 5) -> Dict[str, Any]:
    """Pure-simulation cycles/sec (programs compiled once, outside the
    timed region)."""
    from repro.core import Machine, MachineConfig
    from repro.workloads import cached_program

    per_workload = {}
    total_cycles = 0
    total_wall = 0.0
    for name in names:
        program = cached_program(name)
        started = time.perf_counter()
        cycles = 0
        for _ in range(repeats):
            machine = Machine(MachineConfig())
            machine.load_program(program)
            cycles += machine.run().cycles
        wall = time.perf_counter() - started
        per_workload[name] = {
            "cycles": cycles,
            "wall_s": round(wall, 4),
            "cycles_per_sec": round(cycles / wall) if wall else 0,
        }
        total_cycles += cycles
        total_wall += wall
    return {
        "workloads": per_workload,
        "repeats": repeats,
        "cycles_per_sec": (round(total_cycles / total_wall)
                           if total_wall else 0),
    }


def measure_jit_throughput(names: Sequence[str] = THROUGHPUT_WORKLOADS,
                           repeats: int = 3) -> Dict[str, Any]:
    """Translated-fast-path speedup per workload: jit vs interpreter.

    Each workload runs ``repeats`` times per configuration (programs
    compiled once, outside the timed region).  Alongside the wall-clock
    ratio, the section records what the timing means: ``equivalent``
    asserts the jit run halts in exactly the interpretive run's state --
    the checkpoint node state (latches, PC chain, FSMs, caches and every
    pipeline counter) and both memory spaces -- so the fast path is
    exact or it is broken; ``compile_s`` is the wall time the block
    compiler spent, ``entry_hit_rate`` is taken entries over dispatch
    hits -- a low rate means guards keep bouncing blocks back to the
    interpreter -- and ``links`` counts the entries made straight from
    a linked exit.  ``shapes`` splits blocks compiled, entries and
    translated cycles by block shape
    (:data:`repro.core.translate.SHAPES`).
    """
    import dataclasses as _dc

    from repro.checkpoint.state import _node_state
    from repro.core import Machine, MachineConfig
    from repro.workloads import cached_program

    def halt_state(machine):
        space = machine.pipeline.memory.space
        return (_node_state(machine), space(True)._words,
                space(False)._words)

    per_workload: Dict[str, Any] = {}
    total_nojit = 0.0
    total_jit = 0.0
    all_equivalent = True
    for name in names:
        program = cached_program(name)
        row: Dict[str, Any] = {}
        baseline = None
        for jit in (False, True):
            config = _dc.replace(MachineConfig(), jit=jit)
            started = time.perf_counter()
            cycles = 0
            machine = None
            for _ in range(repeats):
                machine = Machine(config)
                machine.load_program(program)
                cycles += machine.run().cycles
            wall = time.perf_counter() - started
            key = "jit" if jit else "nojit"
            row[f"{key}_wall_s"] = round(wall, 4)
            row[f"{key}_cycles_per_sec"] = round(cycles / wall) if wall else 0
            if not jit:
                baseline = halt_state(machine)
                total_nojit += wall
            else:
                row["equivalent"] = halt_state(machine) == baseline
                all_equivalent &= row["equivalent"]
                total_jit += wall
                translator = machine.pipeline._translator
                stats = translator.stats
                hits = stats.entries + stats.entry_rejected
                row["compile_s"] = round(translator.compile_s, 4)
                row["blocks_compiled"] = stats.compiled
                row["entry_hit_rate"] = (round(stats.entries / hits, 4)
                                         if hits else 0.0)
                row["links"] = stats.links
                run_cycles = machine.pipeline.stats.cycles
                row["cycle_coverage"] = (
                    round(stats.cycles / run_cycles, 4) if run_cycles
                    else 0.0)
                row["shapes"] = {
                    shape: dict(zip(("compiled", "entries", "cycles"),
                                    counts))
                    for shape, counts in stats.shapes.items()}
        row["speedup"] = (round(row["nojit_wall_s"] / row["jit_wall_s"], 2)
                          if row["jit_wall_s"] else 0.0)
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
            "duration_s": round(r.duration, 4),
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


def _traced_section(quick: bool, reuse: bool,
                    serial_results: Sequence[JobResult]) -> Dict[str, Any]:
    """Run the capture-once/replay-many sweeps and compare them with the
    live per-job serial durations (when a serial pass ran)."""
    from repro.harness.experiments import TRACED_SWEEPS

    live_by_sweep: Dict[str, float] = {}
    for result in serial_results:
        live_by_sweep[result.sweep] = (live_by_sweep.get(result.sweep, 0.0)
                                       + result.duration)

    per_sweep: Dict[str, Any] = {}
    total_wall = 0.0
    total_live = 0.0
    for name, evaluate in TRACED_SWEEPS.items():
        started = time.perf_counter()
        outcome = evaluate(quick=quick, reuse=reuse)
        wall = time.perf_counter() - started
        total_wall += wall
        entry: Dict[str, Any] = {
            "wall_s": round(wall, 3),
            "capture_s": round(outcome["capture_s"], 3),
            "replay_s": round(outcome["replay_s"], 3),
            "rows": len(outcome["rows"]),
            "cache_hits": outcome["cache_hits"],
            "cache_misses": outcome["cache_misses"],
        }
        live = live_by_sweep.get(name)
        if live is not None:
            total_live += live
            entry["live_serial_s"] = round(live, 3)
            entry["speedup_vs_serial"] = (round(live / wall, 1) if wall
                                          else None)
        per_sweep[name] = entry
    section: Dict[str, Any] = {
        "reuse": reuse,
        "wall_s": round(total_wall, 3),
        "per_sweep": per_sweep,
    }
    if total_live:
        section["live_serial_s"] = round(total_live, 3)
        section["speedup_vs_serial"] = (round(total_live / total_wall, 1)
                                        if total_wall else None)
    return section


def collect(quick: bool = False,
            workers: Optional[int] = None,
            parallel: bool = True,
            serial_baseline: bool = True,
            timeout: Optional[float] = None,
            output: Optional[pathlib.Path] = None,
            traced: bool = True,
            trace_reuse: bool = True,
            metrics_output: Optional[pathlib.Path] = None,
            multi: bool = False,
            multi_nodes: Optional[Sequence[int]] = None,
            multi_only: bool = False) -> Dict[str, Any]:
    """Run the telemetry suite and persist ``BENCH_pipeline.json``.

    Also aggregates the per-job telemetry snapshots of the workload-cpi
    sweep into ``METRICS_summary.json`` (see :func:`build_metrics_summary`)
    and embeds the suite totals in the bench payload's ``metrics``
    section.

    ``multi=True`` additionally fans the multiprocessor scaling grid
    (:func:`repro.harness.experiments.multi_scaling_jobs`) across the
    Runner and writes the aggregate as the payload's ``multi`` section;
    ``multi_nodes`` restricts the node counts (e.g. ``(1, 2, 4)`` in CI
    smoke jobs) and ``multi_only`` skips the uniprocessor sweeps and
    trace replays so a CI lane can produce just the multi section fast.
    """
    from repro.harness.experiments import default_jobs, multi_scaling_jobs

    if multi_only:
        multi = True
        serial_baseline = False
        traced = False
    runner = Runner(max_workers=workers)
    jobs = [] if multi_only else default_jobs(quick=quick, timeout=timeout)

    core = measure_core_throughput(repeats=2 if quick else 5)
    jit = (None if multi_only
           else measure_jit_throughput(repeats=1 if quick else 3))

    if not serial_baseline and not parallel and not traced:
        serial_baseline = True          # something must produce results
    results: List[JobResult] = []
    serial_results: List[JobResult] = []
    # Parallel first: forked workers must not inherit caches the serial
    # pass warmed in this process, or the speedup figure flatters itself.
    parallel_wall: Optional[float] = None
    if parallel and jobs:
        started = time.perf_counter()
        results = runner.run(jobs, parallel=True)
        parallel_wall = time.perf_counter() - started
    serial_wall: Optional[float] = None
    if serial_baseline:
        started = time.perf_counter()
        serial_results = runner.run(jobs, parallel=False)
        serial_wall = time.perf_counter() - started
        if not parallel:
            results = serial_results

    traced_section: Optional[Dict[str, Any]] = None
    if traced:
        traced_section = _traced_section(quick, trace_reuse, serial_results)

    multi_section: Optional[Dict[str, Any]] = None
    multi_wall: Optional[float] = None
    if multi:
        multi_jobs = multi_scaling_jobs(quick=quick, nodes=multi_nodes,
                                        timeout=timeout)
        started = time.perf_counter()
        multi_results = runner.run(multi_jobs, parallel=parallel)
        multi_wall = time.perf_counter() - started
        # wall-clock stays OUT of the section itself: the section must be
        # byte-identical between serial and parallel runs (pinned by
        # tests/test_multi.py); the timing goes under "sweep" instead
        multi_section = build_multi_section(multi_results)

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
        "core": core,
        "sweep": {
            "jobs": len(jobs),
            "ok": sum(1 for r in results if r.ok),
            "serial_wall_s": round(serial_wall, 3) if serial_wall else None,
            "parallel_wall_s": (round(parallel_wall, 3)
                                if parallel_wall else None),
            "speedup": (round(serial_wall / parallel_wall, 2)
                        if serial_wall and parallel_wall else None),
            "sweep_wall_s_traced": (traced_section["wall_s"]
                                    if traced_section else None),
            "multi_wall_s": (round(multi_wall, 3)
                             if multi_wall is not None else None),
        },
        "experiments": _results_section(results),
    }
    if jit is not None:
        payload["jit"] = jit
    if traced_section is not None:
        payload["traced"] = traced_section
    if multi_section is not None:
        payload["multi"] = multi_section
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


def merge_section(section: str, data: Any,
                  path: Optional[pathlib.Path] = None) -> None:
    """Read-modify-write one top-level section of the telemetry file.

    Creates a minimal file when none exists, so producers (e.g. the
    pytest benchmark timing hook) can run in any order.
    """
    path = pathlib.Path(path) if path else DEFAULT_OUTPUT
    payload: Dict[str, Any] = {"schema": 1}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    payload[section] = data
    write_json_atomic(path, payload)


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a telemetry payload."""
    lines: List[str] = []
    core = payload.get("core", {})
    lines.append(f"core throughput   {core.get('cycles_per_sec', 0):,} "
                 "simulated cycles/sec")
    for name, row in sorted(core.get("workloads", {}).items()):
        lines.append(f"  {name:<12} {row['cycles_per_sec']:,} cyc/s "
                     f"({row['cycles']} cycles / {row['wall_s']}s)")
    jit = payload.get("jit")
    if jit:
        lines.append(f"jit speedup       {jit.get('speedup', 0.0)}x vs "
                     "interpreter"
                     + ("" if jit.get("equivalent", True)
                        else "  [NOT CYCLE-EXACT]"))
        for name, row in sorted(jit.get("workloads", {}).items()):
            lines.append(
                f"  {name:<12} {row.get('speedup', 0.0)}x "
                f"({row.get('jit_cycles_per_sec', 0):,} vs "
                f"{row.get('nojit_cycles_per_sec', 0):,} cyc/s, "
                f"{row.get('cycle_coverage', 0.0):.1%} coverage, "
                f"{row.get('links', 0):,} links, "
                f"compile {row.get('compile_s', 0.0)}s)")
            for shape, counts in row.get("shapes", {}).items():
                if counts["compiled"]:
                    lines.append(
                        f"    {shape:<14} {counts['compiled']} blocks, "
                        f"{counts['entries']:,} entries, "
                        f"{counts['cycles']:,} cycles")
    metrics = payload.get("metrics")
    if metrics:
        derived = metrics.get("derived", {})
        lines.append(
            f"metrics           {len(metrics.get('workloads', []))} "
            f"workloads aggregated, suite CPI "
            f"{derived.get('pipeline.cpi', 0.0):.3f} "
            "(METRICS_summary.json)")
    sweep = payload.get("sweep", {})
    if sweep.get("serial_wall_s") or sweep.get("parallel_wall_s"):
        lines.append(f"sweep             {sweep.get('ok')}/"
                     f"{sweep.get('jobs')} jobs ok")
    if sweep.get("serial_wall_s") is not None:
        lines.append(f"  serial          {sweep['serial_wall_s']}s")
    if sweep.get("parallel_wall_s") is not None:
        lines.append(f"  parallel        {sweep['parallel_wall_s']}s "
                     f"({payload['host']['workers']} workers)")
    if sweep.get("speedup") is not None:
        lines.append(f"  speedup         {sweep['speedup']}x")
    traced = payload.get("traced")
    if traced:
        lines.append(f"traced (capture-once/replay-many)  "
                     f"{traced['wall_s']}s total"
                     + (f", {traced['speedup_vs_serial']}x vs live serial"
                        if traced.get("speedup_vs_serial") is not None
                        else ""))
        header = (f"  {'sweep':<22} {'live s':>8} {'capture s':>10} "
                  f"{'replay s':>9} {'speedup':>8}")
        lines.append(header)
        for name, row in sorted(traced.get("per_sweep", {}).items()):
            live = row.get("live_serial_s")
            speedup = row.get("speedup_vs_serial")
            lines.append(
                f"  {name:<22} "
                f"{live if live is not None else '-':>8} "
                f"{row['capture_s']:>10} {row['replay_s']:>9} "
                f"{str(speedup) + 'x' if speedup is not None else '-':>8}")
    multi = payload.get("multi")
    if multi:
        wall = payload.get("sweep", {}).get("multi_wall_s")
        lines.append(f"multi scaling     {multi.get('ok')}/"
                     f"{multi.get('jobs')} points ok"
                     + (f" ({wall}s)" if wall is not None else ""))
        for label, curve in sorted(multi.get("curves", {}).items()):
            pairs = ", ".join(
                f"n{n}={s}x" for n, s in zip(curve.get("nodes", []),
                                             curve.get("speedup", [])))
            lines.append(f"  {label:<22} {pairs}")
        for job_id in multi.get("failures", []):
            lines.append(f"  FAILED {job_id}")
    return "\n".join(lines)

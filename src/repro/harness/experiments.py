"""Experiment point functions and the sweep grids built from them.

Every function here is a module-level, picklable entry point that
rebuilds its own inputs (trace, programs) deterministically and returns a
plain JSON-able dict -- the contract the :class:`~repro.harness.runner.
Runner` needs to fan points across processes and merge results
reproducibly.

The grids mirror the paper's studies: the six Table 1 branch schemes
(E1), every 512-word Icache organization plus the fetch-back study (E4/
E5), the Ecache size sweep (E15), the coprocessor interface schemes
(E12), and the per-workload CPI measurements behind E6/E7.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.harness.runner import Job

#: trace length used by the cache sweeps (matches benchmarks/bench_icache)
TRACE_LENGTH = 400_000


# ------------------------------------------------------------ point functions
def branch_scheme_point(slots: int, squash: str,
                        squash_if_go: bool = False,
                        names: Optional[Sequence[str]] = None) -> dict:
    """One row of Table 1: average cycles per branch for one scheme."""
    from repro.analysis.branch_schemes import evaluate_scheme
    from repro.reorg.delay_slots import BranchScheme
    from repro.workloads import PASCAL_SUITE

    scheme = BranchScheme(slots, squash, squash_if_go=squash_if_go)
    evaluation = evaluate_scheme(scheme, list(names or PASCAL_SUITE))
    return {
        "slots": slots,
        "squash": squash,
        "cycles_per_branch": evaluation.cycles_per_branch,
        "executions": evaluation.executions,
        "cycles": evaluation.cycles,
    }


def icache_organization_point(sets: int, ways: int, block_words: int,
                              fetchback: int = 2, miss_cycles: int = 2,
                              trace_length: int = TRACE_LENGTH) -> dict:
    """One Icache organization over the calibrated synthetic trace."""
    from repro.core.config import IcacheConfig
    from repro.icache.explorer import evaluate
    from repro.traces.synthetic import paper_regime_program

    trace = list(paper_regime_program().instruction_trace(trace_length))
    config = IcacheConfig(sets=sets, ways=ways, block_words=block_words,
                          fetchback=fetchback, miss_cycles=miss_cycles)
    result = evaluate(config, trace)
    return {
        "sets": sets,
        "ways": ways,
        "block_words": block_words,
        "fetchback": fetchback,
        "miss_cycles": miss_cycles,
        "miss_ratio": result.miss_ratio,
        "fetch_cost": result.fetch_cost,
    }


def ecache_size_point(size_words: int, data_words: int = 400_000,
                      references: int = 400_000,
                      seed: int = 0xBADCAFE) -> dict:
    """One Ecache size over the large synthetic data trace (E15)."""
    from repro.core.config import EcacheConfig
    from repro.ecache.ecache import Ecache
    from repro.traces.synthetic import SyntheticProgram

    program = SyntheticProgram(data_words=data_words, seed=seed)
    cache = Ecache(EcacheConfig(size_words=size_words))
    stall = 0
    count = 0
    for address, is_store in program.data_trace(references):
        if is_store:
            stall += cache.write(address, True)
        else:
            stall += cache.read(address, True)
        count += 1
    return {
        "size_words": size_words,
        "miss_rate": cache.stats.miss_rate,
        "stall_per_ref": stall / count if count else 0.0,
    }


def coproc_scheme_point(name: str) -> dict:
    """Interface-scheme relative performance for one FP workload (E12)."""
    from repro.analysis.common import run_measured
    from repro.coproc.schemes import evaluate_schemes, mix_from_machine

    mix = mix_from_machine(name, run_measured(name))
    outcomes = {}
    for outcome in evaluate_schemes(mix):
        outcomes[outcome.scheme.name] = {
            "cycles": outcome.cycles,
            "relative_performance": outcome.relative_performance,
        }
    return {
        "workload": name,
        "fp_fraction": mix.fp_fraction,
        "schemes": outcomes,
    }


def workload_cpi_point(name: str) -> dict:
    """CPI/no-op/throughput measurement for one workload (E6/E7).

    The row carries the full telemetry snapshot of the run (catalogued
    counter names, see :mod:`repro.telemetry.catalog`) so the harness
    can aggregate ``METRICS_summary.json`` and ``check_results.py
    --metrics-file`` can audit counter-derived CPI against the analysis
    CPI reported here.
    """
    from repro.analysis.cpi import measure_with_metrics, scaled_memory_config

    breakdown, metrics = measure_with_metrics(name, scaled_memory_config())
    return {
        "workload": name,
        "cycles": breakdown.cycles,
        "instructions": breakdown.instructions,
        "cpi": breakdown.cpi,
        "noop_fraction": breakdown.noop_fraction,
        "sustained_mips": breakdown.sustained_mips,
        "metrics": metrics.snapshot(),
    }


def multi_scaling_point(workload: str, nodes: int, bus_latency: int = 0,
                        invalidation: bool = True,
                        size: Optional[int] = None,
                        max_cycles: int = 50_000_000) -> dict:
    """One multiprocessor scaling point: ``workload`` on ``nodes`` nodes.

    Runs one parallel SPL workload on a
    :class:`~repro.multi.system.MultiMachine` with the given bus-latency
    and invalidation knobs, self-checks the console against the
    independently computed expectation, and reports global cycles plus
    the bus counters.  Deliberately carries no wall-clock fields so a
    serial sweep and a Runner-parallel sweep produce byte-identical
    ``multi`` sections.
    """
    from repro.core.config import MachineConfig
    from repro.multi import MultiMachine
    from repro.workloads.parallel import expected_console, parallel_program

    program = parallel_program(workload, nodes, size=size)
    system = MultiMachine(nodes, MachineConfig(), bus_latency=bus_latency,
                          invalidation=invalidation)
    system.load_program(program)
    system.run(max_cycles)
    if not system.all_halted:
        raise RuntimeError(
            f"{workload} on {nodes} nodes did not halt in {max_cycles} "
            "global cycles")
    expected = expected_console(workload, nodes, size=size)
    result = list(system.console.values)
    snapshot = system.metrics().snapshot()
    return {
        "workload": workload,
        "nodes": nodes,
        "bus_latency": bus_latency,
        "invalidation": invalidation,
        "size": size,
        "cycles": system.cycles,
        "node_cycles": [m.stats.cycles for m in system.machines],
        "instructions": snapshot["pipeline.instructions.retired"],
        "bus": {
            "acquisitions": system.bus.acquisitions,
            "contention_cycles": system.bus.contention_cycles,
            "invalidations": system.bus.invalidations,
        },
        "result": result,
        "expected": list(expected),
        "result_ok": result == list(expected),
    }


#: node grids for the multi-scaling sweep (full: the paper's 6-10 range
#: bracketed from 1; quick: the CI smoke grid)
MULTI_FULL_NODES = tuple(range(1, 11))
MULTI_QUICK_NODES = (1, 2, 4)

#: the non-zero bus-latency arm of the contention study
MULTI_BUS_LATENCY = 4


def multi_scaling_jobs(quick: bool = False,
                       timeout: Optional[float] = None) -> List[Job]:
    """The multi-scaling grid: workloads x nodes (+ psieve knob arms).

    ``quick`` runs the reduced sizes on :data:`MULTI_QUICK_NODES`, the
    full grid :data:`MULTI_FULL_NODES`.  Every workload sweeps the node
    grid at bus latency 0 with invalidation on; the sieve additionally
    sweeps the non-zero bus latency and invalidation-off arms so the
    BENCH ``multi`` section carries one contention curve and one
    coherence-cost curve.
    """
    from repro.workloads.parallel import PARALLEL_WORKLOADS, QUICK_SIZES

    node_list = MULTI_QUICK_NODES if quick else MULTI_FULL_NODES
    grid = [(name, n, 0, True) for name in PARALLEL_WORKLOADS
            for n in node_list]
    grid += [("psieve", n, MULTI_BUS_LATENCY, True) for n in node_list]
    grid += [("psieve", n, 0, False) for n in node_list]
    jobs = []
    for name, n, latency, invalidation in grid:
        params = {"workload": name, "nodes": n, "bus_latency": latency,
                  "invalidation": invalidation}
        if quick:
            params["size"] = QUICK_SIZES[name]
        flavor = "inv" if invalidation else "noinv"
        jobs.append(Job(
            id=f"multi/{name}-n{n:02d}-bus{latency}-{flavor}",
            fn=_POINT_FNS["multi-scaling"], params=params,
            timeout=timeout, sweep="multi-scaling"))
    return jobs


# ------------------------------------------------------------------- grids
def icache_design_points(total_words: int = 512) -> List[dict]:
    """The (sets, ways, block) splits of a fixed area budget -- the same
    enumeration as :func:`repro.icache.explorer.sweep_organizations`."""
    points = []
    block = 1
    while block <= total_words:
        lines = total_words // block
        ways = 1
        while ways <= lines:
            sets = lines // ways
            if sets * ways * block == total_words and sets >= 1:
                points.append({"sets": sets, "ways": ways,
                               "block_words": block})
            ways *= 2
        block *= 2
    return points


_POINT_FNS = {
    "branch-schemes": "repro.harness.experiments:branch_scheme_point",
    "icache-organizations":
        "repro.harness.experiments:icache_organization_point",
    "ecache-sweep": "repro.harness.experiments:ecache_size_point",
    "coproc-schemes": "repro.harness.experiments:coproc_scheme_point",
    "workload-cpi": "repro.harness.experiments:workload_cpi_point",
    "multi-scaling": "repro.harness.experiments:multi_scaling_point",
}


def _branch_jobs(quick: bool) -> List[Job]:
    from repro.reorg.delay_slots import TABLE1_SCHEMES
    from repro.workloads import PASCAL_SUITE

    names = list(PASCAL_SUITE[:2]) if quick else None
    jobs = []
    for scheme in TABLE1_SCHEMES:
        params = {"slots": scheme.slots, "squash": scheme.squash,
                  "squash_if_go": scheme.squash_if_go}
        if names:
            params["names"] = names
        jobs.append(Job(id=f"branch/{scheme.slots}-slot-{scheme.squash}",
                        fn=_POINT_FNS["branch-schemes"], params=params,
                        sweep="branch-schemes"))
    return jobs


def icache_grid(quick: bool = False) -> List[Tuple[str, dict]]:
    """``(row id, IcacheConfig fields)`` of the Icache sweep: the 512-word
    organizations at the paper's fetch-back (every fourth on ``quick``),
    then the fetch-back study on the paper organization."""
    points = icache_design_points()
    if quick:
        points = points[::4] or points
    grid = [(f"icache/{p['sets']}set-{p['ways']}way-{p['block_words']}w",
             dict(p, fetchback=2, miss_cycles=2))
            for p in points]
    grid += [(f"icache/fetchback-{fb}",
              {"sets": 4, "ways": 8, "block_words": 16,
               "fetchback": fb, "miss_cycles": max(2, fb)})
             for fb in (1, 2, 3, 4)]
    return grid


def _icache_jobs(quick: bool) -> List[Job]:
    trace_length = 60_000 if quick else TRACE_LENGTH
    return [Job(id=job_id, fn=_POINT_FNS["icache-organizations"],
                params=dict(params, trace_length=trace_length),
                sweep="icache-organizations")
            for job_id, params in icache_grid(quick)]


def _ecache_jobs(quick: bool) -> List[Job]:
    sizes = (16384, 65536) if quick else (4096, 16384, 65536, 262144)
    references = 80_000 if quick else 400_000
    return [Job(id=f"ecache/{size}w",
                fn=_POINT_FNS["ecache-sweep"],
                params={"size_words": size, "references": references},
                sweep="ecache-sweep")
            for size in sizes]


def _coproc_jobs(quick: bool) -> List[Job]:
    from repro.workloads import FP_SUITE

    names = FP_SUITE[:1] if quick else FP_SUITE
    return [Job(id=f"coproc/{name}", fn=_POINT_FNS["coproc-schemes"],
                params={"name": name}, sweep="coproc-schemes")
            for name in names]


#: the CPI workloads by simulated cycles, most first (``pipeline.cycles``
#: in METRICS_summary.json).  Their points are the grid's longest jobs, and
#: one submitted last would set its makespan; results still merge in
#: submission order, by job id.
CPI_LONGEST_FIRST = ("queens", "towers", "bubble", "assoc", "quick", "perm",
                     "intmm", "sieve", "treefold", "ackermann", "fib",
                     "listops")


def _cpi_jobs(quick: bool) -> List[Job]:
    from repro.workloads import LISP_SUITE, PASCAL_SUITE

    names = list(PASCAL_SUITE) + list(LISP_SUITE)
    if quick:
        names = names[:3]
    names.sort(key=CPI_LONGEST_FIRST.index)
    return [Job(id=f"cpi/{name}", fn=_POINT_FNS["workload-cpi"],
                params={"name": name}, sweep="workload-cpi")
            for name in names]


#: sweep name -> job-list builder (quick: bool) -> List[Job], in
#: submission order: the long CPI points go first
EXPERIMENT_SWEEPS = {
    "workload-cpi": _cpi_jobs,
    "branch-schemes": _branch_jobs,
    "icache-organizations": _icache_jobs,
    "ecache-sweep": _ecache_jobs,
    "coproc-schemes": _coproc_jobs,
}


def sweep_jobs(name: str, quick: bool = False,
               timeout: Optional[float] = None) -> List[Job]:
    """The job grid for one named sweep."""
    jobs = EXPERIMENT_SWEEPS[name](quick)
    if timeout is not None:
        jobs = [Job(id=j.id, fn=j.fn, params=j.params, timeout=timeout,
                    sweep=j.sweep) for j in jobs]
    return jobs


def default_jobs(quick: bool = False,
                 timeout: Optional[float] = None,
                 sweeps: Optional[Sequence[str]] = None) -> List[Job]:
    """The full experiment grid (all sweeps, submission-ordered)."""
    jobs: List[Job] = []
    for name in (sweeps or EXPERIMENT_SWEEPS):
        jobs.extend(sweep_jobs(name, quick=quick, timeout=timeout))
    return jobs


# ----------------------------------------------------------- traced sweeps
# Capture-once / replay-many equivalents of the cache and branch sweeps:
# the event streams are captured (or loaded from the TraceStore) once and
# every configuration is evaluated by the exact trace-replay models.  Row
# ids and result fields match the live jobs', so the two paths are
# directly comparable (and are compared, by tools/check_results.py and
# tests/test_trace_replay.py).

def traced_icache_sweep(quick: bool = False, reuse: bool = True,
                        store=None) -> dict:
    """Replay every Icache organization against one stored fetch trace."""
    import dataclasses
    import time

    from repro.core.config import IcacheConfig
    from repro.icache import trace_sim
    from repro.traces.store import (
        TraceStore,
        capture_synthetic_fetch,
        synthetic_fetch_descriptor,
    )
    from repro.traces.synthetic import paper_regime_program

    store = store if store is not None else TraceStore()
    trace_length = 60_000 if quick else TRACE_LENGTH
    program = paper_regime_program()
    captured, capture_s, hit = store.get_or_capture(
        synthetic_fetch_descriptor(program, trace_length),
        lambda: capture_synthetic_fetch(program, trace_length),
        reuse=reuse)
    addresses = captured["addresses"]

    started = time.perf_counter()
    rows = []
    replayed = {}  # fetchback-2 is also the paper organization's row
    for job_id, params in icache_grid(quick):
        config = IcacheConfig(**params)
        key = dataclasses.astuple(config)
        if key not in replayed:
            replayed[key] = trace_sim.replay(config, addresses)
        stats = replayed[key]
        rows.append(dict(
            params, id=job_id, miss_ratio=stats.miss_rate,
            fetch_cost=stats.average_fetch_cost(config.miss_cycles)))
    replay_s = time.perf_counter() - started
    return {"sweep": "icache-organizations", "rows": rows,
            "capture_s": capture_s, "replay_s": replay_s,
            "cache_hits": int(hit), "cache_misses": int(not hit)}


def traced_branch_sweep(quick: bool = False, reuse: bool = True,
                        store=None) -> dict:
    """Replay Table 1 from stored branch counts and scheme plan costs."""
    import time

    from repro.analysis.trace_replay import ReplayTiming, replay_scheme
    from repro.reorg.delay_slots import TABLE1_SCHEMES
    from repro.traces.store import TraceStore
    from repro.workloads import PASCAL_SUITE

    store = store if store is not None else TraceStore()
    names = list(PASCAL_SUITE[:2]) if quick else list(PASCAL_SUITE)
    timing = ReplayTiming()
    started = time.perf_counter()
    rows = []
    for scheme in TABLE1_SCHEMES:
        evaluation = replay_scheme(scheme, names, store=store, reuse=reuse,
                                   timing=timing)
        rows.append({"id": f"branch/{scheme.slots}-slot-{scheme.squash}",
                     "slots": scheme.slots, "squash": scheme.squash,
                     "cycles_per_branch": evaluation.cycles_per_branch,
                     "executions": evaluation.executions,
                     "cycles": evaluation.cycles})
    wall = time.perf_counter() - started
    return {"sweep": "branch-schemes", "rows": rows,
            "capture_s": timing.capture_s,
            "replay_s": max(0.0, wall - timing.capture_s),
            "cache_hits": timing.cache_hits,
            "cache_misses": timing.cache_misses}


def traced_ecache_sweep(quick: bool = False, reuse: bool = True,
                        store=None) -> dict:
    """Replay the Ecache size sweep against one stored data trace."""
    import time

    from repro.core.config import EcacheConfig
    from repro.ecache import trace_sim as ecache_trace_sim
    from repro.traces.store import (
        TraceStore,
        capture_synthetic_data,
        synthetic_data_descriptor,
    )
    from repro.traces.synthetic import SyntheticProgram

    store = store if store is not None else TraceStore()
    sizes = (16384, 65536) if quick else (4096, 16384, 65536, 262144)
    references = 80_000 if quick else 400_000
    program = SyntheticProgram(data_words=400_000, seed=0xBADCAFE)
    captured, capture_s, hit = store.get_or_capture(
        synthetic_data_descriptor(program, references),
        lambda: capture_synthetic_data(program, references),
        reuse=reuse)

    started = time.perf_counter()
    rows = []
    for size in sizes:
        config = EcacheConfig(size_words=size)
        stats, stall = ecache_trace_sim.replay_data(
            config, captured["addresses"], captured["is_store"])
        rows.append({"id": f"ecache/{size}w", "size_words": size,
                     "miss_rate": stats.miss_rate,
                     "stall_per_ref": stall / references if references
                     else 0.0})
    replay_s = time.perf_counter() - started
    return {"sweep": "ecache-sweep", "rows": rows,
            "capture_s": capture_s, "replay_s": replay_s,
            "cache_hits": int(hit), "cache_misses": int(not hit)}


#: sweep name -> traced evaluator (quick, reuse, store) -> result dict
TRACED_SWEEPS = {
    "branch-schemes": traced_branch_sweep,
    "icache-organizations": traced_icache_sweep,
    "ecache-sweep": traced_ecache_sweep,
}

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
:func:`paper_study_jobs` holds the rest of the paper's measured studies
(E2/E3, E8-E11, E13-E16, E18); E17 reads the multi-scaling grid.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.harness.runner import Job

#: trace length of the full cache sweeps
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
                              trace_length: int = TRACE_LENGTH,
                              replacement: str = "lru") -> dict:
    """One Icache organization over the calibrated synthetic trace."""
    from repro.core.config import IcacheConfig
    from repro.icache.explorer import evaluate
    from repro.traces.synthetic import paper_regime_program

    trace = list(paper_regime_program().instruction_trace(trace_length))
    config = IcacheConfig(sets=sets, ways=ways, block_words=block_words,
                          fetchback=fetchback, miss_cycles=miss_cycles,
                          replacement=replacement)
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
                      seed: int = 0xBADCAFE,
                      write_through: bool = True) -> dict:
    """One Ecache size over the large synthetic data trace (E15)."""
    from repro.core.config import EcacheConfig
    from repro.ecache.ecache import Ecache
    from repro.traces.synthetic import SyntheticProgram

    program = SyntheticProgram(data_words=data_words, seed=seed)
    cache = Ecache(EcacheConfig(size_words=size_words,
                                write_through=write_through))
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
    can aggregate the bench report's ``metrics`` section and the bench
    campaign's gate can audit counter-derived CPI against the analysis
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


def _halted_run(source: str, config, max_cycles: int):
    """Assemble ``source``, run it on ``config`` and insist it halted."""
    from repro.asm import assemble
    from repro.core import Machine

    machine = Machine(config)
    machine.load_program(assemble(source))
    machine.run(max_cycles)
    if not machine.halted:
        raise RuntimeError(f"program did not halt in {max_cycles} cycles")
    return machine


#: E2/E3: a squashing branch that goes the wrong way on loop exit, one
#: trap to vector 0, and the cold Icache misses of a real-cache run
FSM_PROGRAM = """
.org 0
    movfrs s0, psw
    halt
.org 0x40
_start:
    li t0, 4
loop:
    addi t0, t0, -1
    bgtsq t0, r0, loop      ; squashing branch: wrong-way on exit
    nop
    nop
    trap                    ; exception -> vector 0
"""


def control_fsm_point() -> dict:
    """Both control FSMs of Figures 3 and 4, exercised live (E2/E3).

    One run takes a wrong-way squashing branch, one exception and cold
    Icache misses; the row holds what each FSM sequenced beside the
    pipeline's own counts of the same events.  A run that does not take
    exactly its one trap fails the job.
    """
    from repro.core.config import MachineConfig

    machine = _halted_run(FSM_PROGRAM, MachineConfig(), 100_000)
    if machine.stats.exceptions != 1:
        raise RuntimeError(f"took {machine.stats.exceptions} exceptions, "
                           "not the program's one trap")
    pipeline = machine.pipeline
    return {
        "squash_transitions": pipeline.squash_fsm.transitions,
        "branch_squashes": machine.stats.branch_squashes,
        "exceptions": machine.stats.exceptions,
        "miss_sequences": pipeline.miss_fsm.miss_sequences,
        "miss_stall_cycles": pipeline.miss_fsm.stall_cycles,
        "icache_misses": machine.icache.stats.misses,
        "icache_stall_cycles": machine.stats.icache_stall_cycles,
    }


#: E14: iterations of the overflow loops; each traps once with TE set
TRAP_ITERATIONS = 20

#: E14: an add that overflows every iteration with TE set, and a handler
#: that counts the trap, clears TE in PSWold and restarts through the
#: PC chain, so the re-executed add completes
OVERFLOW_TRAP_PROGRAM = """
.org 0
    br handler
    nop
    nop
.org 0x40
handler:
    la   s0, count
    ld   s1, 0(s0)
    nop
    addi s1, s1, 1
    st   s1, 0(s0)
    movfrs t0, pswold      ; clear TE so the re-executed add completes
    li    t1, {te}
    not   t1, t1
    and   t0, t0, t1
    movtos pswold, t0
    jpc
    jpc
    jpcrs
.org 0x100
_start:
    li   s3, {iterations}
loop:
    li   t9, {psw}
    movtos psw, t9
    li   t2, 0x7FFFFFFF
    li   t3, 1
    add  t4, t2, t3        ; traps every iteration
    addi s3, s3, -1
    bgt  s3, r0, loop
    nop
    nop
    halt
count: .word 0
"""

#: E14: the same overflowing add with TE off
NO_TRAP_PROGRAM = """
_start:
    li   s3, {iterations}
loop:
    li   t2, 0x7FFFFFFF
    li   t3, 1
    add  t4, t2, t3        ; overflows silently (TE off)
    addi s3, s3, -1
    bgt  s3, r0, loop
    nop
    nop
    halt
"""


def exception_point() -> dict:
    """Exception round trips measured live (E14).

    Runs the overflow-trap loop and the same loop with TE off.  The job
    fails unless every iteration trapped once, the handler ran once per
    trap, the restarted add completed with the wrapped value and the
    loop without TE took no exception.
    """
    from repro.asm import assemble
    from repro.core import PswBit, perfect_memory_config

    psw = (1 << PswBit.MODE) | (1 << PswBit.SHIFT_EN) | (1 << PswBit.TE)
    source = OVERFLOW_TRAP_PROGRAM.format(te=1 << PswBit.TE, psw=psw,
                                          iterations=TRAP_ITERATIONS)
    machine = _halted_run(source, perfect_memory_config(), 1_000_000)
    baseline = _halted_run(NO_TRAP_PROGRAM.format(iterations=TRAP_ITERATIONS),
                           perfect_memory_config(), 1_000_000)
    handler_runs = machine.memory.system.read(
        assemble(source).symbols["count"])
    checks = {
        "traps taken": (machine.stats.exceptions, TRAP_ITERATIONS),
        "handler runs": (handler_runs, TRAP_ITERATIONS),
        "restarted add result": (machine.regs[14], 0x80000000),
        "exceptions without TE": (baseline.stats.exceptions, 0),
    }
    for what, (measured, expected) in checks.items():
        if measured != expected:
            raise RuntimeError(f"{what}: {measured}, expected {expected}")
    return {
        "traps": machine.stats.exceptions,
        "handler_runs": handler_runs,
        "cycles": machine.stats.cycles,
        "baseline_cycles": baseline.stats.cycles,
        "overhead_per_exception": ((machine.stats.cycles
                                    - baseline.stats.cycles)
                                   / machine.stats.exceptions),
    }


def ecache_ifetch_point(size_words: int, trace_length: int = 300_000) -> dict:
    """Instruction fetch-backs through one Ecache size (E15's
    instruction side): the synthetic program's fetch trace, all misses."""
    from repro.core.config import EcacheConfig
    from repro.ecache.ecache import Ecache
    from repro.traces.synthetic import paper_regime_program

    cache = Ecache(EcacheConfig(size_words=size_words))
    stall = 0
    for address in paper_regime_program().instruction_trace(trace_length):
        stall += cache.ifetch(address, True)
    return {
        "size_words": size_words,
        "miss_rate": cache.stats.miss_rate,
        "stall_per_fetch": stall / trace_length,
    }


def area_tradeoff_point(trace_length: int = 300_000) -> dict:
    """Icache size against the transistor budget (E10): per size, the
    model's transistors, whether it fits the paper's die, and the miss
    ratio and fetch cost on the synthetic fetch trace."""
    from repro.analysis.area import icache_size_tradeoff
    from repro.traces.synthetic import paper_regime_program

    trace = list(paper_regime_program().instruction_trace(trace_length))
    return {"sizes": [
        {"words": point.words, "transistors": point.transistors,
         "fits_paper_die": point.fits_paper_die,
         "miss_ratio": point.miss_ratio, "fetch_cost": point.fetch_cost}
        for point in icache_size_tradeoff(trace)]}


def branch_conditions_point() -> dict:
    """Dynamic branch-condition classes over both suites (E8)."""
    from repro.analysis.quick_compare import suite_stats

    stats = suite_stats()
    return {
        "total": stats.total,
        "equality": stats.equality,
        "sign_test": stats.sign_test,
        "near_sign_test": stats.near_sign_test,
        "ordered_reg": stats.ordered_reg,
        "cc_free": stats.cc_free,
        "explicit_compare_fraction": stats.explicit_compare_fraction,
        "quick_fraction_strict": stats.quick_fraction_strict,
        "quick_fraction": stats.quick_fraction,
    }


def branch_prediction_point() -> dict:
    """Branch cache against static prediction over both suites (E9):
    mispredict rates, the caches keyed by their entry count."""
    from repro.analysis.prediction import run_study

    sizes = (4, 8, 16, 32, 64, 128, 256)
    study = run_study(sizes=sizes)
    return {
        "static_btfn": study.static_btfn.mispredict_rate,
        "static_profile": study.static_profile.mispredict_rate,
        "branch_cache": {str(entries): result.mispredict_rate
                         for entries, result in zip(sizes, study.caches)},
    }


def vax_comparison_point(name: str) -> dict:
    """One Pascal workload on MIPS-X and on the VAX 11/780 model (E13).

    The job fails if the two machines print different consoles.
    """
    from repro.analysis.vax import compare_workload

    comparison = compare_workload(name)
    return {
        "workload": name,
        "mipsx_instructions": comparison.mipsx_instructions,
        "vax_instructions": comparison.vax.instructions,
        "path_length_ratio": comparison.path_length_ratio,
        "speedup": comparison.speedup,
        "code_size_ratio": comparison.code_size_ratio,
    }


def bandwidth_point() -> dict:
    """Memory bandwidth of the Pascal suite on perfect memory (E11)."""
    from repro.analysis.cpi import suite
    from repro.core.config import perfect_memory_config

    summary = suite(config=perfect_memory_config())
    return {
        "data_reference_density": summary.data_reference_density,
        "average_bandwidth_mwords": summary.average_bandwidth_mwords,
        "peak_bandwidth_mwords": summary.breakdowns[0].peak_bandwidth_mwords,
    }


def multiprogramming_point() -> dict:
    """Icache miss ratio against the task-switch quantum (E18): both
    suites' fetch traces interleaved every Q references, and the warm
    no-switching floor."""
    from repro.analysis.multiprogramming import (collect_workload_traces,
                                                 quantum_sweep,
                                                 warm_miss_ratio)
    from repro.workloads import LISP_SUITE, PASCAL_SUITE

    traces = collect_workload_traces(list(PASCAL_SUITE) + list(LISP_SUITE))
    return {
        "quanta": [{"quantum": point.quantum, "miss_ratio": point.miss_ratio}
                   for point in quantum_sweep(traces)],
        "warm_miss_ratio": warm_miss_ratio(traces),
    }


#: E16: the reorganizer variants, each with one mechanism removed
REORGANIZER_VARIANTS = ("full", "no-load-scheduling", "no-profiling",
                        "no-squashing")

#: E16: the workloads the reorganizer ablation sums over
REORGANIZER_WORKLOADS = ("fib", "sieve", "towers", "listops", "queens")


def reorganizer_ablation_point(variant: str) -> dict:
    """One reorganizer variant on perfect memory (E16), summed over
    :data:`REORGANIZER_WORKLOADS`: ``full`` schedules load delays,
    profiles branches and squashes; each other variant drops one."""
    from repro.analysis.common import naive_unit, workload_profile
    from repro.core import Machine, perfect_memory_config
    from repro.reorg.delay_slots import MIPSX_SCHEME, BranchScheme
    from repro.reorg.reorganizer import reorganize
    from repro.workloads import get

    scheme = (BranchScheme(2, "none") if variant == "no-squashing"
              else MIPSX_SCHEME)
    totals = {"cycles": 0, "noops": 0, "retired": 0}
    for name in REORGANIZER_WORKLOADS:
        profile = (None if variant == "no-profiling"
                   else dict(workload_profile(name)))
        result = reorganize(naive_unit(get(name)), scheme, profile=profile,
                            schedule_loads=variant != "no-load-scheduling")
        machine = Machine(perfect_memory_config())
        machine.load_program(result.unit.assemble())
        machine.run(30_000_000)
        if not machine.halted:
            raise RuntimeError(f"{name} did not halt under '{variant}'")
        for key in totals:
            totals[key] += getattr(machine.stats, key)
    return dict(totals, variant=variant,
                noop_fraction=totals["noops"] / totals["retired"])


#: node counts of the multi-scaling sweep: the paper's 6-10 range
#: bracketed from 1
MULTI_NODES = tuple(range(1, 11))

#: the non-zero bus-latency arm of the contention study
MULTI_BUS_LATENCY = 4


def multi_scaling_jobs(timeout: Optional[float] = None) -> List[Job]:
    """The multi-scaling grid: workloads x nodes (+ psieve knob arms).

    Every workload sweeps :data:`MULTI_NODES` at bus latency 0 with
    invalidation on; the sieve additionally sweeps the non-zero bus
    latency and invalidation-off arms so the BENCH ``multi`` section
    carries one contention curve and one coherence-cost curve.
    """
    from repro.workloads.parallel import PARALLEL_WORKLOADS

    grid = [(name, n, 0, True) for name in PARALLEL_WORKLOADS
            for n in MULTI_NODES]
    grid += [("psieve", n, MULTI_BUS_LATENCY, True) for n in MULTI_NODES]
    grid += [("psieve", n, 0, False) for n in MULTI_NODES]
    jobs = []
    for name, n, latency, invalidation in grid:
        params = {"workload": name, "nodes": n, "bus_latency": latency,
                  "invalidation": invalidation}
        flavor = "inv" if invalidation else "noinv"
        jobs.append(Job(
            id=f"multi/{name}-n{n:02d}-bus{latency}-{flavor}",
            fn=_POINT_FNS["multi-scaling"], params=params,
            timeout=timeout, sweep="multi-scaling"))
    return jobs


#: the paper's Icache organization, as :func:`icache_organization_point`
#: params; its LRU row is the grid's ``icache/4set-8way-16w``
PAPER_ICACHE = {"sets": 4, "ways": 8, "block_words": 16}

#: E15's write-policy trace: its own data trace, at the 64K-word design
#: point
WRITE_POLICY_TRACE = {"size_words": 65536, "data_words": 300_000,
                      "references": 250_000, "seed": 0x5EED}


def paper_study_jobs(timeout: Optional[float] = None) -> List[Job]:
    """The paper's studies outside the sweeps, longest first: E8's branch
    conditions and suite-wide branch cost, E9, E18, E11, E16's
    reorganizer variants, E13 per Pascal workload, E2/E3, E14, E10's
    Icache size trade-off, E15's write policy and instruction side, and
    E16's Icache replacement and fill ablations beside the grid's paper
    organization row."""
    from repro.workloads import LISP_SUITE, PASCAL_SUITE

    suites = list(PASCAL_SUITE) + list(LISP_SUITE)
    grid = [
        ("multiprogramming/suite", "multiprogramming_point", {}),
        ("prediction/suite", "branch_prediction_point", {}),
        ("branch-conditions/suite", "branch_conditions_point", {}),
        ("branch/2-slot-optional-all", "branch_scheme_point",
         {"slots": 2, "squash": "optional", "names": suites}),
        ("bandwidth/pascal", "bandwidth_point", {}),
    ]
    grid += [(f"ablation/reorganizer-{variant}", "reorganizer_ablation_point",
              {"variant": variant}) for variant in REORGANIZER_VARIANTS]
    grid += [(f"vax/{name}", "vax_comparison_point", {"name": name})
             for name in PASCAL_SUITE]
    grid += [
        ("control/fsm-live", "control_fsm_point", {}),
        ("exceptions/overflow-trap", "exception_point", {}),
        ("area/icache-tradeoff", "area_tradeoff_point", {}),
        ("ecache-policy/write-through", "ecache_size_point",
         dict(WRITE_POLICY_TRACE, write_through=True)),
        ("ecache-policy/write-back", "ecache_size_point",
         dict(WRITE_POLICY_TRACE, write_through=False)),
        ("ecache-ifetch/8192w", "ecache_ifetch_point", {"size_words": 8192}),
        ("ecache-ifetch/65536w", "ecache_ifetch_point",
         {"size_words": 65536}),
        ("ablation/replacement-fifo", "icache_organization_point",
         dict(PAPER_ICACHE, replacement="fifo")),
        ("ablation/replacement-random", "icache_organization_point",
         dict(PAPER_ICACHE, replacement="random")),
        ("ablation/whole-block-16w", "icache_organization_point",
         dict(PAPER_ICACHE, fetchback=16, miss_cycles=16)),
        ("ablation/whole-block-4w", "icache_organization_point",
         {"sets": 16, "ways": 8, "block_words": 4, "fetchback": 4,
          "miss_cycles": 4}),
    ]
    return [Job(id=job_id, fn=f"repro.harness.experiments:{fn}",
                params=params, timeout=timeout, sweep="paper-studies")
            for job_id, fn, params in grid]


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
#: in BENCH_pipeline.json's ``metrics``).  Their points are the grid's
#: longest jobs, and one submitted last would set its makespan; results
#: still merge in submission order, by job id.
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
# directly comparable (and are compared, row by row, by the bench
# campaign's gate and by tests/test_trace_replay.py).

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

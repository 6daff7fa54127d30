"""The per-layer metrics of a traced run, and the end-to-end metric each
should move.

Every metric here is listed, with the same unit and direction, under
``per_layer`` in ``BENCHMARK.json`` (a test checks the two agree).  A
traced run reports all of them on every workload; a layer a workload
does not exercise reads 0.

* Self-time shares (``<layer>.self_pct``, ``<span>.self_pct``) are a
  layer's or span's self time as a percentage of the traced timed
  region's wall time (see :mod:`perfbench.tracing`).
* Counts are summed over every ``Pipeline.run`` call of the traced
  pass (the counters ``Machine.metrics()`` harvests) or kept by the
  workload itself; they repeat exactly for a given seed.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

SUITES = ("suite-interp", "suite-jit")
FUZZ = ("fuzz-campaign",)
SWEEP = ("design-sweep",)
OS = ("os-boot",)
SIMULATING = SUITES + OS + FUZZ
ALL = SUITES + FUZZ + SWEEP + OS


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str                  #: the end-to-end metric it should move
    on: Tuple[str, ...]         #: ... on these workloads


_T = "throughput_per_s"
_S = "setup_s"

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    # ---- core: the cycle-accurate pipeline and its machine
    LayerMetric("core.self_pct", "%", "lower", _T, SIMULATING),
    LayerMetric("core.run.self_pct", "%", "lower", _T, SIMULATING),
    LayerMetric("core.machine_init.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("core.load.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("core.ns_per_cycle", "ns", "lower", _T, SUITES + OS),
    LayerMetric("pipeline.cycles", "count", "lower", _T, SIMULATING),
    LayerMetric("pipeline.instructions.retired", "count", "lower", _T,
                SIMULATING),
    LayerMetric("pipeline.cpi", "cycle/instr", "lower", _T, SIMULATING),
    LayerMetric("pipeline.stall.icache_miss", "cycles", "lower", _T, SUITES),
    LayerMetric("pipeline.stall.ecache_late_miss", "cycles", "lower", _T,
                SUITES),
    LayerMetric("pipeline.branch.squashes", "count", "lower", _T, SUITES),
    LayerMetric("pipeline.exceptions.taken", "count", "lower", _T, OS),
    LayerMetric("pipeline.interrupts.taken", "count", "lower", _T, OS),
    # ---- core.golden: the instruction-level reference model
    LayerMetric("core.golden.self_pct", "%", "lower", _T, FUZZ),
    # ---- core.translate: the block translator (JIT)
    LayerMetric("core.translate.self_pct", "%", "lower", _T,
                ("suite-jit",) + FUZZ),
    LayerMetric("core.translate.cycle_coverage", "frac", "higher", _T,
                ("suite-jit",)),
    LayerMetric("core.translate.entry_hit_rate", "frac", "higher", _T,
                ("suite-jit",)),
    LayerMetric("core.translate.blocks.compiled", "count", "lower", _T,
                ("suite-jit",) + FUZZ),
    LayerMetric("core.translate.bails", "count", "lower", _T,
                ("suite-jit",)),
    LayerMetric("core.translate.side_exits", "count", "lower", _T,
                ("suite-jit",)),
    # ---- lang / reorg / asm: the source-to-image path
    LayerMetric("lang.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("reorg.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("asm.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("asm.parse.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("asm.assemble.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("setup.lang.self_pct", "%", "lower", _S, SUITES),
    LayerMetric("setup.reorg.self_pct", "%", "lower", _S, SUITES),
    LayerMetric("setup.asm.self_pct", "%", "lower", _S, SUITES + OS),
    LayerMetric("setup.workloads.self_pct", "%", "lower", _S, OS),
    # ---- icache / ecache: cache models and their trace replays
    LayerMetric("icache.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("icache.trace_sim.replay.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("icache.miss_rate", "frac", "lower", _T, SUITES),
    LayerMetric("ecache.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("ecache.trace_sim.replay.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("ecache.miss_rate", "frac", "lower", _T, SUITES),
    LayerMetric("ecache.late_miss.retries", "count", "lower", _T, SUITES),
    # ---- ecache.devices: MMIO devices behind the Ecache sink
    LayerMetric("device.uart.irqs", "count", "lower", _T, OS),
    LayerMetric("device.timer.fires", "count", "lower", _T, OS),
    LayerMetric("device.disk.reads", "count", "lower", _T, OS),
    # ---- traces: capture and the content-addressed store
    LayerMetric("traces.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("traces.store.get.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("setup.traces.self_pct", "%", "lower", _S, SWEEP),
    LayerMetric("traces.store.hits", "count", "higher", _T, SWEEP),
    LayerMetric("traces.store.misses", "count", "lower", _T, SWEEP),
    LayerMetric("traces.store.integrity_failures", "count", "lower", _T,
                SWEEP),
    # ---- analysis: branch-scheme replay and the experiment points
    LayerMetric("analysis.self_pct", "%", "lower", _T, SWEEP),
    LayerMetric("analysis.trace_replay.self_pct", "%", "lower", _T, SWEEP),
    # ---- checkpoint: snapshot, store and restore
    LayerMetric("checkpoint.self_pct", "%", "lower", _T, OS + FUZZ),
    LayerMetric("checkpoint.snapshot.self_pct", "%", "lower", _T, OS + FUZZ),
    LayerMetric("checkpoint.save.self_pct", "%", "lower", _T, OS),
    LayerMetric("checkpoint.load.self_pct", "%", "lower", _T, OS),
    LayerMetric("checkpoint.restore.self_pct", "%", "lower", _T, OS + FUZZ),
    LayerMetric("checkpoint.bytes_written", "bytes", "lower", _T, OS),
    LayerMetric("checkpoint.drain_cycles", "cycles", "lower", _T, OS),
    # ---- fuzz: program generation and the oracles' own comparisons
    LayerMetric("fuzz.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("fuzz.generate.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("fuzz.oracle.jit.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("fuzz.oracle.checkpoint.self_pct", "%", "lower", _T, FUZZ),
    LayerMetric("fuzz.divergences", "count", "lower", _T, FUZZ),
    # ---- telemetry: harvesting machine metrics
    LayerMetric("telemetry.self_pct", "%", "lower", _T, ALL),
    # ---- harness: the Runner
    LayerMetric("harness.self_pct", "%", "lower", _T, FUZZ + SWEEP),
    LayerMetric("harness.runner.efficiency", "frac", "higher", _T,
                FUZZ + SWEEP),
    LayerMetric("harness.runner.retries", "count", "lower", _T, FUZZ + SWEEP),
    LayerMetric("harness.runner.failed", "count", "lower", _T, FUZZ + SWEEP),
    # ---- the benchmark itself and the trace's own quality
    LayerMetric("other.self_pct", "%", "lower", _T, ALL),
    LayerMetric("trace.coverage", "frac", "higher", _T, ALL),
    LayerMetric("tracing_overhead_frac", "frac", "lower", _T, ALL),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _runner_seconds(segment: dict, kinds) -> float:
    """Reference seconds the segment spent in Runner ops."""
    return sum(segment["kinds"][kind]["total_s"] for kind in kinds)


def layer_values(traced: dict, serial: dict, parallel: Optional[dict],
                 runner_kinds, workers: int) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one workload.

    ``traced`` is the traced pass, ``serial`` the same pass untraced and
    in-process (the overhead reference), ``parallel`` the same pass on
    the parallel Runner (None for workloads that do not use it).
    """
    counts: Dict[str, float] = dict(traced["trace"]["counts"])
    counts.update(traced["counters"])
    if parallel is not None:
        for name in ("harness.runner.retries", "harness.runner.failed"):
            counts[name] = parallel["counters"].get(name, 0)
    values: Dict[str, float] = dict(counts)
    cycles = counts.get("pipeline.cycles", 0)
    values["pipeline.cpi"] = _ratio(
        cycles, counts.get("pipeline.instructions.retired", 0))
    values["icache.miss_rate"] = _ratio(counts.get("icache.misses", 0),
                                        counts.get("icache.accesses", 0))
    values["ecache.miss_rate"] = _ratio(
        sum(counts.get(f"ecache.{kind}_misses", 0)
            for kind in ("read", "write", "ifetch")),
        sum(counts.get(f"ecache.{kind}", 0)
            for kind in ("reads", "writes", "ifetches")))
    values["core.translate.cycle_coverage"] = _ratio(
        counts.get("core.translate.cycles", 0), cycles)
    taken = counts.get("core.translate.entries.taken", 0)
    values["core.translate.entry_hit_rate"] = _ratio(
        taken, taken + counts.get("core.translate.entries.rejected", 0))

    for phase, prefix in (("run", ""), ("setup", "setup.")):
        summary = traced["trace"][phase]
        for group in ("self_s_by_layer", "self_s_by_span"):
            for name, seconds in summary[group].items():
                values[f"{prefix}{name}.self_pct"] = (
                    100.0 * _ratio(seconds, summary["wall_s"]))
    run = traced["trace"]["run"]
    # span times are wall seconds; this pass's own meter scales them
    scale = _ratio(traced["reference_s"], traced["wall_s"])
    values["core.ns_per_cycle"] = 1e9 * scale * _ratio(
        run["self_s_by_span"].get("core.run", 0.0), cycles)
    values["trace.coverage"] = run["coverage"]
    values["tracing_overhead_frac"] = _ratio(traced["reference_s"],
                                             serial["reference_s"]) - 1.0
    values["harness.runner.efficiency"] = (
        _ratio(_runner_seconds(serial, runner_kinds),
               _runner_seconds(parallel, runner_kinds) * workers)
        if parallel is not None else 0.0)
    return {metric.name: values.get(metric.name, 0)
            for metric in LAYER_METRICS}

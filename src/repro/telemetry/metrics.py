"""The metrics registry: counters, gauges, histograms, and harvesting.

Design constraint (the acceptance budget of ISSUE 5): **zero overhead
when disabled**.  The machine's per-cycle hot loop never tests a metrics
flag; components keep maintaining the cheap plain-integer stat structs
they always had (:class:`~repro.core.pipeline.PipelineStats`,
:class:`~repro.icache.cache.IcacheStats`, ...), and telemetry *harvests*
those into one hierarchical registry after (or during) a run:

* :func:`collect_machine` snapshots every component of a
  :class:`~repro.core.processor.Machine` into canonical catalogued names
  (``pipeline.stall.icache_miss``, ``ecache.late_miss.retries``, ...) --
  the audited source of truth the harness, the CLI, and the bench
  campaign's gate all read;
* the :class:`~repro.telemetry.tracer.CycleTracer` feeds histograms
  (stall lengths, instruction lifetimes) into the same registry, using
  the attach-a-hook pattern the fault injector uses: when no tracer is
  attached, nothing in the machine changes.

Aggregation across harness jobs sums counters and recomputes derived
gauges from the summed counters (never by averaging gauges), so a
parallel run aggregates byte-identically to a serial one.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.telemetry.catalog import CATALOG_BY_NAME, MetricSpec

#: snapshot value types: counters/gauges are numbers, histograms dicts
SnapshotValue = Union[int, float, Dict[str, Any]]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        """Create the counter at zero."""
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (ratios, rates, derived quantities)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        """Create the gauge at 0.0."""
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


class Histogram:
    """A distribution summary: count/total/min/max plus fixed buckets.

    Buckets are cumulative-upper-bound style (``le``), powers of two by
    default -- stall lengths and instruction lifetimes span a few orders
    of magnitude and the paper's analyses only need coarse shape.
    """

    DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, bounds: Iterable[int] = DEFAULT_BOUNDS):
        """Create an empty histogram with ``bounds`` as upper edges."""
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for k, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[k] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-able summary: count/total/min/max/mean + bucket counts."""
        buckets = {f"le_{bound}": self.bucket_counts[k]
                   for k, bound in enumerate(self.bounds)}
        buckets["overflow"] = self.bucket_counts[-1]
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "mean": round(self.mean, 6), "buckets": buckets}


class Metrics:
    """A registry of named counters, gauges, and histograms.

    Names are hierarchical dotted strings.  By default only names in the
    :mod:`repro.telemetry.catalog` are accepted -- an unknown name is a
    typo or an undocumented metric, both bugs (``strict=False`` lifts
    this for scratch/experimental use).
    """

    def __init__(self, strict: bool = True):
        """Create an empty registry (``strict``: catalog-only names)."""
        self.strict = strict
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------- validation
    def _check(self, name: str, kind: str) -> None:
        if not self.strict:
            return
        spec = CATALOG_BY_NAME.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not in the catalog "
                "(repro.telemetry.catalog) -- add a MetricSpec and "
                "document it in docs/OBSERVABILITY.md, or use "
                "Metrics(strict=False)")
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is catalogued as a {spec.kind}, "
                f"not a {kind}")

    # ----------------------------------------------------------- accessors
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check(name, "histogram")
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # ---------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, SnapshotValue]:
        """One flat, sorted, JSON-able ``{name: value}`` view.

        Counters and gauges map to their numeric values, histograms to
        their :meth:`Histogram.summary` dict.
        """
        out: Dict[str, SnapshotValue] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return {name: out[name] for name in sorted(out)}

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def specs(self) -> List[MetricSpec]:
        """Catalog entries for every registered metric, sorted by name."""
        names = sorted(set(self._counters) | set(self._gauges)
                       | set(self._histograms))
        return [CATALOG_BY_NAME[name] for name in names
                if name in CATALOG_BY_NAME]


# --------------------------------------------------------------- harvesting
def collect_machine(machine, metrics: Optional[Metrics] = None) -> Metrics:
    """Harvest every component of ``machine`` into canonical names.

    This is the **one audited mapping** from component stat structs to
    hierarchical metric names; every consumer (CpiBreakdown, the harness
    metrics summary, ``repro trace --metrics``, the CLI ``--stats``
    printout) reads this mapping rather than scraping attributes.

    Zero run-time overhead: nothing here executes during simulation; the
    stat structs the components always maintained are read once, after
    the run.
    """
    from repro.core.translate import TranslateStats

    metrics = metrics if metrics is not None else Metrics()
    components = [machine.pipeline.stats, machine.icache.stats,
                  machine.ecache, machine.coprocessors]
    translator = machine.pipeline._translator
    # interpretive runs report the core.translate.* names as zeros, so
    # every single-machine snapshot carries the full counter set and
    # jit-vs-interpreter snapshots diff cleanly name-for-name
    components.append(translator.stats if translator is not None
                      else TranslateStats())
    for component in components:
        for name, value in component.as_metrics().items():
            metrics.counter(name).inc(value)
    # the MMIO devices behind the Ecache sink (UART, timer, disk)
    for name, value in machine.memory.device_metrics().items():
        metrics.counter(name).inc(value)
    set_derived_gauges(metrics)
    return metrics


def collect_multi(system, metrics: Optional[Metrics] = None) -> Metrics:
    """Harvest a :class:`~repro.multi.system.MultiMachine` into one registry.

    Every node is harvested through :func:`collect_machine` (counters
    sum across nodes, exactly the aggregation rule the harness uses for
    jobs), then the shared-bus counters land under the ``multi.*``
    catalog names and the derived gauges are recomputed from the summed
    totals.  Per-node views remain available by calling
    :func:`collect_machine` on ``system.machines[i]`` directly.
    """
    metrics = metrics if metrics is not None else Metrics()
    for machine in system.machines:
        collect_machine(machine, metrics)
    metrics.counter("multi.cycles").inc(system.cycles)
    metrics.counter("multi.bus.acquisitions").inc(system.bus.acquisitions)
    metrics.counter("multi.bus.contention_cycles").inc(
        system.bus.contention_cycles)
    metrics.counter("multi.bus.invalidations").inc(system.bus.invalidations)
    metrics.gauge("multi.nodes").set(len(system.machines))
    set_derived_gauges(metrics)
    return metrics


def set_derived_gauges(metrics: Metrics) -> None:
    """(Re)compute the catalogued derived gauges from the counters.

    Always derived from counters -- never aggregated directly -- so the
    same function serves a single machine and a summed multi-job total.
    """
    def _value(name: str) -> int:
        counter = metrics._counters.get(name)
        return counter.value if counter is not None else 0

    retired = _value("pipeline.instructions.retired")
    cycles = _value("pipeline.cycles")
    metrics.gauge("pipeline.cpi").set(cycles / retired if retired else 0.0)
    metrics.gauge("pipeline.noop_fraction").set(
        _value("pipeline.instructions.noops") / retired if retired else 0.0)
    accesses = _value("icache.accesses")
    metrics.gauge("icache.miss_rate").set(
        _value("icache.misses") / accesses if accesses else 0.0)
    e_accesses = (_value("ecache.reads") + _value("ecache.writes")
                  + _value("ecache.ifetches"))
    e_misses = (_value("ecache.read_misses") + _value("ecache.write_misses")
                + _value("ecache.ifetch_misses"))
    metrics.gauge("ecache.miss_rate").set(
        e_misses / e_accesses if e_accesses else 0.0)


# -------------------------------------------------------------- aggregation
def merge_counter_snapshots(
        snapshots: Iterable[Mapping[str, SnapshotValue]]) -> Dict[str, int]:
    """Sum the counter entries of several snapshots into one total.

    Gauges and histograms are skipped (gauges must be re-derived from
    the summed counters via :func:`derived_from_counters`; histograms
    live in per-run traces, not cross-job totals).  Deterministic:
    output keys are sorted, values are order-independent sums.
    """
    totals: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            spec = CATALOG_BY_NAME.get(name)
            if spec is None or spec.kind != "counter":
                continue
            totals[name] = totals.get(name, 0) + int(value)
    return {name: totals[name] for name in sorted(totals)}


def derived_from_counters(
        counters: Mapping[str, int]) -> Dict[str, float]:
    """The catalogued derived gauges, computed from a counter mapping."""
    metrics = Metrics()
    for name, value in counters.items():
        spec = CATALOG_BY_NAME.get(name)
        if spec is not None and spec.kind == "counter":
            metrics.counter(name).inc(int(value))
    set_derived_gauges(metrics)
    return {name: gauge.value
            for name, gauge in sorted(metrics._gauges.items())}


@dataclasses.dataclass(frozen=True)
class ConsistencyIssue:
    """One accounting identity a metrics snapshot failed."""

    name: str       #: short identity id, e.g. "cpi-identity"
    message: str    #: human-readable explanation with both sides


def check_counter_consistency(
        counters: Mapping[str, int],
        analysis_cpi: Optional[float] = None) -> List[ConsistencyIssue]:
    """Audit the accounting identities a machine snapshot must satisfy.

    These are the cross-checks behind the bench campaign's gate
    (:func:`repro.harness.bench.gate`): the counter-derived CPI must
    equal the analysis
    module's CPI, stall cycles cannot exceed total cycles, retirement
    cannot exceed fetch, and the late-miss retry counter must equal the
    read+ifetch miss counters it is defined from.
    """
    def _value(name: str) -> int:
        return int(counters.get(name, 0))

    issues: List[ConsistencyIssue] = []
    retired = _value("pipeline.instructions.retired")
    cycles = _value("pipeline.cycles")
    if analysis_cpi is not None and retired:
        counter_cpi = cycles / retired
        if abs(counter_cpi - analysis_cpi) > 1e-9:
            issues.append(ConsistencyIssue(
                "cpi-identity",
                f"counter-derived CPI {counter_cpi!r} != analysis CPI "
                f"{analysis_cpi!r}"))
    stalls = (_value("pipeline.stall.icache_miss")
              + _value("pipeline.stall.ecache_late_miss"))
    if stalls > cycles:
        issues.append(ConsistencyIssue(
            "stall-bound", f"stall cycles {stalls} exceed total cycles "
                           f"{cycles}"))
    fetched = _value("pipeline.instructions.fetched")
    if retired + _value("pipeline.instructions.squashed") > fetched:
        issues.append(ConsistencyIssue(
            "retire-bound",
            f"retired+squashed {retired}+"
            f"{_value('pipeline.instructions.squashed')} exceed fetched "
            f"{fetched}"))
    if _value("pipeline.instructions.noops") > retired:
        issues.append(ConsistencyIssue(
            "noop-bound", "no-ops exceed retired instructions"))
    late = _value("ecache.late_miss.retries")
    expected_late = (_value("ecache.read_misses")
                     + _value("ecache.ifetch_misses"))
    if late != expected_late:
        issues.append(ConsistencyIssue(
            "late-miss-identity",
            f"ecache.late_miss.retries {late} != read+ifetch misses "
            f"{expected_late}"))
    return issues

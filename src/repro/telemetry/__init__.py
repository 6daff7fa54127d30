"""Unified observability: metric registry, cycle tracer, Perfetto export.

The observability pillar of the repo (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.telemetry.catalog` -- the audited catalog of every metric
  name, its unit, and the paper table/claim it feeds;
* :mod:`repro.telemetry.metrics` -- counters/gauges/histograms, the
  :func:`collect_machine` harvest of a run into catalogued names, and
  the accounting-identity checks behind the bench campaign's gate
  (:func:`repro.harness.bench.gate`);
* :mod:`repro.telemetry.tracer` -- the ring-buffer cycle tracer that
  records instruction lifecycles per pipestage and stall spans;
* :mod:`repro.telemetry.perfetto` -- Chrome/Perfetto ``trace_event``
  JSON export for ``ui.perfetto.dev``.

Everything is opt-in and external to the machine's hot loop: with no
telemetry attached, the simulator runs the exact code it always did.
"""

from repro.telemetry.catalog import (CATALOG, CATALOG_BY_NAME, MetricSpec,
                                     spec_for)
from repro.telemetry.metrics import (ConsistencyIssue, Counter, Gauge,
                                     Histogram, Metrics,
                                     check_counter_consistency,
                                     collect_machine, collect_multi,
                                     derived_from_counters,
                                     merge_counter_snapshots,
                                     set_derived_gauges)
from repro.telemetry.perfetto import (jit_trace_events, multi_trace_events,
                                      trace_events, translate_span_events,
                                      validate_trace_events, write_jit_trace,
                                      write_multi_trace, write_trace)
from repro.telemetry.tracer import STAGES, CycleTracer, FlightTrace

__all__ = [
    "CATALOG", "CATALOG_BY_NAME", "MetricSpec", "spec_for",
    "ConsistencyIssue", "Counter", "Gauge", "Histogram", "Metrics",
    "check_counter_consistency", "collect_machine", "collect_multi",
    "derived_from_counters", "merge_counter_snapshots",
    "set_derived_gauges",
    "jit_trace_events", "multi_trace_events", "trace_events",
    "translate_span_events", "validate_trace_events", "write_jit_trace",
    "write_multi_trace", "write_trace",
    "STAGES", "CycleTracer", "FlightTrace",
]

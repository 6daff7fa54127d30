"""The observability layer: registry, harvest, tracer, export, gate.

Five claims are pinned here, mirroring ``tests/test_decode_memo.py``'s
equivalence style for the zero-overhead argument:

* the ``Metrics`` registry is strict -- uncatalogued names and kind
  mismatches are bugs, not silent new time series;
* ``collect_machine`` reports only catalogued names, covers every
  counter the components keep, and is a pure read (harvesting twice,
  or not at all, never changes a run's architectural results);
* attaching a :class:`~repro.telemetry.tracer.CycleTracer` is
  architecturally invisible: a traced run retires the same cycles,
  stats, and register state as an untraced one, while the ring buffers
  stay bounded;
* the Perfetto export validates against its own schema checker and the
  checker rejects malformed events;
* harness aggregation is deterministic -- a parallel sweep and a serial
  sweep build byte-identical ``metrics`` sections of the bench report
  -- and the bench campaign's gate catches every tampering mode (bent
  analysis CPI, hand-edited gauges, broken counter identities, missing
  sections).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core import Machine
from repro.telemetry import (CATALOG, CATALOG_BY_NAME, CycleTracer, Metrics,
                             check_counter_consistency,
                             derived_from_counters, merge_counter_snapshots,
                             trace_events, validate_trace_events, write_trace)
from repro.workloads import get

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _machine(config=None) -> Machine:
    from repro.analysis.cpi import scaled_memory_config

    machine = Machine(config or scaled_memory_config())
    machine.load_program(get("fib").program())
    return machine


# --------------------------------------------------------------- registry
class TestRegistryStrictness:
    def test_uncatalogued_name_is_rejected(self):
        with pytest.raises(KeyError, match="not in the catalog"):
            Metrics().counter("pipeline.totally_made_up")

    def test_kind_mismatch_is_rejected(self):
        with pytest.raises(TypeError, match="catalogued as a counter"):
            Metrics().gauge("pipeline.cycles")

    def test_non_strict_allows_scratch_names(self):
        scratch = Metrics(strict=False)
        scratch.counter("scratch.anything").inc()
        assert scratch.snapshot()["scratch.anything"] == 1

    def test_catalog_names_are_unique_and_kinded(self):
        assert len(CATALOG) == len(CATALOG_BY_NAME)
        assert {spec.kind for spec in CATALOG} <= {
            "counter", "gauge", "histogram"}


# ---------------------------------------------------------------- harvest
class TestCollectMachine:
    def test_snapshot_names_are_all_catalogued(self):
        machine = _machine()
        machine.run()
        snapshot = machine.metrics().snapshot()
        assert snapshot
        for name in snapshot:
            assert name in CATALOG_BY_NAME, name

    def test_every_catalogued_counter_is_reported(self):
        machine = _machine()
        machine.run()
        snapshot = machine.metrics().snapshot()
        # multi.* counters come from the MultiMachine harvest
        # (collect_multi) and checkpoint.* from whoever saves snapshots
        # (perfbench's os-boot workload) -- not from a single machine
        counters = {spec.name for spec in CATALOG
                    if spec.kind == "counter"
                    and not spec.name.startswith(("multi.",
                                                  "checkpoint."))}
        assert counters <= set(snapshot)

    def test_collect_multi_reports_every_catalogued_counter(self):
        from repro.multi import MultiMachine
        from repro.workloads.parallel import parallel_program

        system = MultiMachine(2)
        system.load_program(parallel_program("pring", 2, 8))
        system.run(2_000_000)
        assert system.all_halted
        snapshot = system.metrics().snapshot()
        # checkpoint.* counters are the snapshot writer's, not the system's
        counters = {spec.name for spec in CATALOG
                    if spec.kind == "counter"
                    and not spec.name.startswith("checkpoint.")}
        assert counters <= set(snapshot)
        for name in snapshot:
            assert name in CATALOG_BY_NAME, name
        assert snapshot["multi.nodes"] == 2
        assert snapshot["multi.cycles"] == system.cycles
        assert (snapshot["multi.bus.acquisitions"]
                == system.bus.acquisitions)

    def test_harvest_is_a_pure_read(self):
        machine = _machine()
        machine.run()
        stats_before = dataclasses.asdict(machine.stats)
        first = machine.metrics().snapshot()
        second = machine.metrics().snapshot()
        assert first == second
        assert dataclasses.asdict(machine.stats) == stats_before

    def test_counter_cpi_equals_analysis_cpi(self):
        from repro.analysis.cpi import measure_with_metrics, \
            scaled_memory_config

        breakdown, metrics = measure_with_metrics(
            "fib", scaled_memory_config())
        snapshot = metrics.snapshot()
        counters = {k: v for k, v in snapshot.items()
                    if isinstance(v, int)}
        assert check_counter_consistency(counters, breakdown.cpi) == []
        assert snapshot["pipeline.cpi"] == pytest.approx(breakdown.cpi)


# ----------------------------------------------------------------- tracer
class TestTracerInvisibility:
    def test_traced_run_is_architecturally_identical(self):
        untraced = _machine()
        untraced.run()

        traced = _machine()
        tracer = CycleTracer(traced)
        tracer.run()

        assert traced.halted and untraced.halted
        assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
            untraced.stats)
        assert list(traced.regs) == list(untraced.regs)

    def test_untraced_machine_has_no_tracer_state(self):
        # the zero-overhead contract: a machine nobody traces carries no
        # telemetry hook beyond the (None) trace sink it always had
        machine = _machine()
        assert machine.pipeline.trace is None
        machine.run()
        assert machine.pipeline.trace is None

    def test_ring_buffers_respect_capacity(self):
        machine = _machine()
        tracer = CycleTracer(machine, capacity=16)
        tracer.run()
        assert machine.halted
        assert len(tracer.records) <= 16
        assert len(tracer.stall_spans) <= 16
        assert machine.stats.retired > 16     # it genuinely wrapped

    def test_minimum_lifetime_is_the_pipe_depth(self):
        machine = _machine()
        metrics = Metrics()
        tracer = CycleTracer(machine, metrics=metrics)
        tracer.run()
        lifetimes = [record.lifetime for record in tracer.records
                     if record.lifetime]
        assert lifetimes and min(lifetimes) >= 5   # IF..WB, Figure 1

    def test_stall_spans_match_stall_counters(self):
        machine = _machine()
        tracer = CycleTracer(machine)
        tracer.run()
        by_kind = {"icache_miss": 0, "ecache_late_miss": 0}
        for kind, start, end in tracer.stall_spans:
            by_kind[kind] += end - start + 1
        assert by_kind["icache_miss"] == machine.stats.icache_stall_cycles
        assert by_kind["ecache_late_miss"] == \
            machine.stats.data_stall_cycles


# ---------------------------------------------------------------- perfetto
class TestPerfettoExport:
    @pytest.fixture(scope="class")
    def payload(self):
        machine = _machine()
        tracer = CycleTracer(machine)
        tracer.run()
        return trace_events(tracer)

    def test_schema_is_valid(self, payload):
        assert validate_trace_events(payload) == []

    def test_tracks_cover_stages_and_stalls(self, payload):
        tids = {event["tid"] for event in payload["traceEvents"]}
        assert {1, 2, 3, 4, 5} <= tids       # the five pipestages
        assert 6 in tids                     # fib cold-misses the Icache

    def test_validator_rejects_malformed_events(self, payload):
        broken = json.loads(json.dumps(payload))
        del broken["traceEvents"][0]["ph"]
        broken["traceEvents"][1]["ts"] = "yesterday"
        problems = validate_trace_events(broken)
        assert any("ph" in problem for problem in problems)
        assert any("ts" in problem for problem in problems)
        assert validate_trace_events({"traceEvents": []})

    def test_write_trace_roundtrips(self, tmp_path):
        machine = _machine()
        tracer = CycleTracer(machine, capacity=256)
        tracer.run()
        out = tmp_path / "trace.json"
        write_trace(out, tracer)
        loaded = json.loads(out.read_text())
        assert validate_trace_events(loaded) == []
        names = {event["name"] for event in loaded["traceEvents"]}
        assert "process_name" in names       # metadata made it through


# ------------------------------------------------- aggregation determinism
def _cpi_results(parallel: bool):
    from repro.harness.runner import Job, Runner
    from repro.harness.experiments import _POINT_FNS

    jobs = [Job(id=f"cpi/{name}", fn=_POINT_FNS["workload-cpi"],
                params={"name": name}, sweep="workload-cpi")
            for name in ("fib", "listops")]
    return Runner(max_workers=2).run(jobs, parallel=parallel)


class TestAggregationDeterminism:
    def test_serial_and_parallel_summaries_are_byte_identical(self):
        from repro.harness.bench import build_metrics_summary

        serial = build_metrics_summary(_cpi_results(parallel=False))
        parallel = build_metrics_summary(_cpi_results(parallel=True))
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
        assert serial["workloads"] == ["fib", "listops"]
        assert _gate_metrics(serial) == []

    def test_totals_are_sums_and_gauges_rederive(self):
        from repro.harness.bench import build_metrics_summary

        summary = build_metrics_summary(_cpi_results(parallel=False))
        snapshots = list(summary["per_workload"].values())
        assert summary["totals"] == merge_counter_snapshots(snapshots)
        assert summary["derived"] == derived_from_counters(
            summary["totals"])


def _gate_metrics(summary):
    """The bench gate's messages for the committed ``BENCH_pipeline.json``
    with ``summary`` as its ``metrics`` section."""
    from repro.harness import bench

    payload = json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())
    payload["metrics"] = summary
    return [failure.message for failure in bench.gate(payload)]


# -------------------------------------------------------- bench gate failures
class TestMetricsFileGate:
    @pytest.fixture(scope="class")
    def summary(self):
        from repro.harness.bench import build_metrics_summary

        return build_metrics_summary(_cpi_results(parallel=False))

    def test_clean_summary_passes(self, summary):
        assert _gate_metrics(summary) == []

    def test_missing_file_and_bad_json_fail(self, tmp_path):
        from repro.tools.check_results import check_campaign_file

        assert check_campaign_file("bench", tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert any("not valid JSON" in msg
                   for msg in check_campaign_file("bench", bad))

    def test_bent_analysis_cpi_fails_the_identity(self, summary):
        tampered = json.loads(json.dumps(summary))
        tampered["analysis"]["fib"]["cpi"] += 0.1
        failures = _gate_metrics(tampered)
        assert any("fib" in msg and "cpi" in msg.lower()
                   for msg in failures)

    def test_hand_edited_gauge_fails(self, summary):
        tampered = json.loads(json.dumps(summary))
        tampered["derived"]["pipeline.cpi"] = 1.0
        failures = _gate_metrics(tampered)
        assert any("derived" in msg for msg in failures)

    def test_broken_counter_identity_fails(self, summary):
        tampered = json.loads(json.dumps(summary))
        tampered["totals"]["ecache.late_miss.retries"] += 5
        failures = _gate_metrics(tampered)
        assert any("late" in msg for msg in failures)

    def test_missing_section_is_named(self, summary):
        tampered = json.loads(json.dumps(summary))
        del tampered["totals"]
        failures = _gate_metrics(tampered)
        assert any("'totals'" in msg for msg in failures)

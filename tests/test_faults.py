"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the four layers of the tentpole:

* the :class:`FaultPlan` DSL -- deterministic across processes, events
  inside the warmup/horizon window, exception events spaced;
* the injection primitives on the machine models -- Icache valid/tag
  corruption preserves the structural invariants the cache relies on,
  forced Ecache misses and coprocessor busy stalls are consumed;
* the differential invariant checker -- fixed-seed campaign verdicts are
  pinned as a regression surface, and **negative** tests prove the
  checker actually catches divergence, squashed commits, and
  non-termination when a fault escapes the model;
* the campaign driver -- aggregation, report writing, exit semantics.
"""

import json
import random

import pytest

from repro.core import Machine, MachineConfig
from repro.core.config import IcacheConfig
from repro.faults import build_plan, run_differential
from repro.faults.inject import FaultInjector
from repro.faults.invariants import (WritebackAudit, differential_for_seed,
                                     golden_run)
from repro.faults.plan import (EVENT_KINDS, FAULT_CLASSES, WARMUP_CYCLES,
                               FaultEvent, FaultPlan)
from repro.faults.workloads import CLASS_WORKLOADS, fault_program
from repro.icache.cache import Icache, contents_invariants

#: golden cycle counts of the fault workloads -- a change here means the
#: workloads (and every pinned verdict below) shifted
GOLDEN_CYCLES = {"sum": 407, "mix": 596, "coproc": 171}

#: pinned verdicts for the quick campaign grid (seed -> rotating class):
#: (status, exceptions_taken).  These are the paper's guarantees holding
#: under fault: every class is absorbed, injected exceptions are taken.
PINNED_VERDICTS = {
    0: ("icache-valid", "absorbed", 0),
    1: ("icache-tag", "absorbed", 0),
    2: ("ecache-storm", "absorbed", 0),
    3: ("parity-nmi", "absorbed", 1),
    4: ("spurious-irq", "absorbed", 1),
    5: ("coproc-busy", "absorbed", 0),
    6: ("overflow-storm", "absorbed", 1),
    7: ("mixed", "absorbed", 1),
}


# ------------------------------------------------------------- plan DSL
class TestFaultPlan:
    def test_plans_are_deterministic(self):
        for fault_class in FAULT_CLASSES:
            first = build_plan(3, fault_class, horizon=500)
            again = build_plan(3, fault_class, horizon=500)
            assert first == again
        assert (build_plan(3, "mixed", horizon=500)
                != build_plan(4, "mixed", horizon=500))

    def test_events_land_inside_the_window(self):
        for seed in range(16):
            plan = build_plan(seed, "mixed", horizon=400)
            assert plan.events, "a plan must schedule at least one event"
            for event in plan.events:
                assert event.cycle >= WARMUP_CYCLES
                assert event.kind in EVENT_KINDS

    def test_exception_events_are_spaced(self):
        exception_kinds = {"parity-nmi", "spurious-irq", "overflow"}
        for seed in range(32):
            plan = build_plan(seed, "mixed", horizon=2000)
            cycles = sorted(e.cycle for e in plan.events
                            if e.kind in exception_kinds)
            for a, b in zip(cycles, cycles[1:]):
                assert b - a >= 64

    def test_budget_scales_with_intensity(self):
        light = FaultPlan(0, "ecache-storm", 400, (
            FaultEvent(100, "ecache-forced-miss", (("count", 1),)),))
        heavy = FaultPlan(0, "ecache-storm", 400, (
            FaultEvent(100, "ecache-forced-miss", (("count", 12),)),))
        assert heavy.cycle_budget() > light.cycle_budget()

    def test_rejects_unknown_class_and_tiny_horizon(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            build_plan(0, "cosmic-ray", horizon=400)
        with pytest.raises(ValueError, match="warmup"):
            build_plan(0, "mixed", horizon=WARMUP_CYCLES)


# ------------------------------------------------- injection primitives
class TestInjectionPrimitives:
    def _warm_cache(self):
        cache = Icache(IcacheConfig())
        for address in range(512):
            cache.fetch(address)
        return cache

    def test_valid_flips_preserve_invariants(self):
        cache = self._warm_cache()
        rng = random.Random(7)
        flipped = cache.inject_valid_flips(rng, count=8)
        assert flipped > 0
        assert all(contents_invariants(cache).values())

    def test_tag_corruption_preserves_invariants(self):
        for seed in range(8):
            cache = self._warm_cache()
            corrupted = cache.inject_tag_corruption(random.Random(seed),
                                                    count=3)
            assert corrupted > 0
            assert all(contents_invariants(cache).values())

    def test_injector_fires_each_event_once(self):
        plan = build_plan(1, "ecache-storm", horizon=400)
        machine = Machine(MachineConfig())
        machine.load_program(fault_program("sum"))
        machine.set_fault_hook(FaultInjector(plan))
        machine.run(50_000)
        assert machine.halted
        summary = machine.pipeline.fault_hook.summary()
        assert summary["events_applied"] == summary["events_planned"]
        assert machine.ecache.fault_forced_events > 0
        # forced misses are consumed, never left armed past the run
        assert machine.ecache.fault_forced_misses == 0

    def test_fault_hook_is_off_by_default(self):
        machine = Machine(MachineConfig())
        assert machine.pipeline.fault_hook is None


# --------------------------------------------- differential checker: +
class TestDifferentialChecker:
    def test_golden_cycle_counts_are_stable(self):
        for workload, cycles in GOLDEN_CYCLES.items():
            assert golden_run(workload).stats.cycles == cycles

    @pytest.mark.parametrize("seed", sorted(PINNED_VERDICTS))
    def test_pinned_campaign_verdicts(self, seed):
        fault_class, status, exceptions = PINNED_VERDICTS[seed]
        assert fault_class == FAULT_CLASSES[seed % len(FAULT_CLASSES)]
        report = differential_for_seed(seed, fault_class, max_events=3)
        assert report.status == status, report.violations
        assert report.exceptions_taken == exceptions
        assert report.handler_count == exceptions
        assert 0 <= report.faulted_cycles - report.golden_cycles
        assert (report.faulted_cycles
                <= report.golden_cycles + report.cycle_budget)

    def test_every_class_has_a_workload(self):
        assert set(CLASS_WORKLOADS) == set(FAULT_CLASSES)
        for workload in set(CLASS_WORKLOADS.values()):
            assert workload in GOLDEN_CYCLES


# --------------------------------------------- differential checker: -
class _Saboteur(FaultInjector):
    """An injector whose fault escapes the fault model: it corrupts
    architectural state directly.  The checker must not absorb it."""

    def __init__(self, plan, corrupt_at):
        super().__init__(plan)
        self.corrupt_at = corrupt_at
        self._done = False

    def on_cycle(self, pipeline):
        super().on_cycle(pipeline)
        # >= not ==: the bulk-stall fast path may jump the cycle counter
        if not self._done and pipeline.stats.cycles >= self.corrupt_at:
            self._done = True
            pipeline.regs.write(20, 0xBAD)


class _Wedger(FaultInjector):
    """An injector that wedges the pipeline: the late-miss/termination
    bound must flag the run instead of spinning forever."""

    def on_cycle(self, pipeline):
        super().on_cycle(pipeline)
        pipeline._stall_left = max(pipeline._stall_left, 4)


class TestCheckerCatchesViolations:
    def test_state_divergence_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            "repro.faults.invariants.FaultInjector",
            lambda plan: _Saboteur(plan, corrupt_at=300))
        plan = build_plan(0, "icache-valid", horizon=407)
        report = run_differential(plan, "sum")
        assert report.status == "violated"
        kinds = {v["kind"] for v in report.violations}
        assert "state-divergence" in kinds
        assert any("r20" in v["detail"] for v in report.violations)

    def test_non_termination_is_caught(self, monkeypatch):
        monkeypatch.setattr("repro.faults.invariants.FaultInjector",
                            _Wedger)
        plan = build_plan(0, "icache-valid", horizon=407)
        report = run_differential(plan, "sum")
        assert report.status == "violated"
        assert {v["kind"] for v in report.violations} == {"no-termination"}

    def test_squashed_commit_is_caught(self):
        # Audit-level negative: a writeback implementation that lets a
        # squashed instruction commit must be flagged.
        from repro.core.pipeline import Flight
        from repro.core.predecode import decode_word
        from repro.isa.encoding import encode
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Funct, Opcode

        machine = Machine(MachineConfig())
        pipeline = machine.pipeline
        audit = WritebackAudit(pipeline)
        flight = Flight(0x40, decode_word(encode(
            Instruction(Opcode.COMPUTE, funct=Funct.ADD))))
        flight.squashed = True
        flight.dest = 20
        flight.result = 0xBEEF

        def leaky_writeback(fl):
            if fl is not None and fl.dest:
                pipeline.regs.write(fl.dest, fl.result)

        audit._original = leaky_writeback
        pipeline._writeback(flight)
        assert audit.violations == [
            {"pc": 0x40, "register": 20, "before": 0, "after": 0xBEEF}]

    def test_honest_writeback_passes_audit(self):
        machine = Machine(MachineConfig())
        machine.load_program(fault_program("sum"))
        audit = WritebackAudit(machine.pipeline)
        machine.run(50_000)
        assert machine.halted
        assert audit.violations == []


# ------------------------------------------------------ campaign driver
class TestCampaign:
    def test_serial_campaign_report(self, tmp_path):
        from repro.faults.campaign import run_campaign

        output = tmp_path / "campaign.json"
        payload = run_campaign(seeds=4, quick=True, parallel=False,
                               output=output)
        assert payload["summary"]["runs"] == 4
        assert payload["summary"]["unhandled_jobs"] == 0
        assert payload["summary"]["violated"] == 0
        on_disk = json.loads(output.read_text())
        assert on_disk["schema"] == 1
        assert set(on_disk["classes"]) == set(FAULT_CLASSES[:4])
        for row in on_disk["harness"].values():
            assert row["status"] == "ok"

    def test_campaign_jobs_grid(self):
        from repro.faults.campaign import campaign_jobs
        from repro.harness.runner import resolve

        jobs = campaign_jobs(16, quick=True)
        ids = [j.id for j in jobs]
        assert len(set(ids)) == len(ids) == 16
        classes = {j.params["fault_class"] for j in jobs}
        assert classes == set(FAULT_CLASSES)
        for job in jobs:
            assert callable(resolve(job.fn))
            assert job.params["max_events"] == 3


class TestOptionErrors:
    """A seed count below one is an ``error:`` line and exit 1, before
    any job runs and without a report -- never a campaign that held."""

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    @pytest.mark.parametrize("multi_nodes", ["0", "2"])
    def test_rejected_before_any_job_runs(self, seeds, multi_nodes,
                                          tmp_path, monkeypatch, capsys):
        from repro.faults import campaign as faults_campaign
        from repro.tools import cli

        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(faults_campaign.Runner, "run", no_job)
        output = tmp_path / "faults.json"
        code = cli.main(["campaign", "faults", "--seeds", seeds, "--quick",
                         "--serial", "--multi-nodes", multi_nodes,
                         "--output", str(output)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"seeds must be at least 1, got {seeds}" in err
        assert not output.exists()

    @pytest.mark.parametrize("multi_nodes", ["1", "-2"])
    def test_multi_nodes_below_two_rejected(self, multi_nodes, tmp_path,
                                            monkeypatch, capsys):
        """``--multi-nodes 1`` leaves no other node to stay golden, and a
        negative count no node to fault: both are option errors."""
        from repro.faults import campaign as faults_campaign
        from repro.tools import cli

        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(faults_campaign.Runner, "run", no_job)
        output = tmp_path / "faults.json"
        code = cli.main(["campaign", "faults", "--seeds", "2", "--quick",
                         "--serial", "--multi-nodes", multi_nodes,
                         "--output", str(output)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (f"multi-nodes must be 0 (off) or at least 2, got "
                f"{multi_nodes}") in err
        assert not output.exists()

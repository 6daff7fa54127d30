"""Tests for the analysis/experiment machinery, on small subsets: the
full-suite studies are rows of the bench report (``repro campaign
bench``)."""

import pytest

from repro.analysis.area import (
    fsm_area_fraction,
    icache_fraction,
    icache_size_tradeoff,
    transistor_budget,
)
from repro.analysis.branch_schemes import evaluate_scheme, table1_rows
from repro.analysis.common import (
    conditional_plans_by_index,
    profiled_result,
    run_measured,
    workload_branch_counts,
)
from repro.analysis.cpi import measure, scaled_memory_config
from repro.analysis.prediction import (
    branch_cache,
    static_btfn,
    static_profile,
)
from repro.analysis.quick_compare import classify_branches
from repro.analysis.vax import VaxEstimator, compare_workload
from repro.coproc.schemes import evaluate_schemes, mix_from_machine, schemes
from repro.lang.parser import parse_program
from repro.reorg.delay_slots import MIPSX_SCHEME
from repro.traces.capture import BranchEvent
from repro.workloads import get


class TestCommon:
    def test_profiled_result_is_cached(self):
        a = profiled_result("fib")
        b = profiled_result("fib")
        assert a is b

    def test_branch_counts_consistent_with_plans(self):
        counts = dict(workload_branch_counts("fib"))
        plans = conditional_plans_by_index(profiled_result("fib"))
        # branch indices count every branch-format op (including the
        # always-taken `br` pseudo-jumps); only the truly conditional ones
        # carry plans, and every plan's index must exist in the profile
        assert set(plans) <= set(counts)
        assert plans, "fib has at least one conditional branch"
        for plan in plans.values():
            assert plan.conditional

    def test_run_measured_reuses_profiled_build(self):
        machine = run_measured("fib")
        assert machine.halted
        assert machine.console.values == [610]


class TestBranchSchemes:
    def test_single_workload_evaluation(self):
        evaluation = evaluate_scheme(MIPSX_SCHEME, ["fib"])
        assert evaluation.executions > 0
        assert 1.0 <= evaluation.cycles_per_branch <= 3.0

    def test_rows_cover_all_six_schemes(self):
        rows = table1_rows(["fib"])
        assert len(rows) == 6
        names = [name for name, _ in rows]
        assert "2-slot squash optional" in names

    def test_no_squash_never_cheaper_than_optional(self):
        rows = dict(table1_rows(["sieve", "fib"]))
        assert rows["2-slot squash optional"] <= rows["2-slot no squash"]
        assert rows["1-slot squash optional"] <= rows["1-slot no squash"]


class TestPrediction:
    EVENTS = [
        BranchEvent(pc=10, taken=True, target=5),    # backward taken
        BranchEvent(pc=10, taken=True, target=5),
        BranchEvent(pc=10, taken=False, target=5),
        BranchEvent(pc=20, taken=False, target=30),  # forward not taken
        BranchEvent(pc=20, taken=True, target=30),
    ]

    def test_btfn(self):
        result = static_btfn(self.EVENTS)
        # wrong on: pc10 third (backward predicted taken, was not) and
        # pc20 second (forward predicted not-taken, was taken)
        assert result.mispredictions == 2

    def test_profile(self):
        result = static_profile(self.EVENTS)
        # majority: pc10 taken (wrong once), pc20 tie -> taken (wrong once)
        assert result.mispredictions == 2

    def test_branch_cache_capacity(self):
        events = []
        for round_ in range(3):
            for pc in range(40):
                events.append(BranchEvent(pc=pc, taken=True, target=0))
        big = branch_cache(events, entries=64)
        small = branch_cache(events, entries=4)
        assert big.mispredictions < small.mispredictions
        # with capacity, only the cold first round mispredicts
        assert big.mispredictions == 40

    def test_not_taken_branch_evicted(self):
        events = [BranchEvent(1, True, 0), BranchEvent(1, False, 0),
                  BranchEvent(1, False, 0)]
        result = branch_cache(events, entries=8)
        # miss, then hit-but-wrong, then correctly predicted not-taken
        assert result.mispredictions == 2


class TestQuickCompare:
    def test_classification_totals(self):
        stats = classify_branches("fib")
        classified = (stats.equality + stats.sign_test
                      + stats.near_sign_test + stats.ordered_reg)
        assert classified == stats.total
        assert 0.0 <= stats.quick_fraction <= 1.0
        assert stats.quick_fraction_strict <= stats.quick_fraction


class TestCpi:
    def test_measure_decomposition(self):
        breakdown = measure("fib", scaled_memory_config())
        assert breakdown.cpi == pytest.approx(
            breakdown.base_cpi + breakdown.memory_overhead_cpi)
        assert breakdown.sustained_mips == pytest.approx(
            20.0 / breakdown.cpi)
        assert breakdown.peak_bandwidth_mwords == 40.0

    def test_scaled_config_shape(self):
        config = scaled_memory_config(icache_words=48, ecache_words=128)
        assert config.icache.total_words == 48
        assert config.ecache.size_words == 128


class TestVax:
    def test_estimator_is_a_correct_interpreter(self):
        """The VAX model re-executes SPL and must compute the same
        answers (console trail) as the compiled code."""
        workload = get("sieve")
        tree = parse_program(workload.source)
        measurement = VaxEstimator(tree).run()
        assert measurement.console == [303]
        assert measurement.instructions > 0
        assert measurement.cycles > measurement.instructions  # multi-cycle

    def test_comparison_shape(self):
        comparison = compare_workload("fib")
        assert comparison.path_length_ratio > 1.0
        assert comparison.speedup > 3.0
        assert comparison.vax.console == [610]

    def test_fp_workload_rejected(self):
        with pytest.raises(ValueError):
            compare_workload("fp_dot")


class TestArea:
    def test_budget_matches_paper_facts(self):
        budget = transistor_budget()
        assert 120_000 < budget.total < 190_000
        assert 0.6 < icache_fraction(budget) < 0.72
        assert fsm_area_fraction(budget) < 0.002

    def test_budget_scales_with_cache(self):
        from repro.core import MachineConfig

        small = MachineConfig()
        small.icache.sets = 2
        assert transistor_budget(small).total < transistor_budget().total

    def test_size_tradeoff_fits_flag(self):
        trace = list(range(2000)) * 3
        points = icache_size_tradeoff(trace, sizes=(256, 512, 1024))
        by_words = {p.words: p for p in points}
        assert by_words[512].fits_paper_die
        assert not by_words[1024].fits_paper_die


class TestCoprocSchemes:
    def test_four_schemes(self):
        assert len(schemes()) == 4
        names = [s.name for s in schemes()]
        assert "address-line interface (final)" in names

    def test_final_scheme_is_reference(self):
        machine = run_measured("fp_dot")
        mix = mix_from_machine("fp_dot", machine)
        outcomes = evaluate_schemes(mix)
        final = [o for o in outcomes
                 if o.scheme.name.startswith("address-line")][0]
        assert final.relative_performance == pytest.approx(1.0)
        non_cached = [o for o in outcomes if not o.scheme.cacheable][0]
        assert non_cached.relative_performance < final.relative_performance

    def test_overheads_scale_with_fp_intensity(self):
        machine = run_measured("fp_dot")
        mix = mix_from_machine("fp_dot", machine)
        lighter = type(mix)(name="lighter", instructions=mix.instructions,
                            base_cycles=mix.base_cycles,
                            coproc_ops=mix.coproc_ops // 4,
                            fp_memory_ops=mix.fp_memory_ops // 4)
        heavy = evaluate_schemes(mix)[2]      # non-cached
        light = evaluate_schemes(lighter)[2]
        assert heavy.overhead_fraction > light.overhead_fraction

"""Experiment machinery for every table and figure (see DESIGN.md)."""

from repro.analysis.area import (
    AreaBudget,
    fsm_area_fraction,
    icache_fraction,
    icache_size_tradeoff,
    transistor_budget,
)
from repro.analysis.branch_schemes import (
    PAPER_TABLE1,
    SchemeEvaluation,
    evaluate_scheme,
    table1,
    table1_rows,
)
from repro.analysis.common import (
    naive_unit,
    profiled_result,
    run_measured,
    workload_branch_counts,
    workload_profile,
)
from repro.analysis.cpi import (
    CpiBreakdown,
    SuiteSummary,
    measure,
    noop_fractions,
    scaled_memory_config,
    suite,
)
from repro.analysis.multiprogramming import (
    collect_workload_traces,
    quantum_sweep,
    warm_miss_ratio,
)
from repro.analysis.prediction import (
    PredictionStudy,
    branch_cache,
    collect_branch_events,
    run_study,
    static_btfn,
    static_profile,
)
from repro.analysis.quick_compare import (
    BranchConditionStats,
    classify_branches,
    suite_stats,
)
from repro.analysis.vax import (
    Comparison,
    VaxEstimator,
    compare_suite,
    compare_workload,
)

__all__ = [
    "AreaBudget",
    "BranchConditionStats",
    "Comparison",
    "CpiBreakdown",
    "PAPER_TABLE1",
    "PredictionStudy",
    "SchemeEvaluation",
    "SuiteSummary",
    "VaxEstimator",
    "branch_cache",
    "classify_branches",
    "collect_branch_events",
    "collect_workload_traces",
    "compare_suite",
    "compare_workload",
    "evaluate_scheme",
    "fsm_area_fraction",
    "icache_fraction",
    "icache_size_tradeoff",
    "measure",
    "naive_unit",
    "noop_fractions",
    "profiled_result",
    "quantum_sweep",
    "run_measured",
    "run_study",
    "scaled_memory_config",
    "static_btfn",
    "static_profile",
    "suite",
    "suite_stats",
    "table1",
    "table1_rows",
    "transistor_budget",
    "warm_miss_ratio",
    "workload_branch_counts",
    "workload_profile",
]

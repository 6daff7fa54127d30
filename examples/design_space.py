#!/usr/bin/env python3
"""Re-run the paper's key design tradeoffs in one sitting.

Three of the decisions the paper spends sections on, each as a quick
design-space exploration using the library's analysis machinery:

1. branch schemes (Table 1) on a subset of the Pascal suite;
2. Icache fetch-back count and miss service time;
3. the coprocessor interface candidates on a measured FP mix.
"""

from repro.analysis.branch_schemes import PAPER_TABLE1, table1
from repro.analysis.common import run_measured
from repro.coproc.schemes import comparison_rows, mix_from_machine
from repro.icache.explorer import fetchback_study, service_time_study
from repro.traces.synthetic import paper_regime_program


def print_table(headers, rows, title):
    """Print a titled table, one tab-separated line per row."""
    print(title)
    print("=" * len(title))
    for row in [headers] + [list(row) for row in rows]:
        print("\t".join(str(cell) for cell in row))
    print()


# --- 1. branch schemes ------------------------------------------------------
SUBSET = ["fib", "sieve", "towers", "queens"]
rows = []
for evaluation in table1(SUBSET):
    name = evaluation.scheme.name
    rows.append((name, round(evaluation.cycles_per_branch, 2),
                 PAPER_TABLE1[name]))
print_table(["branch scheme", "cycles/branch", "paper"], rows,
            "Table 1 on a 4-workload subset")

# --- 2. instruction cache ---------------------------------------------------
trace = list(paper_regime_program().instruction_trace(200_000))
rows = [(r.label, round(r.miss_ratio, 3), round(r.fetch_cost, 3))
        for r in fetchback_study(trace)]
print_table(["fetch-back", "miss ratio", "fetch cost"], rows,
            "Fetch-back count (paper: 2 words ~halves the ratio)")
rows = [(r.label, round(r.miss_ratio, 3), round(r.fetch_cost, 3))
        for r in service_time_study(trace)]
print_table(["organization", "miss ratio", "fetch cost"], rows,
            "Service time beats organization")

# --- 3. coprocessor interface -----------------------------------------------
mix = mix_from_machine("fp_dot", run_measured("fp_dot"))
print_table(
    ["interface scheme", "extra pins", "relative perf", "cacheable"],
    comparison_rows([mix]),
    f"Coprocessor interfaces on fp_dot "
    f"({mix.fp_fraction:.0%} FP instructions)")
print("every table above is regenerated from scratch by this script; the")
print("full-suite versions are rows of BENCH_pipeline.json "
      "(python -m repro.tools.cli campaign bench)")

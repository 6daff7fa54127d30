"""E18 -- the instruction cache under multiprogramming.

Smith's trace-switching methodology (reference [15], the paper's source
for memory-system effects): interleaving the workload fetch traces every
Q references, the Icache miss ratio falls toward the warm no-switching
floor as the quantum grows.

The fetch-back, service-time and organization studies (E4/E5) are rows
of the bench report (``repro campaign bench``); its gate checks their
shapes and ``tests/test_experiments_doc.py`` their printed values.
"""


def _quantum_experiment():
    from repro.analysis.multiprogramming import (
        collect_workload_traces,
        quantum_sweep,
        warm_miss_ratio,
    )
    from repro.workloads import LISP_SUITE, PASCAL_SUITE

    names = list(PASCAL_SUITE) + list(LISP_SUITE)
    traces = collect_workload_traces(names)
    points = quantum_sweep(traces,
                           quanta=(250, 1000, 4000, 16000, 64000))
    return points, warm_miss_ratio(traces)


def test_multiprogramming_quantum_sweep(benchmark, report):
    """Task-switch interval vs miss ratio -- the Smith ([15]) methodology
    the paper used for its memory-system numbers: cold-start reloads
    dominate at small Q and amortize toward the warm floor at large Q."""
    report.name = "icache_multiprogramming"
    points, warm = benchmark.pedantic(_quantum_experiment, rounds=1,
                                      iterations=1)
    rows = [(p.quantum, round(p.miss_ratio, 4)) for p in points]
    rows.append(("no switching (warm)", round(warm, 4)))
    report.table(["switch quantum Q", "miss ratio"], rows,
                 "Multiprogramming: task-switch interval vs Icache miss "
                 "ratio (cold-start vs warm-start)")
    ratios = [p.miss_ratio for p in points]
    # reload cost amortizes monotonically with the quantum...
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    # ...approaching the warm floor, from far above it
    assert ratios[0] > 5 * warm
    assert ratios[-1] < 2.5 * warm

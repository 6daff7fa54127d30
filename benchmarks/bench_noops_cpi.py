"""E6 -- no-op fractions on the perfect-memory machine.

Paper result: 15.6% of Pascal instructions and 18.3% of Lisp
instructions are no-ops "due to unused branch delays or other pipeline
interlocks that cannot be optimized away" (Lisp is worse because of
jumps and the load-load interlocks of car/cdr chains).  The overall CPI
and throughput with memory overhead (E7) come from the bench report's
workload-cpi rows (``repro campaign bench``).
"""

from repro.analysis.cpi import suite
from repro.core import perfect_memory_config
from repro.workloads import LISP_SUITE, PASCAL_SUITE


def _noop_experiment():
    config = perfect_memory_config()
    pascal = suite(PASCAL_SUITE, config)
    lisp = suite(LISP_SUITE, config)
    return pascal, lisp


def test_noop_fractions(benchmark, report):
    report.name = "noop_fractions"
    pascal, lisp = benchmark.pedantic(_noop_experiment, rounds=1,
                                      iterations=1)
    rows = []
    for summary, label, paper in ((pascal, "Pascal", 0.156),
                                  (lisp, "Lisp", 0.183)):
        rows.append((label, round(summary.mean_noop_fraction, 3),
                     round(summary.noop_fraction, 3), paper))
    report.table(["suite", "no-op fraction (mean)", "(weighted)", "paper"],
                 rows, "E6: no-op fraction by suite")
    detail = [(b.name, round(b.noop_fraction, 3), round(b.cpi, 3))
              for b in pascal.breakdowns + lisp.breakdowns]
    report.table(["workload", "no-op fraction", "pipe-only CPI"], detail,
                 "Per-workload detail (perfect memory)")

    # shape: Lisp pays more for its load-load chains and jumps
    assert lisp.mean_noop_fraction > pascal.mean_noop_fraction
    # magnitudes near the paper's 15.6% / 18.3%
    assert 0.10 < pascal.mean_noop_fraction < 0.20
    assert 0.13 < lisp.mean_noop_fraction < 0.27

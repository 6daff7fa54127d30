"""Shared fixtures for the experiment benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints
it, and writes it under ``benchmarks/results/`` so EXPERIMENTS.md can be
checked against fresh numbers at any time.

Run with::

    pytest benchmarks/ --benchmark-only

Each derivation's numbers are the result; wall-clock timings of the
simulator are measured by perfbench (``BENCHMARK.json``), not here.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report():
    """Collects report text; prints and persists it at teardown."""

    class Reporter:
        def __init__(self):
            self.sections = []
            self.name = None

        def add(self, text: str) -> None:
            self.sections.append(text)

        def table(self, headers, rows, title="") -> None:
            from repro.analysis.reporting import format_table

            self.add(format_table(headers, rows, title))

    reporter = Reporter()
    yield reporter
    if reporter.sections:
        text = "\n\n".join(reporter.sections) + "\n"
        print("\n" + text)
        if reporter.name:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{reporter.name}.txt").write_text(text)

"""EXPERIMENTS.md's measured column, held to the committed bench report.

``repro campaign bench`` derives each paper number once, in the
``experiments`` rows and the ``metrics`` section of
``BENCH_pipeline.json``; its gate checks the paper's *shapes* on those
rows.  This module checks the other half: every measured cell of
EXPERIMENTS.md that the grid derives reads exactly what the committed
report gives at the cell's printed precision, and the report's values
sit in the paper's magnitude bands.  Editing a cell, or regenerating the
report to different numbers without editing the cells, fails here.
"""

import json
import pathlib
import re

from repro.analysis.branch_schemes import PAPER_TABLE1
from repro.coproc.schemes import schemes
from repro.core.config import MachineConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
REPORT = json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())
DOC = (REPO_ROOT / "EXPERIMENTS.md").read_text()

#: Table 1's scheme names -> the grid's ``squash`` names
SQUASH = {"no squash": "none", "always squash": "always",
          "squash optional": "optional"}


def _value(job_id):
    return REPORT["experiments"][job_id]["value"]


def _section(experiment):
    """The text of EXPERIMENTS.md's ``## <experiment> --`` section."""
    match = re.search(rf"^## {experiment} .*?(?=^## )", DOC, re.M | re.S)
    assert match, f"EXPERIMENTS.md has no '## {experiment}' section"
    return match.group(0)


def _table(experiment):
    """The body rows of the section's table: first cell -> other cells,
    each stripped of bold markers and of a trailing ``*(C)*``/``*(S)*``
    annotation."""
    rows = {}
    for line in _section(experiment).splitlines():
        if not line.startswith("|") or set(line) <= set("|- "):
            continue
        cells = [re.sub(r"\s*\*\([CS]\)\*$", "", cell.strip().replace("**",
                                                                      ""))
                 for cell in line.strip().strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def _percent(fraction, digits=1):
    return f"{100 * fraction:.{digits}f}%"


def _coproc_rows():
    return [_value(job_id) for job_id in sorted(REPORT["experiments"])
            if job_id.startswith("coproc/")]


def _mean_relative_performance(scheme):
    rows = _coproc_rows()
    return sum(row["schemes"][scheme]["relative_performance"]
               for row in rows) / len(rows)


def _suite():
    derived = REPORT["metrics"]["derived"]
    cpi = derived["pipeline.cpi"]
    return cpi, MachineConfig().clock_mhz / cpi, derived["icache.miss_rate"]


def _organizations():
    return [_value(job_id) for job_id in REPORT["experiments"]
            if job_id.startswith("icache/")
            and not job_id.startswith("icache/fetchback-")]


# ----------------------------------------------------------- printed cells
def test_e1_table1_rows():
    table = _table("E1")
    assert len(table) == 7          # the header and six schemes
    for scheme, squash in SQUASH.items():
        for slots in (1, 2):
            name = f"{slots}-slot {scheme}"
            cost = _value(f"branch/{slots}-slot-{squash}")
            assert table[name] == [f"{PAPER_TABLE1[name]:.1f}",
                                   f"{cost['cycles_per_branch']:.2f}"], name


def test_e4_fetchback_rows():
    table = _table("E4")
    one, two, three, four = (_value(f"icache/fetchback-{words}")
                             for words in (1, 2, 3, 4))
    ratio = two["miss_ratio"] / one["miss_ratio"]
    assert table["miss ratio, 1-word fetch-back"][1] == _percent(
        one["miss_ratio"])
    assert table["miss ratio, 2-word fetch-back"][1] == (
        f"{_percent(two['miss_ratio'])} ({ratio:.2f}× the 1-word ratio)")
    assert table["average instruction fetch cost"][1] == (
        f"{two['fetch_cost']:.2f} cycles")
    assert table["more fetch-back words"][1] == "3/4-word fetch cost ≥ 2-word"
    assert min(three["fetch_cost"], four["fetch_cost"]) >= two["fetch_cost"]


def test_e5_service_time_rows():
    table = _table("E5")
    paper = _value("icache/4set-8way-16w")
    best = min(row["miss_ratio"] for row in _organizations())
    ratio = paper["miss_ratio"]
    assert table["paper org (tags in datapath), 2-cycle miss"] == [
        f"{ratio:.3f}", f"{paper['fetch_cost']:.3f}"]
    assert table["same org, 3-cycle miss"] == [f"{ratio:.3f}",
                                               f"{1 + 3 * ratio:.3f}"]
    assert table["best-miss-ratio org in the whole 512-word design space, "
                 "3-cycle miss"] == [f"{best:.3f}", f"{1 + 3 * best:.3f}"]


def test_e7_suite_rows():
    table = _table("E7")
    cpi, mips, icache_miss = _suite()
    assert table["CPI with memory overhead"][1] == f"{cpi:.2f}"
    assert table["sustained throughput"][1] == f"{mips:.1f} MIPS"
    assert table["Icache miss rate in that regime"][1] == _percent(
        icache_miss)


def test_e12_fp_fractions_and_schemes():
    section = _section("E12")
    printed = dict(re.findall(r"(fp_\w+) (\d+)%", section))
    assert printed == {row["workload"]: f"{100 * row['fp_fraction']:.0f}"
                       for row in _coproc_rows()}
    table = list(_table("E12").values())[1:]
    assert len(table) == len(schemes())
    for (pins, performance), scheme in zip(table, schemes()):
        assert pins == str(scheme.extra_pins), scheme.name
        assert performance == (
            f"{_mean_relative_performance(scheme.name):.2f}"), scheme.name


def test_e15_ecache_rows():
    table = _table("E15")
    rows = {f"{row['size_words'] // 1024}K": row
            for row in (_value(job_id) for job_id in REPORT["experiments"]
                        if job_id.startswith("ecache/"))}
    printed = {size.split()[0]: cells for size, cells in table.items()
               if size[0].isdigit()}
    assert printed == {size: [f"{row['miss_rate']:.3f}",
                              f"{row['stall_per_ref']:.2f}"]
                       for size, row in rows.items()}


# ---------------------------------------------------------- paper bands
def test_table1_rows_near_the_paper():
    """Squashing rows land within 0.45 cycles of the paper; the no-squash
    rows, which hang on move-from-above scheduling, within 0.85."""
    for scheme, squash in SQUASH.items():
        for slots in (1, 2):
            name = f"{slots}-slot {scheme}"
            cost = _value(f"branch/{slots}-slot-{squash}")
            tolerance = 0.85 if squash == "none" else 0.45
            assert abs(cost["cycles_per_branch"]
                       - PAPER_TABLE1[name]) < tolerance, name


def test_fetchback_near_the_paper():
    """'Over 20%' missing at one word, a 12% / 1.24-cycle operating point
    at two, and the ratio 'almost halved' -- but not more than halved."""
    one, two = (_value(f"icache/fetchback-{words}") for words in (1, 2))
    assert one["miss_ratio"] > 0.20
    assert 0.40 < two["miss_ratio"] / one["miss_ratio"]
    assert 0.09 < two["miss_ratio"] < 0.16
    assert 1.18 < two["fetch_cost"] < 1.33


def test_suite_cpi_near_the_paper():
    """CPI about 1.7 with memory overhead, above 10 MIPS, an Icache miss
    rate near the paper's 12%."""
    cpi, mips, icache_miss = _suite()
    assert 1.4 < cpi < 2.0
    assert mips > 10.0
    assert 0.08 < icache_miss < 0.17


def test_coproc_near_the_paper():
    """FP-intensive code (a 'significant percentage' talks to the FPU);
    the non-cached scheme collapses on it, the dedicated bus loses only
    the ldf/stf fast path but spends 20 pins, the final scheme 1."""
    for row in _coproc_rows():
        assert row["fp_fraction"] > 0.25, row["workload"]
    assert _mean_relative_performance(
        "non-cached coprocessor instructions") < 0.75
    assert 0.8 < _mean_relative_performance(
        "coprocessor bit + dedicated bus") <= 1.0
    pins = {scheme.name: scheme.extra_pins for scheme in schemes()}
    assert pins["address-line interface (final)"] == 1
    assert pins["coprocessor bit + dedicated bus"] == 20


def test_ecache_design_point_near_the_paper():
    assert _value("ecache/65536w")["miss_rate"] < 0.12


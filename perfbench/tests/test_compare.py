"""The regression and claim rules on synthetic samples."""

import json

from perfbench.__main__ import main
from perfbench.compare import alternated, compare, passes, quartiles

SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "throughput_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.1}]}
#: alternating start times: parent first in even pairs, change first in odd
PARENT_STARTS = [20.0 * i + (0 if i % 2 == 0 else 10) for i in range(10)]
CHANGE_STARTS = [20.0 * i + (10 if i % 2 == 0 else 0) for i in range(10)]


def _runs(values, starts, walls=None):
    """Runs whose wall-clock reading equals the scaled one by default."""
    return [{"started": start,
             "detail": {"wall_throughput_per_s": wall},
             "result": {"failed": 0,
                        "metrics": {"throughput_per_s": {"value": value}}}}
            for value, start, wall in zip(values, starts, walls or values)]


def _row(parent, change, claim=True, change_walls=None):
    rows = compare({"w": _runs(parent, PARENT_STARTS)},
                   {"w": _runs(change, CHANGE_STARTS, change_walls)}, SPEC,
                   [("throughput_per_s", "w")] if claim else [])
    return rows[0]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_claim_met_when_change_wins_nine_tenths_beyond_parent_spread():
    row = _row(STEADY, [v * 1.05 for v in STEADY])
    assert row["claims"]["throughput_per_s"]["verdict"] == "met"
    assert row["metrics"]["throughput_per_s"]["verdict"] == "ok"


def test_claim_not_met_when_change_matches_parent():
    row = _row(STEADY, list(STEADY))
    assert row["claims"]["throughput_per_s"]["verdict"] == "not met"


def test_claim_not_met_with_too_few_pairs_or_without_alternation():
    few = compare({"w": _runs(STEADY[:5], PARENT_STARTS)},
                  {"w": _runs([v * 2 for v in STEADY[:5]], CHANGE_STARTS)},
                  SPEC, [("throughput_per_s", "w")])[0]
    assert few["claims"]["throughput_per_s"]["verdict"] == "not met"
    assert not alternated(PARENT_STARTS, [s + 5 for s in PARENT_STARTS])
    assert alternated(PARENT_STARTS, CHANGE_STARTS)


def test_unresolved_when_spread_exceeds_the_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    row = _row(noisy, [v * 0.97 for v in noisy], claim=False)
    assert row["metrics"]["throughput_per_s"]["verdict"] == "unresolved"


def test_noisy_but_dominating_change_is_not_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    row = _row(noisy, [v + 200.0 for v in noisy], claim=False)
    assert row["metrics"]["throughput_per_s"]["verdict"] == "ok"


def test_regressed_when_median_worsens_past_the_bound():
    row = _row(STEADY, [v * 0.85 for v in STEADY], claim=False)
    cell = row["metrics"]["throughput_per_s"]
    assert cell["verdict"] == "regressed"
    assert abs(cell["worse_by"] - 0.15) < 1e-9


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wall_clock_reading_is_judged_and_a_disagreement_reported():
    row = _row(STEADY, [v * 1.05 for v in STEADY],
               change_walls=[v * 0.85 for v in STEADY])
    cell = row["metrics"]["throughput_per_s"]
    assert cell["verdict"] == "ok"
    assert (cell["wall"]["verdict"], cell["wall"]["agrees"]) == (
        "regressed", False)
    claim = row["claims"]["throughput_per_s"]
    assert claim["verdict"] == "met"
    assert (claim["wall"]["verdict"], claim["wall"]["agrees"]) == (
        "not met", False)
    assert not passes([row])


def test_agreeing_readings_pass():
    row = _row(STEADY, list(STEADY), claim=False)
    assert row["metrics"]["throughput_per_s"]["wall"]["agrees"]
    assert passes([row])


def test_a_declared_workload_missing_from_a_set_fails():
    spec = dict(SPEC, workloads=[{"name": "w"}, {"name": "v"}])
    rows = compare({"w": _runs(STEADY, PARENT_STARTS),
                    "v": _runs(STEADY, PARENT_STARTS)},
                   {"w": _runs(STEADY, CHANGE_STARTS)}, spec,
                   [("throughput_per_s", "v")])
    assert [row["workload"] for row in rows] == ["w", "v"]
    assert rows[1]["missing"] == ["change"]
    assert rows[1]["metrics"]["throughput_per_s"]["verdict"] == "missing"
    assert rows[1]["claims"]["throughput_per_s"]["verdict"] == "not met"
    assert passes(rows[:1]) and not passes(rows)


def test_compare_refuses_sets_of_different_run_lengths(tmp_path, capsys):
    paths = []
    for name, seconds in (("parent", 12), ("change", 6)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"seconds": seconds, "runs": {}}))
        paths.append(str(path))
    assert main(["compare", *paths]) == 2
    assert "different lengths" in capsys.readouterr().err

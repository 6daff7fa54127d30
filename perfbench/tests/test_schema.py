"""BENCHMARK.json: the format, the limits, and agreement with the code."""

import json
import pathlib
import re

from perfbench.layers import LAYER_METRICS
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_exact_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}


def test_command_paths_and_run_length():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_counts_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_and_units_are_well_formed_and_unique():
    for key, fields in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        names = [entry["name"] for entry in SPEC[key]]
        assert len(names) == len(set(names)), key
        for entry in SPEC[key]:
            assert set(entry) == fields, entry
            assert NAME.match(entry["name"]), entry["name"]
            if "unit" in entry:
                assert UNIT.match(entry["unit"]), entry
                assert entry["better"] in ("higher", "lower"), entry
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    # every metric but set-up time keeps the +-10% the benchmark was
    # specified with; set-up's share stands for "+10% or +0.5 s"
    assert {name: bound for name, bound in bounds.items()
            if name != "setup_s"} == {"throughput_per_s": 0.1,
                                      "peak_rss_mb": 0.1}


def test_workloads_match_the_implementation():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_mirrors_the_layer_table():
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS]


def test_every_layer_metric_names_an_end_to_end_metric_and_workloads():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for metric in LAYER_METRICS:
        assert metric.moves in end_to_end, metric
        assert metric.on and set(metric.on) <= workloads, metric

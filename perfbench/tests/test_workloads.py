"""Tiny-length smoke runs of every workload, and the worker's protocol."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from perfbench.layers import layer_values
from perfbench.tracing import Tracer
from perfbench.worker import run_segment
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _traced_pass(name, work_dir):
    workload = WORKLOADS[name](3, work_dir, serial=True, tiny=True)
    tracer = Tracer("test")
    with tracer.installed():
        segment = run_segment(workload, passes=1)
    return segment, tracer.counts, workload.counters_now()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_is_correct_and_its_counts_repeat_exactly(name, tmp_path):
    first, counts, counters = _traced_pass(name, tmp_path / "a")
    second, counts_again, counters_again = _traced_pass(name, tmp_path / "b")
    assert first["failed"] == 0 and first["errors"] == []
    assert first["attempted"] == second["attempted"] > 0
    assert any(counts.values()) or any(counters.values())
    assert (counts, counters) == (counts_again, counters_again)


def test_parallel_runner_path_checks_every_job(tmp_path):
    workload = WORKLOADS["fuzz-campaign"](5, tmp_path, tiny=True)
    segment = run_segment(workload, passes=2)
    assert (segment["attempted"], segment["failed"]) == (6, 0)
    assert segment["kinds"]["batch"]["ops"] == 2


def _worker(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", "os-boot",
         "--seed", "1", "--passes", "1", "--tiny",
         "--spawned", repr(time.monotonic()), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_worker_prints_one_json_result_last():
    result = _worker()
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert result["wall_setup_s"] > 0 and result["peak_rss_mb"] > 0
    assert result["setup_s"] > 0
    assert result["counters"]["checkpoint.bytes_written"] > 0


def test_traced_os_boot_reports_kernel_building_in_setup(tmp_path):
    traced = _worker("--serial", "--trace-out", str(tmp_path / "t.json"))
    values = layer_values(traced, traced, None, (), 1)
    assert values["setup.workloads.self_pct"] > 0
    assert values["setup.asm.self_pct"] > 0
    assert (tmp_path / "t.json").is_file()


def test_run_fails_without_the_program_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-interp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

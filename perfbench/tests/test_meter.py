"""Scaling measured seconds to the reference host speed."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from perfbench.meter import HostMeter, metered_job, startup_seconds

ROOT = pathlib.Path(__file__).resolve().parents[2]

REF = HostMeter.REFERENCE_LOOP_S


def _meter(*per_loop):
    """A meter holding, for each loop, the given (end, duration) samples."""
    meter = HostMeter()
    for which, samples in enumerate(per_loop):
        for end, duration in samples:
            meter.ends[which].append(end)
            meter.durations[which].append(duration)
    return meter


def test_interval_at_half_speed_counts_half_less_its_sampling():
    # each loop sampled once inside [0, 1], twice as slow as the reference
    meter = _meter([(0.25, 2 * REF), (1.5, REF)], [(0.75, 2 * REF)])
    assert meter.reference_seconds(0.0, 1.0) == pytest.approx(
        (1.0 - 4 * REF) / 2)


def test_rates_not_durations_are_averaged_per_loop():
    meter = _meter([(0.2, REF), (0.4, 4 * REF)], [(0.3, REF)])
    rate = (1.0 + 0.25) / 2
    assert meter.speed_scale(0.0, 1.0) == pytest.approx(rate ** 0.5)


def test_scale_is_the_geometric_mean_of_the_loops():
    meter = _meter([(0.5, REF)], [(0.6, 4 * REF)])
    assert meter.speed_scale(0.0, 1.0) == pytest.approx(0.5)


def test_short_interval_uses_the_latest_sample_and_none_means_unscaled():
    meter = _meter([(0.1, 2 * REF)], [(0.15, 2 * REF)])
    assert meter.reference_seconds(0.2, 0.21) == pytest.approx(0.005)
    assert HostMeter().reference_seconds(0.0, 0.5) == pytest.approx(0.5)


def test_sampling_takes_the_loops_in_turn():
    meter = HostMeter()
    for _ in range(3):
        meter._sample(None, None)
    assert [len(ends) for ends in meter.ends] == [2, 1]


def test_metered_job_returns_the_value_and_its_seconds():
    row = metered_job("perfbench.workloads:digest", {"value": [1, 2]})
    assert len(row["value"]) == 16
    assert row["wall_s"] > 0 and row["reference_s"] > 0


def test_startup_counts_the_time_before_the_meter_at_its_speed():
    spawned = time.monotonic() - 1.0          # spawned one second ago
    started = time.perf_counter() - 0.5       # sampling began half-way
    # both loops ran at half speed while sampling
    meter = _meter([(started + 0.2, 2 * REF)], [(started + 0.3, 2 * REF)])
    seconds = startup_seconds(meter, spawned, started)
    assert seconds["wall_setup_s"] == pytest.approx(1.0, abs=0.05)
    assert seconds["setup_s"] == pytest.approx(
        (seconds["wall_setup_s"] - 4 * REF) / 2, abs=1e-9)


def test_reference_startup_process_reports_its_seconds():
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.meter",
         "--spawned", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        check=True)
    seconds = json.loads(done.stdout.strip().splitlines()[-1])
    assert seconds["setup_s"] > 0 and seconds["wall_setup_s"] > 0

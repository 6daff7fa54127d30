"""Throughput layer: fan experiment sweeps across worker processes.

The paper's design studies were sweeps -- six branch schemes, every
512-word Icache organization, Ecache sizes, coprocessor interfaces --
each point an independent, deterministic simulation.  This package runs
those points in parallel:

* :mod:`repro.harness.runner` -- a :class:`Runner` that schedules
  picklable :class:`Job` specs over worker processes with per-job
  timeout, retry-once-on-crash, and deterministic result merging;
* :mod:`repro.harness.experiments` -- the registry of experiment point
  functions and the sweep grids built from them;
* :mod:`repro.harness.bench` -- benchmark telemetry: core ``cycles/sec``
  and sweep wall-clock, persisted to ``BENCH_pipeline.json`` at the repo
  root so every PR leaves a perf trajectory;
* :mod:`repro.harness.campaign` -- the contract, registry and exit rule
  of the standing campaigns behind ``repro campaign <name>``, one of
  which, :mod:`repro.harness.devices`, boots the kernel-lite demos.
"""

from repro.harness.experiments import (EXPERIMENT_SWEEPS, default_jobs,
                                       sweep_jobs)
from repro.harness.runner import Job, JobResult, Runner, resolve

__all__ = [
    "EXPERIMENT_SWEEPS",
    "Job",
    "JobResult",
    "Runner",
    "default_jobs",
    "resolve",
    "sweep_jobs",
]

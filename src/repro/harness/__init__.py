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
* :mod:`repro.harness.campaign` -- the contract, registry and exit rule
  of the standing campaigns behind ``repro campaign <name>``; two of
  them live here: :mod:`repro.harness.equivalence` checks every fast
  path (checkpoint/restore, the JIT under the kernel-lite demos)
  against the reference's whole machine state, and
  :mod:`repro.harness.bench` (``repro campaign bench``) writes the
  grid's verdicts and values, the jit, traced, multi and metrics
  sections and the timings its gate reads to ``BENCH_pipeline.json``
  at the repo root, and gates the paper's shapes on those rows.

The package re-exports nothing: import the submodule you need, so a
Runner worker or a campaign does not pay for the experiment registry.
"""

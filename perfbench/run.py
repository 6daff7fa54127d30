"""The benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement happens in a
fresh worker process (:mod:`perfbench.worker`); this process only starts
them, waits for them and prints one JSON result object as the last line
of standard output.

``--trace 0`` (end to end, untraced): one measuring worker, then
set-up-only workers until there are at least three set-ups and either
seven or 2.5 s of them, each after a reference start-up (the
interpreter and numpy, :func:`perfbench.meter.main`).  ``setup_s`` is
the set-ups' median less the reference start-ups' median, plus the
reference start-up's quiet-host time: it moves with the program's own
set-up, not with what every process on the host pays at the time.
``throughput_per_s`` and ``peak_rss_mb`` come from the measuring
worker.  Both times are at the reference host speed
(:mod:`perfbench.meter`); the details carry them unscaled too.

``--trace 1`` (per layer): one fixed pass of the workload three ways --
untraced in-process (the overhead reference), untraced on the parallel
Runner (Runner workloads only, for its efficiency), and traced
in-process.  The spans go to ``perfbench/results/<run>/<workload>/
trace.json``.

Without a ``src/repro`` package next to this directory there is nothing
to measure: the script says so and exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: set-ups timed per end-to-end run (median reported as ``setup_s``):
#: at least the first number, and more, up to the second, while all the
#: set-ups so far took less than SETUP_BUDGET_S
SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 2.5
#: the reference start-up's seconds on a quiet host, at reference speed
REFERENCE_STARTUP_S = 0.1
#: every worker of one run must be done by then (the limit is 180 s)
RUN_DEADLINE_S = 170.0
#: fixed work of a traced run, in passes
TRACE_PASSES = 1


class BenchmarkError(RuntimeError):
    """A worker failed to produce a result."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(args: List[str], deadline: float,
          module: str = "perfbench.worker") -> dict:
    """Run ``python -m module`` to completion; returns its JSON result.

    The process leads its own process group, so on a timeout it and any
    Runner processes it started are killed together.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, "-m", module, *args, "--spawned", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {' '.join(args)} timed out") from None
    finally:
        _kill_group(process)          # the worker and any process it left
        process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited "
                             f"{process.returncode}")
    return json.loads(lines[-1])


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass                                   # the group is already gone


def _result(segments: List[dict], metrics: dict) -> dict:
    units = {metric["name"]: metric["unit"]
             for key in ("end_to_end", "per_layer")
             for metric in benchmark_spec()[key]}
    attempted = sum(segment["attempted"] for segment in segments)
    failed = sum(segment["failed"] for segment in segments)
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run: the result object and the worker's details."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    least, most = SETUP_SAMPLES
    # each set-up follows a reference start-up, which times what every
    # process on this host pays to start at that moment
    startups = [spawn([], deadline, module="perfbench.meter")]
    segment = spawn(base + ["--seconds", str(seconds)], deadline)
    setups = [segment]
    while len(setups) < most and (
            len(setups) < least
            or sum(s["wall_setup_s"] for s in setups) < SETUP_BUDGET_S):
        startups.append(spawn([], deadline, module="perfbench.meter"))
        setups.append(spawn(base + ["--setup-only"], deadline))
    setup_s = (statistics.median(s["setup_s"] for s in setups)
               - statistics.median(s["setup_s"] for s in startups)
               + REFERENCE_STARTUP_S)
    result = _result([segment], {
        "setup_s": setup_s,
        "throughput_per_s": segment["throughput_per_s"],
        "peak_rss_mb": segment["peak_rss_mb"],
    })
    segment["setup_samples_s"] = [s["setup_s"] for s in setups]
    segment["startup_samples_s"] = [s["setup_s"] for s in startups]
    segment["wall_setup_s"] = statistics.median(
        s["wall_setup_s"] for s in setups)
    return {"result": result, "detail": segment,
            "errors": segment["errors"]}


def trace(workload: str, seed: int, out_dir: pathlib.Path) -> dict:
    """One traced run: per-layer metrics plus the traced segment."""
    from perfbench.layers import layer_values
    from perfbench.workloads import WORKLOADS, runner_workers

    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed),
            "--passes", str(TRACE_PASSES)]
    runner_kinds = WORKLOADS[workload].runner_kinds
    parallel: Optional[dict] = (spawn(base, deadline) if runner_kinds
                                else None)
    serial = spawn(base + ["--serial"], deadline)
    path = out_dir / workload / "trace.json"
    traced = spawn(base + ["--serial", "--trace-out", str(path)], deadline)
    values = layer_values(traced, serial, parallel, runner_kinds,
                          runner_workers())
    segments = [s for s in (parallel, serial, traced) if s is not None]
    return {"result": _result(segments, values),
            "detail": {"traced": traced, "serial": serial,
                       "parallel": parallel, "trace_path": str(path)},
            "errors": [e for segment in segments for e in segment["errors"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-name", default="local",
                        help="traced runs write perfbench/results/<name>/")
    args = parser.parse_args(argv)
    # a terminated run still stops its workers (spawn's ``finally``)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to "
              "measure", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            run = trace(args.workload, args.seed,
                        ROOT / "perfbench" / "results" / args.run_name)
        else:
            run = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in run["errors"]:
        print(f"perfbench: failed output: {error}", file=sys.stderr)
    # the line before the result carries the workers' details for
    # ``python -m perfbench``; the result is always the last line
    print(json.dumps({"detail": run["detail"]}))
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

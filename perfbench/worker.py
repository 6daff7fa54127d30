"""One benchmark process: set a workload up, then run one measured segment.

    python -m perfbench.worker --workload NAME --seed N --spawned T
        (--seconds S | --passes K | --setup-only) [--serial] [--tiny]
        [--trace-out FILE]

``--spawned`` is the parent's ``time.monotonic()`` taken just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and the workload's set-up (``wall_setup_s``
is the same span unscaled).  ``--seconds``
runs whole ops until at least that long has passed and at least one
pass is done; ``--passes`` runs a fixed number of passes.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import time
from typing import Dict, Optional

from perfbench.meter import HostMeter, startup_seconds
from perfbench.workloads import WORKLOADS, Workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / ".work"

#: failure messages kept per segment (the counts are exact regardless)
MAX_ERRORS = 5


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0                   # Linux reports KiB


def run_segment(workload: Workload, seconds: Optional[float] = None,
                passes: Optional[int] = None,
                meter: Optional[HostMeter] = None) -> dict:
    """Run ops, time each, and check each one's outputs.

    Throughput is items per second of the *median* op of each kind:
    ``sum(items per op) / sum(median op seconds)`` over the kinds, so a
    run that stops part-way through a pass does not skew the mix.  With
    a ``meter``, op seconds are reference seconds: scaled by the
    measuring process's meter, or for an op that ran parallel Runner
    jobs by those jobs' own (see :mod:`perfbench.meter`).
    ``wall_throughput_per_s`` keeps the unscaled figure.
    ``peak_rss_mb`` is read when the first pass ends, so that it covers
    the same work however many ops the host's speed lets a run take.
    """
    limit = None if passes is None else passes * workload.pass_ops
    walls: Dict[str, list] = {}
    spans: list = []
    items: Dict[str, int] = {}
    attempted = failed = 0
    errors: list = []
    started = time.perf_counter()
    for done, op in enumerate(workload.ops(), start=1):
        jobs_before = tuple(workload.job_seconds)
        op_started = time.perf_counter()
        try:
            failures = op.run()
        except Exception as exc:       # the op's outputs are all missing
            failures = [f"{op.kind}: {type(exc).__name__}: {exc}"] * op.checks
        op_ended = time.perf_counter()
        walls.setdefault(op.kind, []).append(op_ended - op_started)
        job_wall, job_reference = (after - before for after, before in zip(
            workload.job_seconds, jobs_before))
        spans.append((op.kind, op_started, op_ended, job_wall, job_reference))
        items[op.kind] = op.items
        attempted += op.checks
        failed += min(len(failures), op.checks)
        errors.extend(failures[:MAX_ERRORS - len(errors)])
        if done == workload.pass_ops:
            pass_rss_mb = peak_rss_mb()
        if limit is not None:
            if done >= limit:
                break
        elif (done >= workload.pass_ops
              and time.perf_counter() - started >= seconds):
            break
    wall = time.perf_counter() - started
    costs = walls
    if meter is not None:
        costs = {}
        for kind, op_started, op_ended, job_wall, job_reference in spans:
            costs.setdefault(kind, []).append(
                (op_ended - op_started) * job_reference / job_wall if job_wall
                else meter.reference_seconds(op_started, op_ended))
    kinds = {kind: {"items": items[kind], "ops": len(walls[kind]),
                    "median_s": statistics.median(costs[kind]),
                    "wall_median_s": statistics.median(walls[kind]),
                    "total_s": sum(costs[kind])}
             for kind in walls}
    total_items = sum(items.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": wall,
        "reference_s": sum(row["total_s"] for row in kinds.values()),
        "throughput_per_s": total_items / sum(
            row["median_s"] for row in kinds.values()),
        "wall_throughput_per_s": total_items / sum(
            row["wall_median_s"] for row in kinds.values()),
        "kinds": kinds,
        "peak_rss_mb": pass_rss_mb,
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--serial", action="store_true",
                        help="run Runner jobs in-process")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (tests)")
    parser.add_argument("--trace-out", type=pathlib.Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from perfbench.tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        tracer.install()

    def phase(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    # sampling costs 0.5% of the time; in a traced run it lands in
    # whichever span is open, so shares stay proportional
    meter = HostMeter()
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        with meter.sampling():
            setup_started = time.perf_counter()
            with phase("setup"):
                import repro.core  # noqa: F401 -- import order: core first

                workload = WORKLOADS[args.workload](
                    args.seed, work_dir, serial=args.serial, tiny=args.tiny)
            setups = startup_seconds(meter, args.spawned, setup_started)
            if args.setup_only:
                print(json.dumps(setups), flush=True)
                return 0
            before = workload.counters_now()
            with phase("run"):
                result = run_segment(workload, args.seconds, args.passes,
                                     meter)
            result["counters"] = _delta(workload.counters_now(), before)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(setups)
    if tracer:
        from perfbench.tracing import phase_summary

        tracer.write(args.trace_out, {"workload": args.workload,
                                      "seed": args.seed})
        result["trace"] = {"setup": phase_summary(tracer.spans, "setup"),
                           "run": phase_summary(tracer.spans, "run"),
                           "counts": tracer.counts}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

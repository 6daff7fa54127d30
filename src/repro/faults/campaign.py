"""The faults campaign: seeded fault plans, each checked against a golden run.

Fans N seeded fault plans across :class:`repro.harness.runner.Runner`
(one differential run per worker process), aggregates a structured
per-fault-class report, and writes it atomically to
``FAULTS_campaign.json`` at the repo root.  With ``--multi-nodes N`` the
same driver runs the node-level grid of :mod:`repro.faults.multi`
instead (corrupt one node's caches on an N-node system) and writes
``FAULTS_multi.json``.

The campaign doubles as a chaos test of the harness itself: with
``chaos_rate > 0`` a seeded subset of first-attempt workers is killed
mid-job (``ChaosMonkey``), and the runner's crash-retry/merge path has
to deliver the same verdicts regardless -- the report's ``harness``
section records exactly what the runner had to absorb.

Verdict (:func:`gate`): a classified invariant violation is a
*finding*; a job that ends ``error``/``timeout``/``crashed`` is a
*harness* failure (a fault escaped the model as a Python crash, or the
infrastructure broke); an interrupted job leaves the campaign
*incomplete*.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.faults.invariants import differential_for_seed
from repro.faults.multi import MULTI_FAULT_CLASSES, multi_campaign_jobs
from repro.faults.plan import FAULT_CLASSES
from repro.harness.campaign import (FINDING, HARNESS, INCOMPLETE, REPO_ROOT,
                                    Failure, OptionError,
                                    add_runner_arguments, write_json_atomic)
from repro.harness.runner import ChaosMonkey, Job, JobResult, Runner

DEFAULT_REPORT = REPO_ROOT / "FAULTS_campaign.json"

#: the report of the node-level campaign (``--multi-nodes N``)
DEFAULT_MULTI_REPORT = REPO_ROOT / "FAULTS_multi.json"

#: per-differential-run wall-clock watchdog (each run simulates a few
#: thousand cycles; a minute means something hung, not something slow)
JOB_TIMEOUT = 60.0

#: summary keys the gate reads
SUMMARY_KEYS = ("violated", "unhandled_jobs", "interrupted_jobs")

#: verdict fields copied onto each violation the report lists
VIOLATION_CONTEXT = ("seed", "workload", "victim")


def campaign_point(seed: int, fault_class: str,
                   max_events: int = 6) -> Dict[str, Any]:
    """One campaign job: build the plan for ``seed``, run the
    differential checker, return the verdict (picklable dict)."""
    report = differential_for_seed(seed, fault_class,
                                   max_events=max_events)
    return report.to_dict()


def campaign_jobs(seeds: int, quick: bool = False,
                  timeout: Optional[float] = JOB_TIMEOUT) -> List[Job]:
    """The seeded job grid: fault classes rotate across seeds so every
    class is exercised roughly ``seeds / len(FAULT_CLASSES)`` times."""
    jobs = []
    for seed in range(seeds):
        fault_class = FAULT_CLASSES[seed % len(FAULT_CLASSES)]
        jobs.append(Job(
            id=f"faults/{seed:03d}-{fault_class}",
            fn="repro.faults.campaign:campaign_point",
            params={"seed": seed, "fault_class": fault_class,
                    "max_events": 3 if quick else 6},
            timeout=timeout,
            sweep="faults"))
    return jobs


def _aggregate(results: List[JobResult],
               classes: Sequence[str]) -> Dict[str, Any]:
    per_class: Dict[str, Dict[str, Any]] = {}
    for fault_class in classes:
        per_class[fault_class] = {
            "runs": 0, "absorbed": 0, "not_triggered": 0, "violated": 0,
            "max_inflation": 0, "violations": [],
        }
    for result in results:
        if not result.ok or not isinstance(result.value, dict):
            continue
        verdict = result.value
        row = per_class[verdict["fault_class"]]
        row["runs"] += 1
        row[verdict["status"].replace("-", "_")] += 1
        if "exceptions_taken" in verdict:   # single-node points only
            row["exceptions_taken"] = (row.get("exceptions_taken", 0)
                                       + verdict["exceptions_taken"])
        row["max_inflation"] = max(row["max_inflation"],
                                   verdict["inflation"])
        context = {key: verdict[key] for key in VIOLATION_CONTEXT
                   if key in verdict}
        for violation in verdict["violations"]:
            row["violations"].append({**context, **violation})
    return {name: row for name, row in per_class.items() if row["runs"]}


def run_campaign(seeds: int = 32,
                 workers: Optional[int] = None,
                 quick: bool = False,
                 parallel: bool = True,
                 chaos_rate: float = 0.0,
                 chaos_seed: int = 0,
                 output: Optional[pathlib.Path] = None,
                 multi_nodes: int = 0) -> Dict[str, Any]:
    """Run the campaign and persist the structured report.

    ``multi_nodes`` >= 2 runs the node-level grid of
    :mod:`repro.faults.multi` on systems of that many nodes; the driver,
    the report shape and the gate are the same (one node would leave no
    other node to stay golden).  Raises :class:`OptionError` before any
    job runs for fewer than one seed, or for ``multi_nodes`` other than
    0 (off) or at least 2.
    """
    if seeds < 1:
        raise OptionError(f"seeds must be at least 1, got {seeds}")
    if multi_nodes == 1 or multi_nodes < 0:
        raise OptionError(f"multi-nodes must be 0 (off) or at least 2, got "
                          f"{multi_nodes}")
    if multi_nodes:
        jobs = multi_campaign_jobs(seeds, nodes=multi_nodes, quick=quick)
        fault_classes: Sequence[str] = MULTI_FAULT_CLASSES
        default = DEFAULT_MULTI_REPORT
    else:
        jobs = campaign_jobs(seeds, quick=quick)
        fault_classes = FAULT_CLASSES
        default = DEFAULT_REPORT
    runner = Runner(max_workers=workers,
                    default_timeout=JOB_TIMEOUT,
                    chaos=ChaosMonkey(rate=chaos_rate, seed=chaos_seed))
    results = runner.run(jobs, parallel=parallel)

    harness_rows = {
        r.job_id: {
            "status": r.status,
            "attempts": r.attempts,
            "error_kind": r.error_kind,
        }
        for r in results
    }
    unhandled = {r.job_id: (r.error or r.status) for r in results
                 if not r.ok and r.status != "interrupted"}
    interrupted = sum(1 for r in results if r.status == "interrupted")
    classes = _aggregate(results, fault_classes)
    violated = sum(row["violated"] for row in classes.values())
    payload: Dict[str, Any] = {
        "schema": 1,
        "seeds": seeds,
        "quick": quick,
        "chaos_rate": chaos_rate,
        "complete": interrupted == 0,
        "summary": {
            "runs": sum(row["runs"] for row in classes.values()),
            "absorbed": sum(row["absorbed"] for row in classes.values()),
            "not_triggered": sum(row["not_triggered"]
                                 for row in classes.values()),
            "violated": violated,
            "unhandled_jobs": len(unhandled),
            "interrupted_jobs": interrupted,
            "retried_jobs": sum(1 for r in results
                                if r.status == "retried-ok"),
        },
        "classes": classes,
        "harness": harness_rows,
    }
    if multi_nodes:
        payload["nodes"] = multi_nodes
    if unhandled:
        payload["unhandled"] = unhandled
    path = pathlib.Path(output) if output else default
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


def add_arguments(parser) -> None:
    """The faults campaign's description and options."""
    parser.description = (
        "Inject seeded hardware-fault plans into pipeline runs and check "
        "architectural invariants against a clean differential run; with "
        "--multi-nodes N, corrupt one node's caches mid-run on N-node "
        "systems and require every node's results to stay golden.  A "
        "finding is a classified invariant violation.")
    parser.add_argument("--seeds", type=int, default=32,
                        help="number of seeded fault plans (default 32)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer events per plan (CI smoke)")
    add_runner_arguments(parser)
    parser.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="kill this fraction of first-attempt workers "
                             "mid-job (chaos test of the runner)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the chaos kill selection")
    parser.add_argument("--multi-nodes", type=int, default=0, metavar="N",
                        help="run the node-level multiprocessor campaign "
                             "on N-node systems (N >= 2) instead (flip one "
                             "node's "
                             "Icache valid bits / corrupt its Ecache "
                             "tags mid-run; report: FAULTS_multi.json)")


def run(args) -> Dict[str, Any]:
    """Run the campaign from parsed command-line options."""
    return run_campaign(seeds=args.seeds, workers=args.workers,
                        quick=args.quick, parallel=not args.serial,
                        chaos_rate=args.chaos, chaos_seed=args.chaos_seed,
                        output=args.output, multi_nodes=args.multi_nodes)


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict: violations are findings, unhandled jobs
    harness failures, interrupted jobs leave it incomplete."""
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        return [Failure(HARNESS, "section 'summary' is missing or not an "
                                 "object (partial or interrupted "
                                 "campaign?)")]
    missing = [key for key in SUMMARY_KEYS if key not in summary]
    if missing:
        return [Failure(HARNESS, f"section 'summary' is missing key "
                                 f"'{key}'") for key in missing]
    failures = []
    if summary["violated"]:
        failures.append(Failure(
            FINDING, f"{summary['violated']} invariant violation(s) "
                     "classified (see the report's 'classes')"))
    if summary["unhandled_jobs"]:
        failures.append(Failure(
            HARNESS, f"{summary['unhandled_jobs']} campaign job(s) failed "
                     "in the harness (see the report's 'unhandled')"))
    if not payload.get("complete", False):
        failures.append(Failure(
            INCOMPLETE, f"campaign incomplete "
                        f"({summary['interrupted_jobs']} job(s) "
                        "interrupted; rerun the same `repro campaign "
                        "faults` command)"))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    summary = payload["summary"]
    systems = (f" on {payload['nodes']}-node systems"
               if payload.get("nodes") else "")
    lines = [
        f"fault campaign    {summary['runs']} runs over "
        f"{len(payload['classes'])} fault classes{systems} "
        f"({payload['seeds']} seeds"
        + (", quick" if payload.get("quick") else "") + ")",
        f"  absorbed        {summary['absorbed']}",
        f"  not triggered   {summary['not_triggered']}",
        f"  violations      {summary['violated']}",
        f"  harness         {summary['unhandled_jobs']} unhandled, "
        f"{summary['retried_jobs']} retried"
        + (f", {summary['interrupted_jobs']} interrupted"
           if summary.get("interrupted_jobs") else "")
        + (f" (chaos rate {payload['chaos_rate']})"
           if payload.get("chaos_rate") else ""),
        f"  {'class':<18} {'runs':>4} {'absorb':>6} {'quiet':>5} "
        f"{'viol':>4} {'exc':>4} {'max infl':>8}",
    ]
    for name, row in sorted(payload["classes"].items()):
        lines.append(
            f"  {name:<18} {row['runs']:>4} {row['absorbed']:>6} "
            f"{row['not_triggered']:>5} {row['violated']:>4} "
            f"{row.get('exceptions_taken', '-'):>4} "
            f"{row['max_inflation']:>8}")
    for name, row in sorted(payload["classes"].items()):
        for violation in row["violations"][:10]:
            where = (f" ({violation['workload']}, victim node "
                     f"{violation['victim']})" if "victim" in violation
                     else "")
            lines.append(f"  ! {name} seed {violation['seed']}{where}: "
                         f"[{violation['kind']}] {violation['detail']}")
    return "\n".join(lines)

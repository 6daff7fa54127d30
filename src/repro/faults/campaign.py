"""The ``repro faults`` campaign driver.

Fans N seeded fault plans across :class:`repro.harness.runner.Runner`
(one differential run per worker process), aggregates a structured
per-fault-class report, and writes it atomically to
``FAULTS_campaign.json`` at the repo root.

The campaign doubles as a chaos test of the harness itself: with
``chaos_rate > 0`` a seeded subset of first-attempt workers is killed
mid-job (``ChaosMonkey``), and the runner's crash-retry/merge path has
to deliver the same verdicts regardless -- the report's ``harness``
section records exactly what the runner had to absorb.

Exit semantics (used by the CLI): a campaign *fails* only when a job
ends in an unhandled state (``error``/``timeout``/``crashed``) -- that
would mean a fault escaped the model as a Python crash.  Classified
invariant violations are a *finding*, reported separately: the checker
did its job.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional

from repro.faults.invariants import differential_for_seed
from repro.faults.plan import FAULT_CLASSES
from repro.harness.bench import REPO_ROOT, write_json_atomic
from repro.harness.runner import ChaosMonkey, Job, JobResult, Runner

DEFAULT_REPORT = REPO_ROOT / "FAULTS_campaign.json"

#: per-differential-run wall-clock watchdog (each run simulates a few
#: thousand cycles; a minute means something hung, not something slow)
JOB_TIMEOUT = 60.0


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


def _aggregate(results: List[JobResult]) -> Dict[str, Any]:
    per_class: Dict[str, Dict[str, Any]] = {}
    for fault_class in FAULT_CLASSES:
        per_class[fault_class] = {
            "runs": 0, "absorbed": 0, "not_triggered": 0, "violated": 0,
            "exceptions_taken": 0, "max_inflation": 0, "violations": [],
        }
    for result in results:
        if not result.ok or not isinstance(result.value, dict):
            continue
        verdict = result.value
        row = per_class[verdict["fault_class"]]
        row["runs"] += 1
        row[verdict["status"].replace("-", "_")] += 1
        row["exceptions_taken"] += verdict["exceptions_taken"]
        row["max_inflation"] = max(row["max_inflation"],
                                   verdict["inflation"])
        for violation in verdict["violations"]:
            row["violations"].append(
                {"seed": verdict["seed"], **violation})
    return {name: row for name, row in per_class.items() if row["runs"]}


def run_campaign(seeds: int = 32,
                 workers: Optional[int] = None,
                 quick: bool = False,
                 parallel: bool = True,
                 chaos_rate: float = 0.0,
                 chaos_seed: int = 0,
                 output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run the campaign and persist the structured report."""
    jobs = campaign_jobs(seeds, quick=quick)
    runner = Runner(max_workers=workers,
                    default_timeout=JOB_TIMEOUT,
                    chaos=ChaosMonkey(rate=chaos_rate, seed=chaos_seed))
    results = runner.run(jobs, parallel=parallel)

    harness_rows = {
        r.job_id: {
            "status": r.status,
            "attempts": r.attempts,
            "error_kind": r.error_kind,
            "duration_s": round(r.duration, 4),
        }
        for r in results
    }
    unhandled = {r.job_id: (r.error or r.status) for r in results
                 if not r.ok and r.status != "interrupted"}
    interrupted = sum(1 for r in results if r.status == "interrupted")
    classes = _aggregate(results)
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
    if unhandled:
        payload["unhandled"] = unhandled
    path = pathlib.Path(output) if output else DEFAULT_REPORT
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)
    return payload


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    summary = payload["summary"]
    lines = [
        f"fault campaign    {summary['runs']} runs over "
        f"{len(payload['classes'])} fault classes "
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
        f"  {'class':<16} {'runs':>4} {'absorb':>6} {'quiet':>5} "
        f"{'viol':>4} {'exc':>4} {'max infl':>8}",
    ]
    for name, row in sorted(payload["classes"].items()):
        lines.append(
            f"  {name:<16} {row['runs']:>4} {row['absorbed']:>6} "
            f"{row['not_triggered']:>5} {row['violated']:>4} "
            f"{row['exceptions_taken']:>4} {row['max_inflation']:>8}")
    for name, row in sorted(payload["classes"].items()):
        for violation in row["violations"][:10]:
            lines.append(f"  ! {name} seed {violation['seed']}: "
                         f"[{violation['kind']}] {violation['detail']}")
    return "\n".join(lines)

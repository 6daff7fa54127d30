"""Compare two sets of end-to-end runs: regressions and gain claims.

A *set* maps each workload to its runs, each run a ``run.py`` result
object, its details, the seed and start time (``python -m perfbench
run`` and ``pairs`` write them).  Run ``i`` of the parent and run ``i``
of the change form pair ``i``.

* **Regression rule**, every end-to-end metric on every workload: the
  change's median may be worse than the parent's by at most the
  metric's ``bound`` (a share of the parent's median).  When either
  side's spread -- interquartile range over median -- exceeds the
  bound, the verdict is ``unresolved`` unless every change run beats
  every parent run.  A workload that ``BENCHMARK.json`` declares but a
  set lacks is ``missing``: it was never measured, so it cannot pass.
* **Claim rule**, for a named metric and workload: at least
  :data:`MIN_PAIRS` pairs, run alternately, the change wins at least
  nine tenths of them (ties count for neither side), and the medians
  differ, in the better direction, by more than the parent's
  interquartile range.

The times behind ``throughput_per_s`` and ``setup_s`` are scaled to a
reference host speed by a calibration loop (:mod:`perfbench.meter`),
whose own speed a change to the simulator could move.  So both rules
are applied to the unscaled wall-clock figure as well (:data:`UNSCALED`
names it), and a verdict the two readings disagree on is reported.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9

#: metric -> the key in each run's details holding its unscaled reading
UNSCALED = {"throughput_per_s": "wall_throughput_per_s",
            "setup_s": "wall_setup_s"}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _improves(better: str, change: float, parent: float) -> bool:
    return change < parent if better == "lower" else change > parent


def regression_verdict(parent: Sequence[float], change: Sequence[float],
                       better: str, bound: float) -> Tuple[str, float]:
    """("ok" | "regressed" | "unresolved", share by which change is worse)."""
    parent_median = quartiles(parent)[1]
    change_median = quartiles(change)[1]
    worse_by = (change_median - parent_median) / parent_median
    if better == "higher":
        worse_by = -worse_by
    if max(spread(parent), spread(change)) > bound:
        dominates = all(_improves(better, c, p) for c in change for p in parent)
        return ("ok" if dominates else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def alternated(parent_starts: Sequence[float],
               change_starts: Sequence[float]) -> bool:
    """Pairs ran one after another, alternating which side went first."""
    previous = None
    for parent_start, change_start in zip(parent_starts, change_starts):
        parent_first = parent_start < change_start
        if previous is not None:
            previous_parent_first, previous_latest = previous
            if (parent_first == previous_parent_first
                    or min(parent_start, change_start) < previous_latest):
                return False
        previous = (parent_first, max(parent_start, change_start))
    return True


def claim_verdict(parent: Sequence[float], change: Sequence[float],
                  better: str, is_alternated: bool) -> Tuple[str, str]:
    """("met" | "not met", reason) for one metric on one workload."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "not met", f"{len(pairs)} pairs, need {MIN_PAIRS}"
    if not is_alternated:
        return "not met", "pairs were not run alternately"
    wins = sum(_improves(better, c, p) for p, c in pairs)
    if wins < WIN_SHARE * len(pairs):
        return "not met", f"change won {wins}/{len(pairs)} pairs"
    q1, parent_median, q3 = quartiles(parent)
    gain = quartiles(change)[1] - parent_median
    if better == "lower":
        gain = -gain
    if gain <= q3 - q1:
        return "not met", (f"median gain {gain:.6g} within the parent's "
                           f"interquartile range {q3 - q1:.6g}")
    return "met", f"change won {wins}/{len(pairs)} pairs"


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def _unscaled(runs: List[dict], metric: str) -> Optional[List[float]]:
    """The metric's wall-clock readings, or None if the runs lack them."""
    key = UNSCALED.get(metric)
    if key is None or not all(key in run.get("detail", {}) for run in runs):
        return None
    return [run["detail"][key] for run in runs]


def _metric_cell(p_runs: List[dict], c_runs: List[dict], metric: dict) -> dict:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    p_values, c_values = _values(p_runs, name), _values(c_runs, name)
    verdict, worse_by = regression_verdict(p_values, c_values, better, bound)
    cell = {"parent": quartiles(p_values), "change": quartiles(c_values),
            "worse_by": worse_by, "bound": bound, "verdict": verdict}
    p_wall, c_wall = _unscaled(p_runs, name), _unscaled(c_runs, name)
    if p_wall is not None and c_wall is not None:
        wall_verdict, wall_worse_by = regression_verdict(
            p_wall, c_wall, better, bound)
        cell["wall"] = {"verdict": wall_verdict, "worse_by": wall_worse_by,
                        "agrees": wall_verdict == verdict}
    return cell


def _claim_cell(p_runs: List[dict], c_runs: List[dict], metric: dict) -> dict:
    name, better = metric["name"], metric["better"]
    is_alternated = alternated([run["started"] for run in p_runs],
                               [run["started"] for run in c_runs])
    verdict, reason = claim_verdict(_values(p_runs, name),
                                    _values(c_runs, name), better,
                                    is_alternated)
    if (sum(run["result"]["failed"] for run in c_runs)
            > sum(run["result"]["failed"] for run in p_runs)):
        verdict, reason = "not met", "more outputs failed than at parent"
    cell = {"verdict": verdict, "reason": reason}
    p_wall, c_wall = _unscaled(p_runs, name), _unscaled(c_runs, name)
    if p_wall is not None and c_wall is not None:
        wall_verdict, wall_reason = claim_verdict(p_wall, c_wall, better,
                                                  is_alternated)
        cell["wall"] = {"verdict": wall_verdict, "reason": wall_reason,
                        "agrees": wall_verdict == verdict}
    return cell


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            spec: dict, claims: Sequence[Tuple[str, str]] = ()) -> List[dict]:
    """One row per workload that ``spec`` declares."""
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        row: Dict[str, object] = {"workload": workload, "metrics": {},
                                  "claims": {}}
        rows.append(row)
        if not parent.get(workload) or not change.get(workload):
            row["missing"] = [side for side, runs in (("parent", parent),
                                                      ("change", change))
                              if not runs.get(workload)]
            row["metrics"] = {name: {"verdict": "missing"} for name in metrics}
            row["claims"] = {name: {"verdict": "not met",
                                    "reason": "workload not measured"}
                             for name, on in claims if on == workload}
            continue
        p_runs, c_runs = parent[workload], change[workload]
        row["failed"] = sum(run["result"]["failed"] for run in c_runs)
        for name, metric in metrics.items():
            row["metrics"][name] = _metric_cell(p_runs, c_runs, metric)
        for name, on in claims:
            if on == workload:
                row["claims"][name] = _claim_cell(p_runs, c_runs,
                                                  metrics[name])
    return rows


def passes(rows: List[dict]) -> bool:
    """No metric regressed or went unmeasured, on either reading."""
    for row in rows:
        for cell in row["metrics"].values():
            if cell["verdict"] in ("regressed", "missing"):
                return False
            if cell.get("wall", {}).get("verdict") == "regressed":
                return False
    return True

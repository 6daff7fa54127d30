"""Benchmark-regression check: re-derive the paper-shape orderings.

CI's guard on the reproduced numbers: re-runs a *fast subset* of the
derivations behind ``benchmarks/results/*.txt`` and fails (exit 1) if any
paper-shape ordering asserted in EXPERIMENTS.md breaks --

* **E1, Table 1**: squashing beats no-squash, optional squashing is best
  at each slot count, one slot beats two;
* **E4, fetch-back**: the two-word fetch-back "almost halves" the
  one-word miss ratio, and 3/4-word fetch-back is not advantageous;
* **E5, service time**: no 3-cycle-miss organization recovers what the
  2-cycle (tags-in-datapath) implementation gives;
* **E15, Ecache**: miss rate improves monotonically with size and the
  64K-word design point captures most of the locality.

The full derivations still live in ``pytest benchmarks/``; this script
trades trace length for wall-clock (the shapes are stable well below the
benchmark trace lengths) so it can run on every push.

With ``--bench-file PATH`` the script additionally validates the named
sections of a ``BENCH_pipeline.json`` telemetry file and reports each
missing or malformed section by name -- a partial file (crashed bench
run, hand-edited payload) fails with a readable message instead of a
``KeyError`` traceback -- and, on a host that ran the sweep on two or
more workers, fails when the parallel sweep was slower than the serial
one (``sweep.speedup`` below :data:`SWEEP_SPEEDUP_FLOOR`).
``--fuzz-file PATH`` does the same for a
``FUZZ_campaign.json`` fuzzing report, additionally failing when the
campaign itself recorded unexplained divergences or harness failures
(so CI can gate on the artifact alone).  ``--metrics-file PATH`` audits
an aggregated ``METRICS_summary.json`` (see :mod:`repro.telemetry`):
counter-derived CPI must equal the analysis-module CPI for every
workload, and the counter accounting identities must hold on each
snapshot and on the suite totals.  ``--multi PATH`` validates the
``multi`` section a ``repro bench --multi`` run writes: every scaling
point self-checked, results bit-equal to the single-node reference,
``speedup(N=1) == 1.0``, bus contention monotone in the node count, and
a psieve speedup floor at 4 nodes.  ``--jit PATH`` validates the
``jit`` section: the translated fast path must be cycle-exact against
the interpreter on every benchmarked workload and meet the speedup
floors (:data:`JIT_SPEEDUP_FLOOR` aggregate,
:data:`JIT_WORKLOAD_SPEEDUP_FLOOR` per workload).

Usage::

    PYTHONPATH=src python -m repro.tools.check_results [--trace-length N]
        [--bench-file BENCH_pipeline.json] [--fuzz-file FUZZ_campaign.json]
        [--metrics-file METRICS_summary.json] [--multi BENCH_pipeline.json]
        [--jit BENCH_pipeline.json] [--checkpoint CHECKPOINT_campaign.json]
        [--devices DEVICES_results.json]

``--checkpoint PATH`` validates a ``CHECKPOINT_campaign.json`` recovery
report (see :mod:`repro.checkpoint.campaign`): every restore-equivalence
case bit-identical, the chaos gate with at least one proven resume, and
every snapshot-corruption case rejected with its named error.

``--devices PATH`` validates a ``DEVICES_results.json`` software-stack
gate report (see :mod:`repro.harness.devices`): every kernel-lite demo
booted to its pinned golden UART log with interrupts delivered,
bit-exact under the JIT (with blocks actually compiled), and
bit-identical across a mid-boot checkpoint/restore.

``--service PATH`` validates the ``service`` section of a
``BENCH_service.json`` load-generator report (see
:mod:`repro.service.loadgen`): the cache-hit p50 speedup floor, zero
cached-vs-recomputed payload mismatches, and zero error responses.
``--service-campaign PATH`` validates a ``SERVICE_campaign.json`` chaos
report (see :mod:`repro.service.chaos`): every disturbance class held
with zero wrong responses, the breaker opened and re-closed, and the
SIGTERM drain lost no accepted job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, List, Tuple

DEFAULT_TRACE_LENGTH = 150_000

#: named sections a complete bench telemetry file must carry, with the
#: keys each section needs for the summary/regression tooling
BENCH_SECTIONS = {
    "core": ("cycles_per_sec", "workloads"),
    "sweep": ("jobs", "ok"),
    "experiments": (),
}

#: the parallel sweep must not be slower than the serial one on a host
#: that gave it two or more workers
SWEEP_SPEEDUP_FLOOR = 1.0


def check_bench_file(path: pathlib.Path) -> List[str]:
    """Validate the named sections of a bench telemetry file.

    Every problem is reported against the *section name* so a partial
    write or schema drift reads as "section 'sweep' is missing", never as
    a bare ``KeyError: 'sweep'``.  With ``host.workers >= 2`` a
    ``sweep.speedup`` below :data:`SWEEP_SPEEDUP_FLOOR` fails too.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"bench file {path} does not exist (run `repro bench`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"bench file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"bench file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    for section, required_keys in BENCH_SECTIONS.items():
        if section not in payload:
            failures.append(
                f"bench file: section '{section}' is missing "
                "(partial or interrupted bench run?)")
            continue
        value = payload[section]
        if not isinstance(value, dict):
            failures.append(
                f"bench file: section '{section}' must be an object, "
                f"got {type(value).__name__}")
            continue
        for key in required_keys:
            if key not in value:
                failures.append(
                    f"bench file: section '{section}' is missing "
                    f"key '{key}'")
    experiments = payload.get("experiments")
    if isinstance(experiments, dict):
        for job_id, row in experiments.items():
            if not isinstance(row, dict) or "status" not in row:
                failures.append(
                    f"bench file: section 'experiments' row '{job_id}' "
                    "has no 'status' field")
    sweep, host = payload.get("sweep"), payload.get("host")
    if isinstance(sweep, dict) and isinstance(host, dict):
        speedup, workers = sweep.get("speedup"), host.get("workers")
        if (isinstance(speedup, (int, float)) and isinstance(workers, int)
                and workers >= 2 and speedup < SWEEP_SPEEDUP_FLOOR):
            failures.append(
                f"bench file: section 'sweep' speedup {speedup} on "
                f"{workers} workers is below {SWEEP_SPEEDUP_FLOOR} "
                "(the parallel sweep is slower than the serial one)")
    return failures


#: floors for the translated fast path: aggregate and per-workload
#: wall-clock speedup of the jit over the interpreter.  Six fresh
#: ``repro bench --quick`` runs on a 2-CPU Xeon read 5.09-7.43x
#: aggregate, sieve 5.05-7.60x and bubble 5.04-8.38x (``jit_gate`` in
#: BENCH_probe.json), so the floors catch a fast path that quietly
#: stopped being fast without failing a healthy one.
JIT_SPEEDUP_FLOOR = 5.0
JIT_WORKLOAD_SPEEDUP_FLOOR = 3.0


def check_jit_section(path: pathlib.Path) -> List[str]:
    """Validate the ``jit`` section of a bench telemetry file.

    Three gates, in order of importance:

    * **equivalence** -- every workload's jit run must report the same
      cycle and retired-instruction counts as the interpretive run
      (``equivalent: true``); the fast path is cycle-exact or it is
      wrong, and no speedup excuses a wrong answer;
    * **speedup floors** -- aggregate >= ``JIT_SPEEDUP_FLOOR``x and each
      workload >= ``JIT_WORKLOAD_SPEEDUP_FLOOR``x over the interpreter;
    * **coverage sanity** -- blocks compiled and entries taken are
      non-zero (a jit that never fires "passes" equivalence trivially).
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"bench file {path} does not exist (run `repro bench`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"bench file {path} is not valid JSON: {exc}"]
    section = payload.get("jit") if isinstance(payload, dict) else None
    if not isinstance(section, dict):
        return ["bench file: section 'jit' is missing "
                "(run `repro bench` with the translated fast path built)"]
    failures: List[str] = []
    if not section.get("equivalent", False):
        failures.append("jit: aggregate 'equivalent' flag is false -- the "
                        "translated fast path diverged from the interpreter")
    speedup = section.get("speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < JIT_SPEEDUP_FLOOR:
        failures.append(f"jit: aggregate speedup {speedup!r} is below the "
                        f"{JIT_SPEEDUP_FLOOR}x floor")
    workloads = section.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        failures.append("jit: section has no per-workload rows")
        return failures
    for name, row in sorted(workloads.items()):
        if not isinstance(row, dict):
            failures.append(f"jit: workload '{name}' row is not an object")
            continue
        if not row.get("equivalent", False):
            failures.append(f"jit: workload '{name}' is not cycle-exact "
                            "(jit vs interpreter counts diverged)")
        row_speedup = row.get("speedup", 0.0)
        if row_speedup < JIT_WORKLOAD_SPEEDUP_FLOOR:
            failures.append(
                f"jit: workload '{name}' speedup {row_speedup} is below "
                f"the {JIT_WORKLOAD_SPEEDUP_FLOOR}x floor")
        if not row.get("blocks_compiled"):
            failures.append(f"jit: workload '{name}' compiled no blocks "
                            "(the fast path never engaged)")
        if not row.get("cycle_coverage"):
            failures.append(f"jit: workload '{name}' reports zero cycle "
                            "coverage")
    return failures


#: keys a complete metrics summary must carry
METRICS_KEYS = ("per_workload", "analysis", "totals", "derived")


def check_metrics_file(path: pathlib.Path) -> List[str]:
    """Validate a ``METRICS_summary.json`` aggregate and its identities.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`).  A structurally sound summary still fails
    when the telemetry is inconsistent:

    * **CPI identity** -- each workload's counter-derived CPI
      (``pipeline.cycles / pipeline.instructions.retired``) must equal
      the analysis-module CPI recorded alongside it;
    * **accounting identities** -- per workload and on the suite totals,
      the counters must satisfy the invariants of
      :func:`repro.telemetry.metrics.check_counter_consistency` (stall
      cycles bounded by total cycles, retired+squashed bounded by
      fetched, late-miss retries equal to read+ifetch misses, ...);
    * **derived gauges** -- the summary's ``derived`` section must match
      what the summed counters derive to (no hand-edited gauges).
    """
    from repro.telemetry.metrics import (check_counter_consistency,
                                         derived_from_counters)

    path = pathlib.Path(path)
    if not path.exists():
        return [f"metrics file {path} does not exist (run `repro bench`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"metrics file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"metrics file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    for key in METRICS_KEYS:
        if not isinstance(payload.get(key), dict):
            failures.append(
                f"metrics file: section '{key}' is missing or not an "
                "object (partial or interrupted bench run?)")
    if failures:
        return failures
    if not payload["per_workload"]:
        failures.append("metrics file: section 'per_workload' is empty "
                        "(the workload-cpi sweep produced no snapshots)")
    analysis = payload["analysis"]
    for name, snapshot in sorted(payload["per_workload"].items()):
        if not isinstance(snapshot, dict):
            failures.append(f"metrics file: workload '{name}' snapshot "
                            "is not an object")
            continue
        counters = {key: value for key, value in snapshot.items()
                    if isinstance(value, int)}
        row = analysis.get(name)
        if not isinstance(row, dict) or "cpi" not in row:
            failures.append(f"metrics file: workload '{name}' has no "
                            "analysis CPI to check against")
            analysis_cpi = None
        else:
            analysis_cpi = row["cpi"]
        for issue in check_counter_consistency(counters, analysis_cpi):
            failures.append(f"metrics file: workload '{name}' failed "
                            f"{issue.name}: {issue.message}")
    totals = payload["totals"]
    for issue in check_counter_consistency(totals):
        failures.append(
            f"metrics file: suite totals failed {issue.name}: "
            f"{issue.message}")
    expected_derived = derived_from_counters(totals)
    for name, expected in expected_derived.items():
        recorded = payload["derived"].get(name)
        if recorded is None or abs(recorded - expected) > 1e-9:
            failures.append(
                f"metrics file: derived gauge '{name}' is {recorded!r}, "
                f"but the summed counters derive to {expected!r}")
    return failures


#: keys a complete multi section must carry
MULTI_KEYS = ("jobs", "ok", "failures", "rows", "curves")

#: keys every multi row must carry
MULTI_ROW_KEYS = ("workload", "nodes", "bus_latency", "invalidation",
                  "cycles", "bus", "result", "result_ok")

#: minimum psieve speedup at 4 nodes (measured: ~1.56 at the quick size,
#: ~2.25 at the full size -- below 1.2 the bus or barrier regressed)
MULTI_PSIEVE_N4_SPEEDUP = 1.2


def check_multi_file(path: pathlib.Path) -> List[str]:
    """Validate the ``multi`` section of a bench telemetry file.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`, never a ``KeyError`` traceback).  A
    structurally sound section still fails when the multiprocessor
    results are wrong:

    * **job failures** -- every scaling point must have completed;
    * **self-check** -- every row's ``result_ok`` (the workload's
      console output against the independently computed expectation);
    * **node-count invariance** -- the parallel workloads report the
      same result at every node count, so all rows of one workload must
      be bit-equal to the single-node reference;
    * **speedup identity** -- each curve's baseline (smallest node
      count) must have speedup exactly 1.0, and an ``N=1`` row can only
      be that baseline;
    * **contention monotonicity** -- at fixed bus latency, bus
      contention cycles must not decrease as nodes are added;
    * **measured scaling** -- when a psieve curve (bus latency 0,
      invalidation on) reaches 4 nodes, its speedup must clear
      :data:`MULTI_PSIEVE_N4_SPEEDUP`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"multi file {path} does not exist "
                "(run `repro bench --multi`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"multi file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"multi file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    multi = payload.get("multi")
    if not isinstance(multi, dict):
        return ["multi file: section 'multi' is missing or not an object "
                "(was the bench run started with --multi?)"]
    failures = []
    for key in MULTI_KEYS:
        if key not in multi:
            failures.append(f"multi file: section 'multi' is missing "
                            f"key '{key}'")
    if failures:
        return failures
    for job_id in multi["failures"]:
        failures.append(f"multi file: scaling point '{job_id}' failed "
                        "in the harness")
    rows = multi["rows"]
    if not isinstance(rows, dict) or not rows:
        failures.append("multi file: section 'multi' has no rows "
                        "(empty sweep?)")
        return failures
    by_workload: dict = {}
    for job_id, row in sorted(rows.items()):
        if not isinstance(row, dict):
            failures.append(f"multi file: row '{job_id}' is not an object")
            continue
        missing = [key for key in MULTI_ROW_KEYS if key not in row]
        if missing:
            failures.append(f"multi file: row '{job_id}' is missing "
                            f"{missing}")
            continue
        if not row["result_ok"]:
            failures.append(
                f"multi file: row '{job_id}' failed its self-check "
                f"(result {row['result']!r})")
        by_workload.setdefault(row["workload"], []).append((job_id, row))
    for workload, entries in sorted(by_workload.items()):
        entries.sort(key=lambda pair: pair[1]["nodes"])
        reference_id, reference = entries[0]
        for job_id, row in entries[1:]:
            if row["result"] != reference["result"]:
                failures.append(
                    f"multi file: row '{job_id}' result "
                    f"{row['result']!r} differs from the "
                    f"'{reference_id}' reference "
                    f"{reference['result']!r} (results must be "
                    "node-count invariant)")
    for label, curve in sorted(multi["curves"].items()):
        if not isinstance(curve, dict):
            failures.append(f"multi file: curve '{label}' is not an object")
            continue
        nodes = curve.get("nodes", [])
        speedup = curve.get("speedup", [])
        contention = curve.get("contention_cycles", [])
        if not nodes or not (len(nodes) == len(speedup)
                             == len(contention)):
            failures.append(f"multi file: curve '{label}' arrays are "
                            "empty or misaligned")
            continue
        if list(nodes) != sorted(set(nodes)):
            failures.append(f"multi file: curve '{label}' node counts "
                            f"{nodes} are not strictly increasing")
        if speedup[0] != 1.0:
            failures.append(
                f"multi file: curve '{label}' baseline speedup is "
                f"{speedup[0]!r}, must be exactly 1.0")
        if 1 in nodes and nodes.index(1) != 0:
            failures.append(
                f"multi file: curve '{label}' has an N=1 row that is "
                "not the baseline")
        for a, b in zip(contention, contention[1:]):
            if b < a:
                failures.append(
                    f"multi file: curve '{label}' contention cycles "
                    f"{contention} decrease with node count")
                break
        if (curve.get("workload") == "psieve"
                and curve.get("bus_latency") == 0
                and curve.get("invalidation") and 4 in nodes):
            measured = speedup[nodes.index(4)]
            if measured < MULTI_PSIEVE_N4_SPEEDUP:
                failures.append(
                    f"multi file: curve '{label}' speedup at 4 nodes is "
                    f"{measured}, below the {MULTI_PSIEVE_N4_SPEEDUP} "
                    "floor (bus or barrier regression)")
    return failures


#: keys a complete fuzz campaign report must carry
FUZZ_TOTALS_KEYS = ("jobs", "completed", "ok", "diverged",
                    "harness_failures")


def check_fuzz_file(path: pathlib.Path) -> List[str]:
    """Validate a ``FUZZ_campaign.json`` report and its verdict.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`); a structurally sound report still fails
    when the campaign is incomplete, diverged without a planted
    mutation, or lost jobs to the harness.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"fuzz file {path} does not exist (run `repro fuzz`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"fuzz file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"fuzz file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        failures.append("fuzz file: section 'totals' is missing or not "
                        "an object (partial or interrupted campaign?)")
        return failures
    for key in FUZZ_TOTALS_KEYS:
        if key not in totals:
            failures.append(f"fuzz file: section 'totals' is missing "
                            f"key '{key}'")
    if failures:
        return failures
    if not payload.get("complete", False):
        failures.append(
            f"fuzz file: campaign incomplete "
            f"({totals['completed']}/{totals['jobs']} jobs; resume it "
            "by rerunning the same `repro fuzz` command)")
    config = payload.get("config", {})
    if totals["diverged"] and not config.get("mutation"):
        failures.append(
            f"fuzz file: {totals['diverged']} unexplained model "
            "divergence(s) recorded (see the report's 'divergences')")
    if (config.get("mutation") and payload.get("complete")
            and not totals["diverged"]):
        failures.append(
            f"fuzz file: planted mutation {config['mutation']!r} was not "
            "caught -- the oracle failed its self-test")
    if totals["harness_failures"]:
        failures.append(
            f"fuzz file: {totals['harness_failures']} campaign job(s) "
            "failed in the harness (see the report's 'harness')")
    divergences = payload.get("divergences")
    if not isinstance(divergences, list):
        failures.append("fuzz file: section 'divergences' is missing or "
                        "not a list")
    return failures


def check_checkpoint_file(path: pathlib.Path) -> List[str]:
    """Validate a ``CHECKPOINT_campaign.json`` report and its verdict.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`); a structurally sound report still fails
    when any recovery gate failed:

    * **equivalence** -- every restore-equivalence case bit-identical
      (no divergences, no harness failures);
    * **chaos** -- no diverged merges, no harness failures, and at
      least one job *provably resumed* from a snapshot
      (``resumes > 0``: a chaos gate where nothing ever resumes tests
      nothing);
    * **corruption** -- every tamper case rejected with its named error
      and fallen back to a good generation.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"checkpoint file {path} does not exist "
                "(run `repro checkpoint`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"checkpoint file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"checkpoint file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    for section in ("equivalence", "chaos", "corruption"):
        if not isinstance(payload.get(section), dict):
            failures.append(
                f"checkpoint file: section '{section}' is missing or not "
                "an object (partial or interrupted campaign?)")
    if failures:
        return failures
    equivalence = payload["equivalence"]
    if equivalence.get("diverged"):
        failures.append(
            f"checkpoint file: {equivalence['diverged']} restore-"
            "equivalence case(s) diverged from the straight run "
            "(see the report's 'equivalence.failures')")
    if equivalence.get("harness_failures"):
        failures.append(
            f"checkpoint file: {equivalence['harness_failures']} "
            "equivalence job(s) failed in the harness")
    chaos = payload["chaos"]
    if not chaos.get("resumes"):
        failures.append(
            "checkpoint file: chaos gate recorded zero resumes -- no "
            "killed job provably restarted from a snapshot")
    if chaos.get("diverged"):
        failures.append(
            f"checkpoint file: {chaos['diverged']} chaos job(s) merged "
            "results that differ from the serial uninterrupted reference")
    if chaos.get("harness_failures"):
        failures.append(
            f"checkpoint file: {chaos['harness_failures']} chaos job(s) "
            "failed in the harness")
    corruption = payload["corruption"]
    cases = corruption.get("cases")
    if not isinstance(cases, list) or not cases:
        failures.append("checkpoint file: section 'corruption' has no "
                        "cases")
    else:
        for case in cases:
            if case.get("status") != "ok":
                failures.append(
                    f"checkpoint file: corruption case "
                    f"'{case.get('case')}' ended '{case.get('status')}' "
                    f"({case.get('error')})")
    return failures


#: floors for the service benchmark: cache hits must be at least this
#: much faster than cold misses at p50.  Measured values sit around
#: 300-1000x; the quick (CI smoke) floor is relaxed because tiny runs
#: put event-loop contention, not cache lookups, in the hit p50.
SERVICE_HIT_SPEEDUP_FLOOR = 100.0
SERVICE_HIT_SPEEDUP_FLOOR_QUICK = 25.0

#: keys a complete service benchmark section must carry
SERVICE_KEYS = ("schema", "requests_sent", "responses", "hit_rate",
                "shed_rate", "latency_ms", "hit_speedup_p50",
                "equivalence", "breaker", "cache")

#: disturbance classes a complete service chaos report must cover
SERVICE_DISTURBANCES = ("worker-kill", "cache-corruption", "overload",
                        "malformed-frame", "slow-client", "drain")


def check_service_section(path: pathlib.Path) -> List[str]:
    """Validate the ``service`` section of ``BENCH_service.json``.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`).  A structurally sound section still
    fails when the measured service economics or correctness slipped:

    * **hit speedup** -- cache hits at least
      :data:`SERVICE_HIT_SPEEDUP_FLOOR`x faster than cold misses at
      p50 (:data:`SERVICE_HIT_SPEEDUP_FLOOR_QUICK`x for quick runs);
    * **equivalence** -- every catalog entry recomputed without the
      cache produced a byte-identical canonical payload (zero
      mismatches, at least one check);
    * **clean responses** -- zero error responses under plain load;
    * **sanity** -- rates inside [0, 1], p50 <= p99.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"service file {path} does not exist "
                "(run `repro service-bench`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"service file {path} is not valid JSON: {exc}"]
    section = payload.get("service") if isinstance(payload, dict) else None
    if not isinstance(section, dict):
        return ["service file: section 'service' is missing or not an "
                "object (was this written by `repro service-bench`?)"]
    failures = []
    for key in SERVICE_KEYS:
        if key not in section:
            failures.append(f"service file: section 'service' is missing "
                            f"key '{key}'")
    if failures:
        return failures
    floor = (SERVICE_HIT_SPEEDUP_FLOOR_QUICK if section.get("quick")
             else SERVICE_HIT_SPEEDUP_FLOOR)
    speedup = section["hit_speedup_p50"]
    if not isinstance(speedup, (int, float)) or speedup < floor:
        failures.append(
            f"service file: hit speedup p50 {speedup!r} is below the "
            f"{floor}x floor (content-addressed cache no longer pays)")
    equivalence = section["equivalence"]
    if not isinstance(equivalence, dict) or \
            not equivalence.get("checked"):
        failures.append("service file: equivalence pass checked nothing "
                        "(cached-vs-recomputed oracle never ran)")
    elif equivalence.get("mismatches"):
        failures.append(
            f"service file: {equivalence['mismatches']} cached response(s) "
            "differ from their uncached recomputation -- the cache is "
            "serving wrong payloads")
    responses = section["responses"]
    if not isinstance(responses, dict) or responses.get("error"):
        failures.append(
            f"service file: {responses.get('error')} error response(s) "
            "under plain load (expected zero)")
    for rate_key in ("hit_rate", "shed_rate"):
        rate = section[rate_key]
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            failures.append(f"service file: {rate_key} {rate!r} is not a "
                            "ratio in [0, 1]")
    latency = section["latency_ms"]
    if not isinstance(latency, dict):
        failures.append("service file: 'latency_ms' is not an object")
    else:
        for lo, hi in (("p50", "p99"), ("hit_p50", "hit_p99"),
                       ("miss_p50", "miss_p99")):
            if latency.get(lo, 0) > latency.get(hi, 0):
                failures.append(
                    f"service file: latency {lo} {latency.get(lo)!r} "
                    f"exceeds {hi} {latency.get(hi)!r}")
    return failures


def check_service_campaign(path: pathlib.Path) -> List[str]:
    """Validate a ``SERVICE_campaign.json`` chaos report.

    Every disturbance class must be present and held, with zero wrong
    responses anywhere, the breaker must have opened *and* re-closed,
    the drain must have lost nothing, and the worst per-disturbance
    p99 must sit under the report's own bound.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"service campaign {path} does not exist "
                "(run `repro service-chaos`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"service campaign {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"service campaign {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    disturbances = payload.get("disturbances")
    summary = payload.get("summary")
    if not isinstance(disturbances, dict):
        failures.append("service campaign: section 'disturbances' is "
                        "missing or not an object")
    if not isinstance(summary, dict):
        failures.append("service campaign: section 'summary' is missing "
                        "or not an object")
    if failures:
        return failures
    for name in SERVICE_DISTURBANCES:
        row = disturbances.get(name)
        if not isinstance(row, dict):
            failures.append(f"service campaign: disturbance '{name}' "
                            "was not run")
            continue
        if row.get("wrong"):
            failures.append(
                f"service campaign: disturbance '{name}' produced "
                f"{row['wrong']} wrong response(s)")
        if not row.get("held"):
            failures.append(
                f"service campaign: disturbance '{name}' invariant did "
                "not hold (see its row for which leg failed)")
    if summary.get("wrong_responses"):
        failures.append(
            f"service campaign: {summary['wrong_responses']} wrong "
            "response(s) across the campaign (must be zero)")
    if not summary.get("breaker_opened"):
        failures.append("service campaign: the breaker never opened "
                        "(overload disturbance did not bite)")
    if not summary.get("breaker_reclosed"):
        failures.append("service campaign: the breaker never re-closed "
                        "(no recovery after the open interval)")
    if summary.get("drain_lost"):
        failures.append(
            f"service campaign: drain lost {summary['drain_lost']} "
            "accepted job(s) (graceful shutdown must lose none)")
    worst = summary.get("worst_p99_ms", 0.0)
    bound = summary.get("p99_bound_ms", 0.0)
    if not bound or worst > bound:
        failures.append(
            f"service campaign: worst p99 {worst!r} ms exceeds the "
            f"{bound!r} ms bound")
    if summary.get("exit_code") != 0:
        failures.append(
            f"service campaign: recorded exit code "
            f"{summary.get('exit_code')!r} (0 = all invariants held)")
    return failures


#: keys every devices-gate demo row must carry
DEVICES_ROW_KEYS = ("uart_log", "cycles", "interrupts", "expected_ok",
                    "halted", "jit", "checkpoint", "ok")


def check_devices_file(path: pathlib.Path) -> List[str]:
    """Validate a ``DEVICES_results.json`` software-stack gate report.

    Structural problems read as named-section messages (like
    :func:`check_bench_file`).  A structurally sound report still
    fails when any demo's gate did not hold:

    * **boot** -- the demo halted and its UART log equals the pinned
      golden log, with at least one delivered interrupt (a boot that
      never preempts tests nothing);
    * **jit** -- the translated-fast-path run was bit-exact (log,
      cycles, instructions) and compiled at least one block;
    * **checkpoint** -- the mid-boot snapshot/restore run finished
      bit-identical to the straight run.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [f"devices file {path} does not exist "
                "(run `repro devices`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return [f"devices file {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"devices file {path}: top level must be an object, "
                f"got {type(payload).__name__}"]
    failures = []
    demos = payload.get("demos")
    summary = payload.get("summary")
    if not isinstance(demos, dict) or not demos:
        failures.append("devices file: section 'demos' is missing or "
                        "empty (partial or interrupted gate run?)")
    if not isinstance(summary, dict):
        failures.append("devices file: section 'summary' is missing or "
                        "not an object")
    if failures:
        return failures
    for failure in summary.get("harness_failures", []):
        failures.append(f"devices file: harness failure: {failure}")
    for name, row in sorted(demos.items()):
        if not isinstance(row, dict):
            failures.append(f"devices file: demo '{name}' row is not an "
                            "object")
            continue
        missing = [key for key in DEVICES_ROW_KEYS if key not in row]
        if missing:
            failures.append(f"devices file: demo '{name}' is missing "
                            f"{missing}")
            continue
        if not row["halted"]:
            failures.append(f"devices file: demo '{name}' did not halt")
        if not row["expected_ok"]:
            failures.append(
                f"devices file: demo '{name}' boot log differs from its "
                f"pinned golden log (got {row['uart_log']!r})")
        if not row["interrupts"]:
            failures.append(f"devices file: demo '{name}' delivered zero "
                            "interrupts (nothing was preempted)")
        jit = row["jit"]
        if not jit.get("ok"):
            failures.append(f"devices file: demo '{name}' diverged under "
                            "the translated fast path")
        if not jit.get("blocks_compiled"):
            failures.append(f"devices file: demo '{name}' compiled no "
                            "blocks under the JIT (fast path never "
                            "engaged)")
        ckpt = row["checkpoint"]
        if not ckpt.get("ok"):
            failures.append(
                f"devices file: demo '{name}' diverged across "
                f"checkpoint/restore (snapshot at cycle "
                f"{ckpt.get('snapshot_cycle')})")
    return failures


def check_table1_orderings(trace_length: int) -> List[str]:
    """E1: the six branch schemes keep the paper's ordering."""
    from repro.analysis.branch_schemes import table1_rows

    costs = dict(table1_rows())
    failures = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(f"Table 1: {message} ({costs})")

    for slots in ("1", "2"):
        expect(costs[f"{slots}-slot squash optional"]
               <= costs[f"{slots}-slot always squash"],
               f"{slots}-slot optional squash no longer best")
        expect(costs[f"{slots}-slot always squash"]
               < costs[f"{slots}-slot no squash"],
               f"{slots}-slot squashing no longer beats no-squash")
    expect(costs["1-slot no squash"] < costs["2-slot no squash"],
           "one slot no longer beats two (no squash)")
    expect(costs["1-slot squash optional"] < costs["2-slot squash optional"],
           "one slot no longer beats two (squash optional)")
    for name, value in costs.items():
        slots = 2 if name.startswith("2") else 1
        expect(1.0 <= value <= 1.0 + slots,
               f"{name} cost {value} outside [1, 1+slots]")
    return failures


def check_fetchback_ratio(trace_length: int) -> List[str]:
    """E4: the double fetch-back almost halves the miss ratio."""
    from repro.harness.experiments import icache_organization_point

    points = {
        fb: icache_organization_point(sets=4, ways=8, block_words=16,
                                      fetchback=fb,
                                      miss_cycles=max(2, fb),
                                      trace_length=trace_length)
        for fb in (1, 2, 3, 4)
    }
    failures = []
    ratio = points[2]["miss_ratio"] / points[1]["miss_ratio"]
    if not ratio < 0.6:
        failures.append(
            f"fetch-back: 2-word/1-word miss ratio {ratio:.2f} >= 0.6 "
            "(the paper's 'almost halves' no longer holds)")
    for fb in (3, 4):
        if points[fb]["fetch_cost"] < points[2]["fetch_cost"] - 1e-9:
            failures.append(
                f"fetch-back: {fb}-word fetch cost "
                f"{points[fb]['fetch_cost']:.3f} beats 2-word "
                f"{points[2]['fetch_cost']:.3f} (paper: not advantageous)")
    return failures


def check_service_time(trace_length: int) -> List[str]:
    """E5: miss service time dominates miss ratio."""
    from repro.icache.explorer import service_time_study
    from repro.traces.synthetic import paper_regime_program

    trace = list(paper_regime_program().instruction_trace(trace_length))
    paper2, paper3, best3 = service_time_study(trace)
    failures = []
    if not paper2.fetch_cost < paper3.fetch_cost:
        failures.append("service time: 2-cycle miss no longer beats 3-cycle "
                        "on the paper organization")
    if not paper2.fetch_cost < best3.fetch_cost:
        failures.append(
            "service time: a 3-cycle organization "
            f"({best3.label}) recovered the 2-cycle implementation "
            "(contradicts the paper's central cache result)")
    return failures


def check_ecache_sweep(trace_length: int) -> List[str]:
    """E15: monotone improvement with size; 64K captures the locality."""
    from repro.harness.experiments import ecache_size_point

    sizes = (4096, 16384, 65536)
    rates = [ecache_size_point(size, references=trace_length)["miss_rate"]
             for size in sizes]
    failures = []
    if not all(a >= b for a, b in zip(rates, rates[1:])):
        failures.append(f"ecache: miss rate not monotone over {sizes}: "
                        f"{[round(r, 3) for r in rates]}")
    if not rates[2] < 0.5 * rates[0]:
        failures.append("ecache: 64K-word point no longer captures most of "
                        f"the locality ({rates[2]:.3f} vs {rates[0]:.3f})")
    return failures


def check_trace_replay_equivalence(trace_length: int) -> List[str]:
    """Trace replay: Table 1 replays to the live ordering (and the live
    numbers, exactly), and the Icache replay model matches the live cache."""
    import tempfile

    import numpy as np

    from repro.analysis.branch_schemes import table1
    from repro.analysis.trace_replay import table1_traced
    from repro.core.config import IcacheConfig
    from repro.icache import trace_sim
    from repro.icache.cache import simulate
    from repro.traces.store import TraceStore
    from repro.traces.synthetic import paper_regime_program

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        live = table1()
        traced = table1_traced(store=TraceStore(root=tmp))
    for a, b in zip(live, traced):
        if (a.cycles, a.executions) != (b.cycles, b.executions):
            failures.append(
                f"trace replay: {a.scheme.name} diverges from live "
                f"(live {a.cycles}/{a.executions} cycles/execs, "
                f"traced {b.cycles}/{b.executions})")

    def ranking(evaluations):
        return [e.scheme.name
                for e in sorted(evaluations,
                                key=lambda e: (e.cycles_per_branch,
                                               e.scheme.name))]

    if ranking(live) != ranking(traced):
        failures.append(
            f"trace replay: Table 1 ordering diverges from live "
            f"(live {ranking(live)}, traced {ranking(traced)})")

    trace = np.fromiter(
        paper_regime_program().instruction_trace(trace_length),
        dtype=np.int64, count=trace_length)
    config = IcacheConfig()  # the paper organization
    live_stats = simulate(config, trace.tolist())
    replay_stats = trace_sim.replay(config, trace)
    if (live_stats.misses, live_stats.words_filled,
            live_stats.tag_allocations) != (
            replay_stats.misses, replay_stats.words_filled,
            replay_stats.tag_allocations):
        failures.append(
            f"trace replay: Icache replay diverges from the live cache "
            f"(live {live_stats}, replay {replay_stats})")
    return failures


CHECKS: List[Tuple[str, Callable[[int], List[str]]]] = [
    ("E1 Table 1 branch-scheme orderings", check_table1_orderings),
    ("E4 fetch-back miss-ratio halving", check_fetchback_ratio),
    ("E5 service time beats miss ratio", check_service_time),
    ("E15 Ecache size sweep", check_ecache_sweep),
    ("Trace-replay equivalence (Table 1 + Icache)",
     check_trace_replay_equivalence),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_results",
        description="re-derive paper-shape orderings; exit 1 on regression")
    parser.add_argument("--trace-length", type=int,
                        default=DEFAULT_TRACE_LENGTH,
                        help="synthetic trace length for the cache checks")
    parser.add_argument("--bench-file", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="also validate the named sections of a bench "
                             "telemetry file (BENCH_pipeline.json) and its "
                             "sweep speedup floor")
    parser.add_argument("--fuzz-file", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="also validate a fuzz campaign report "
                             "(FUZZ_campaign.json): structure, "
                             "completeness, and a clean verdict")
    parser.add_argument("--metrics-file", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="also audit an aggregated metrics summary "
                             "(METRICS_summary.json): counter-derived CPI "
                             "must equal the analysis CPI, and the "
                             "accounting identities must hold")
    parser.add_argument("--jit", dest="jit_file", type=pathlib.Path,
                        default=None, metavar="PATH",
                        help="also validate the 'jit' section of a bench "
                             "telemetry file: cycle-exact equivalence, "
                             "speedup floors, non-zero block coverage")
    parser.add_argument("--multi", dest="multi_file", type=pathlib.Path,
                        default=None, metavar="PATH",
                        help="also validate the 'multi' section of a bench "
                             "telemetry file: self-checks, node-count "
                             "invariant results, speedup(N=1)==1.0, "
                             "monotone bus contention, psieve N=4 speedup")
    parser.add_argument("--checkpoint", dest="checkpoint_file",
                        type=pathlib.Path, default=None, metavar="PATH",
                        help="also validate a checkpoint campaign report "
                             "(CHECKPOINT_campaign.json): restore "
                             "equivalence, chaos resumes > 0, and every "
                             "corruption case rejected")
    parser.add_argument("--devices", dest="devices_file",
                        type=pathlib.Path, default=None, metavar="PATH",
                        help="also validate a devices gate report "
                             "(DEVICES_results.json): pinned boot logs, "
                             "interrupts delivered, JIT bit-exact, "
                             "checkpoint/restore bit-identical")
    parser.add_argument("--service", dest="service_file",
                        type=pathlib.Path, default=None, metavar="PATH",
                        help="also validate the 'service' section of "
                             "BENCH_service.json: hit-speedup floor, "
                             "byte-identical cached-vs-recomputed "
                             "payloads, zero error responses")
    parser.add_argument("--service-campaign", dest="service_campaign",
                        type=pathlib.Path, default=None, metavar="PATH",
                        help="also validate a SERVICE_campaign.json chaos "
                             "report: every disturbance held with zero "
                             "wrong responses, breaker opened and "
                             "re-closed, drain lost nothing")
    args = parser.parse_args(argv)

    all_failures: List[str] = []
    if args.bench_file is not None:
        failures = check_bench_file(args.bench_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] bench telemetry file structure")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.metrics_file is not None:
        failures = check_metrics_file(args.metrics_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] metrics summary consistency")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.fuzz_file is not None:
        failures = check_fuzz_file(args.fuzz_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] fuzz campaign report")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.jit_file is not None:
        failures = check_jit_section(args.jit_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] translated fast path (jit) section")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.multi_file is not None:
        failures = check_multi_file(args.multi_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] multiprocessor scaling section")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.checkpoint_file is not None:
        failures = check_checkpoint_file(args.checkpoint_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] checkpoint recovery gates")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.devices_file is not None:
        failures = check_devices_file(args.devices_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] devices gate report")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.service_file is not None:
        failures = check_service_section(args.service_file)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] service benchmark section")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if args.service_campaign is not None:
        failures = check_service_campaign(args.service_campaign)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] service chaos campaign")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    for name, check in CHECKS:
        failures = check(args.trace_length)
        status = "ok" if not failures else "FAIL"
        print(f"[{status:>4}] {name}")
        for failure in failures:
            print(f"       - {failure}")
        all_failures.extend(failures)
    if all_failures:
        print(f"\n{len(all_failures)} paper-shape regression(s) detected",
              file=sys.stderr)
        return 1
    print("\nall paper-shape orderings hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

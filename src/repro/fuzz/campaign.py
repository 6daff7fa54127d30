"""The fuzz campaign: seeded programs cross-checked across the models.

Fans seeded generate->check->shrink jobs across the hardened parallel
:class:`repro.harness.runner.Runner` in one ``run`` call (the same
driver shape as the faults campaign), aggregates the results in memory
into a deterministic report -- no timing fields, rows sorted by job
id, so serial and parallel runs write byte-identical reports -- and
writes it atomically to ``FUZZ_campaign.json`` at the repo root.  There
is no resume: a rerun runs every job again on the code as it stands.

Verdict (:func:`gate`): an unexplained model divergence is a
*finding*; a job that died in the harness (error/timeout/crashed --
infrastructure, not a finding) is a *harness* failure; a campaign whose
jobs were interrupted (SIGINT/SIGTERM) is *incomplete*.  Divergences
produced by a planted ``--mutate`` bug are self-test findings, not real
ones; they are reported but pass -- and inversely, a completed mutation
campaign that caught *nothing* is a finding, because the oracle just
missed a bug it was planted to find.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.fuzz.gen import GenConfig, generate_program
from repro.fuzz.oracle import PAIR_GOLDEN_PIPELINE, check_all
from repro.fuzz.shrink import count_instructions, shrink
from repro.harness.campaign import (FINDING, HARNESS, INCOMPLETE, REPO_ROOT,
                                    Failure, OptionError,
                                    add_runner_arguments, write_json_atomic)
from repro.harness.runner import Job, JobResult, Runner

DEFAULT_REPORT = REPO_ROOT / "FUZZ_campaign.json"

#: per-job wall-clock watchdog; generation + three model runs + a shrink
#: of a small program fit comfortably, anything longer hung
JOB_TIMEOUT = 120.0

MODES = ("isa", "lang", "os")

#: keys a complete report's ``totals`` section carries
TOTALS_KEYS = ("jobs", "completed", "ok", "diverged", "harness_failures")


# ------------------------------------------------------------------ worker
def fuzz_point(seed: int, mode: str, quick: bool = False,
               mutation: Optional[str] = None,
               shrink_failures: bool = True) -> Dict[str, Any]:
    """One campaign job: generate, cross-check, shrink on divergence.

    Raises on generator/harness malfunctions (the Runner classifies those
    as harness failures); returns a picklable verdict row otherwise.
    """
    config = GenConfig(mode=mode, quick=quick)
    generated = generate_program(seed, config)
    mutator = None
    if mutation:
        from repro.fuzz.mutation import get_mutator
        mutator = get_mutator(mutation)
    reports = check_all(generated, config=None, golden_mutator=mutator)
    row: Dict[str, Any] = {"seed": seed, "mode": mode}
    if not reports:
        row["status"] = "ok"
        return row
    row["status"] = "diverged"
    row["reports"] = [report.to_dict() for report in reports]
    first = reports[0]
    if shrink_failures and first.pair == PAIR_GOLDEN_PIPELINE:
        small = shrink(generated, first, golden_mutator=mutator)
        row["shrunk_source"] = small.source
        row["shrunk_instructions"] = count_instructions(small.source, mode)
    else:
        # live-vs-replay divergences depend on the whole access stream;
        # record the full program rather than pretending to minimize
        row["shrunk_source"] = generated.source
        row["shrunk_instructions"] = count_instructions(
            generated.source, mode)
    return row


def campaign_jobs(seeds: int, modes: Sequence[str] = MODES,
                  quick: bool = False, mutation: Optional[str] = None,
                  timeout: Optional[float] = JOB_TIMEOUT) -> List[Job]:
    """The seeded job grid: every seed runs in every requested mode."""
    jobs = []
    for mode in modes:
        for seed in range(seeds):
            jobs.append(Job(
                id=f"fuzz/{mode}-{seed:04d}",
                fn="repro.fuzz.campaign:fuzz_point",
                params={"seed": seed, "mode": mode, "quick": quick,
                        "mutation": mutation},
                timeout=timeout,
                sweep="fuzz"))
    return jobs


def _check_options(seeds: int, modes: Sequence[str],
                   mutation: Optional[str]) -> None:
    """Raise :class:`OptionError` for options no job could run with."""
    if seeds < 1:
        raise OptionError(f"seeds must be at least 1, got {seeds}")
    if (not modes or len(set(modes)) != len(modes)
            or not set(modes) <= set(MODES)):
        raise OptionError(f"modes must be distinct names from "
                          f"{', '.join(MODES)}, got {','.join(modes)!r}")
    if mutation is not None:
        from repro.fuzz.mutation import MUTATIONS

        if mutation not in MUTATIONS:
            raise OptionError(f"unknown mutation {mutation!r} (valid: "
                              f"{', '.join(sorted(MUTATIONS))})")


# ------------------------------------------------------------- aggregation
def _aggregate(results: List[JobResult],
               config: Dict[str, Any]) -> Dict[str, Any]:
    """The campaign report: a pure, order-stable function of the results
    (an interrupted job is not a verdict and leaves the report
    incomplete)."""
    ok = completed = 0
    divergences: List[Dict[str, Any]] = []
    harness: Dict[str, Any] = {}
    for result in sorted(results, key=lambda r: r.job_id):
        verdict = result.value
        if result.status == "interrupted":
            continue
        completed += 1
        if not result.ok:
            harness[result.job_id] = {"status": result.status,
                                      "error_kind": result.error_kind,
                                      "error": result.error}
        elif verdict["status"] == "ok":
            ok += 1
        else:
            divergences.append({
                "seed": verdict["seed"],
                "mode": verdict["mode"],
                "reports": verdict["reports"],
                "shrunk_instructions": verdict["shrunk_instructions"],
                "shrunk_source": verdict["shrunk_source"],
            })
    payload: Dict[str, Any] = {
        "schema": 1,
        "config": config,
        "totals": {
            "jobs": len(results),
            "completed": completed,
            "ok": ok,
            "diverged": len(divergences),
            "harness_failures": len(harness),
        },
        "complete": completed == len(results),
        "divergences": divergences,
    }
    if harness:
        payload["harness"] = harness
    return payload


# ------------------------------------------------------------------ driver
def run_campaign(seeds: int = 50,
                 modes: Sequence[str] = MODES,
                 quick: bool = False,
                 workers: Optional[int] = None,
                 parallel: bool = True,
                 mutation: Optional[str] = None,
                 output: Optional[pathlib.Path] = None,
                 corpus_dir: Optional[pathlib.Path] = None,
                 write_corpus: bool = True) -> Dict[str, Any]:
    """Run the campaign and persist the structured report.

    Raises :class:`OptionError` before any job runs for fewer than one
    seed or mode, an unknown or repeated mode, or an unknown mutation.
    """
    modes = tuple(modes)
    _check_options(seeds, modes, mutation)
    jobs = campaign_jobs(seeds, modes=modes, quick=quick, mutation=mutation)
    runner = Runner(max_workers=workers, default_timeout=JOB_TIMEOUT)
    results = runner.run(jobs, parallel=parallel)

    config = {"seeds": seeds, "modes": list(modes), "quick": quick,
              "mutation": mutation}
    payload = _aggregate(results, config)
    output = pathlib.Path(output) if output else DEFAULT_REPORT
    write_json_atomic(output, payload)

    if write_corpus and mutation is None:
        from repro.fuzz import corpus as corpus_mod
        from repro.fuzz.oracle import DivergenceReport

        for divergence in payload["divergences"]:
            if not divergence.get("reports"):
                continue
            first = divergence["reports"][0]
            report = DivergenceReport(pair=first["pair"],
                                      kind=first["kind"],
                                      mismatches=first["mismatches"])
            base = generate_program(
                divergence["seed"],
                GenConfig(mode=divergence["mode"], quick=quick))
            shrunk = dataclasses.replace(
                base, source=divergence["shrunk_source"])
            corpus_mod.write_entry(shrunk, report, corpus_dir=corpus_dir,
                                   note="auto-filed by repro campaign fuzz")

    payload["report_path"] = str(output)
    return payload


def add_arguments(parser) -> None:
    """The fuzz campaign's description and options."""
    parser.description = (
        "Generate seeded random programs (ISA instruction sequences, SPL "
        "sources, and OS-mode trap/interrupt programs), run each on the "
        "golden simulator (naive code) and the pipeline (reorganized "
        "code), replay the captured cache streams through the trace "
        "models, and compare everything observable; os-mode programs "
        "instead cross-check the interpreter, the JIT, and a "
        "checkpoint/restore run cycle-exactly.  Divergent programs are "
        "auto-shrunk to a minimal repro and filed under fuzz_corpus/.  "
        "A finding is an unexplained model divergence.")
    parser.add_argument("--seeds", type=int, default=50,
                        help="seeds per mode (default 50)")
    parser.add_argument("--modes", default=None, metavar="M[,M]",
                        help="comma-separated modes: isa, lang, os "
                             "(default all three)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller generated programs (CI smoke)")
    add_runner_arguments(parser)
    parser.add_argument("--mutate", default=None, metavar="NAME",
                        help="dev-only: plant a known golden-model bug "
                             "(see repro.fuzz.mutation); divergences are "
                             "then expected and do not fail the campaign")
    parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="where to file shrunk repros (default: "
                             "fuzz_corpus/ at the repo root)")
    parser.add_argument("--no-corpus", action="store_true",
                        help="do not file repros for divergences")


def run(args) -> Dict[str, Any]:
    """Run the campaign from parsed command-line options."""
    modes = tuple(args.modes.split(",")) if args.modes else MODES
    return run_campaign(seeds=args.seeds, modes=modes, quick=args.quick,
                        workers=args.workers, parallel=not args.serial,
                        mutation=args.mutate, output=args.output,
                        corpus_dir=args.corpus_dir,
                        write_corpus=not args.no_corpus)


def gate(payload: Dict[str, Any]) -> List[Failure]:
    """The campaign's verdict: structure, completeness, and a clean
    (or, under ``--mutate``, a self-test-passing) oracle."""
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        return [Failure(HARNESS, "section 'totals' is missing or not an "
                                 "object (partial or interrupted "
                                 "campaign?)")]
    missing = [key for key in TOTALS_KEYS if key not in totals]
    if missing:
        return [Failure(HARNESS, f"section 'totals' is missing key "
                                 f"'{key}'") for key in missing]
    failures = []
    complete = payload.get("complete", False)
    if not complete:
        failures.append(Failure(
            INCOMPLETE, f"campaign incomplete ({totals['completed']}/"
                        f"{totals['jobs']} jobs: jobs were interrupted; "
                        "finish it by rerunning the same `repro campaign "
                        "fuzz` command)"))
    mutation = payload.get("config", {}).get("mutation")
    if totals["diverged"] and not mutation:
        failures.append(Failure(
            FINDING, f"{totals['diverged']} unexplained model "
                     "divergence(s) recorded (see the report's "
                     "'divergences'; shrunk repros go to fuzz_corpus/)"))
    if mutation and complete and not totals["diverged"]:
        failures.append(Failure(
            FINDING, f"planted mutation {mutation!r} was not caught -- "
                     "the oracle failed its self-test"))
    if totals["harness_failures"]:
        failures.append(Failure(
            HARNESS, f"{totals['harness_failures']} campaign job(s) "
                     "failed in the harness (see the report's 'harness')"))
    if not isinstance(payload.get("divergences"), list):
        failures.append(Failure(HARNESS, "section 'divergences' is "
                                         "missing or not a list"))
    return failures


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    totals = payload["totals"]
    config = payload["config"]
    lines = [
        f"fuzz campaign     {totals['completed']}/{totals['jobs']} jobs "
        f"({config['seeds']} seeds x {'/'.join(config['modes'])}"
        + (", quick" if config.get("quick") else "")
        + (f", mutation={config['mutation']}" if config.get("mutation")
           else "") + ")",
        f"  agree           {totals['ok']}",
        f"  diverged        {totals['diverged']}",
        f"  harness         {totals['harness_failures']} failed jobs",
    ]
    for divergence in payload["divergences"][:10]:
        first = divergence["reports"][0] if divergence["reports"] else {}
        mismatches = first.get("mismatches", [])
        detail = (str(mismatches[0].get("detail", mismatches[0]))
                  if mismatches else "")
        lines.append(
            f"  ! {divergence['mode']} seed {divergence['seed']} "
            f"[{first.get('pair')}/{first.get('kind')}] shrunk to "
            f"{divergence['shrunk_instructions']} instructions: {detail}")
    for job_id, failure in sorted(payload.get("harness", {}).items())[:5]:
        lines.append(f"  x {job_id}: {failure['status']} "
                     f"({failure.get('error_kind')})")
    return "\n".join(lines)

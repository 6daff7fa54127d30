"""The fuzz campaign: seeded programs cross-checked across the models.

Fans seeded generate->check->shrink jobs across the hardened parallel
:class:`repro.harness.runner.Runner` (same timeout/retry/chaos machinery
as the faults campaign), aggregates a deterministic report, and writes it
atomically to ``FUZZ_campaign.json`` at the repo root.

Campaigns are **resumable**: every finished job is appended to a JSONL
journal next to the report, and a rerun of the same command skips every
seed already journaled.  The final report is computed *only* from the
journal, contains no timing fields, and is sorted deterministically --
so an interrupted campaign, resumed, produces a byte-identical
``FUZZ_campaign.json`` to an uninterrupted one.  A journal whose header
does not match the requested configuration is discarded (different
campaign, not a resume).

``--max-seconds`` is a wall-clock budget: jobs are submitted in batches
and submission stops once the budget is spent (finished work is already
journaled, so the next invocation picks up where this one stopped).

Verdict (:func:`gate`): an unexplained model divergence is a
*finding*; a job that died in the harness (error/timeout/crashed --
infrastructure, not a finding) is a *harness* failure; a campaign the
budget stopped is *incomplete*.  Divergences produced by a planted
``--mutate`` bug are self-test findings, not real ones; they are
reported but pass -- and inversely, a completed mutation campaign that
caught *nothing* is a finding, because the oracle just missed a bug it
was planted to find.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.fuzz.gen import GenConfig, generate_program
from repro.fuzz.oracle import PAIR_GOLDEN_PIPELINE, check_all
from repro.fuzz.shrink import count_instructions, shrink
from repro.harness.campaign import (FINDING, HARNESS, INCOMPLETE, REPO_ROOT,
                                    Failure, add_runner_arguments,
                                    write_json_atomic)
from repro.harness.runner import ChaosMonkey, Job, Runner

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


# ----------------------------------------------------------------- journal
def journal_path_for(output: pathlib.Path) -> pathlib.Path:
    return output.with_name(output.stem + ".journal.jsonl")


def _journal_header(seeds: int, modes: Sequence[str], quick: bool,
                    mutation: Optional[str]) -> Dict[str, Any]:
    return {"journal": 1, "seeds": seeds, "modes": list(modes),
            "quick": quick, "mutation": mutation}


def _load_journal(path: pathlib.Path,
                  header: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Rows already completed, keyed by job id.

    Returns empty (and forgets the file) when the journal is missing or
    belongs to a differently-configured campaign.  A torn final line
    (killed mid-append) is dropped; everything before it is kept.
    """
    if not path.is_file():
        return {}
    rows: Dict[str, Dict[str, Any]] = {}
    with path.open() as stream:
        for index, line in enumerate(stream):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from an interrupted append
            if index == 0:
                if record != header:
                    return {}
                continue
            if isinstance(record, dict) and "id" in record:
                rows.setdefault(record["id"], record)
    return rows


def _append_journal(path: pathlib.Path, records: List[Dict[str, Any]],
                    header: Dict[str, Any], fresh: bool) -> None:
    mode = "w" if fresh else "a"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open(mode) as stream:
        if fresh:
            stream.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
        stream.flush()


# ------------------------------------------------------------- aggregation
def _aggregate(job_ids: List[str], rows: Dict[str, Dict[str, Any]],
               config: Dict[str, Any]) -> Dict[str, Any]:
    """The campaign report: a pure, order-stable function of the journal."""
    ok = 0
    divergences: List[Dict[str, Any]] = []
    harness: Dict[str, Any] = {}
    for job_id in sorted(job_ids):
        record = rows.get(job_id)
        if record is None:
            continue
        if record["status"] in ("ok", "retried-ok"):
            verdict = record.get("value") or {}
            if verdict.get("status") == "ok":
                ok += 1
            else:
                divergences.append({
                    "seed": verdict.get("seed"),
                    "mode": verdict.get("mode"),
                    "reports": verdict.get("reports", []),
                    "shrunk_instructions":
                        verdict.get("shrunk_instructions"),
                    "shrunk_source": verdict.get("shrunk_source"),
                })
        else:
            harness[job_id] = {"status": record["status"],
                               "error_kind": record.get("error_kind"),
                               "error": record.get("error")}
    completed = sum(1 for job_id in job_ids if job_id in rows)
    payload: Dict[str, Any] = {
        "schema": 1,
        "config": config,
        "totals": {
            "jobs": len(job_ids),
            "completed": completed,
            "ok": ok,
            "diverged": len(divergences),
            "harness_failures": len(harness),
        },
        "complete": completed == len(job_ids),
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
                 max_seconds: Optional[float] = None,
                 chaos_rate: float = 0.0,
                 chaos_seed: int = 0,
                 mutation: Optional[str] = None,
                 output: Optional[pathlib.Path] = None,
                 corpus_dir: Optional[pathlib.Path] = None,
                 write_corpus: bool = True) -> Dict[str, Any]:
    """Run (or resume) a campaign and persist the structured report."""
    output = pathlib.Path(output) if output else DEFAULT_REPORT
    journal_file = journal_path_for(output)
    header = _journal_header(seeds, modes, quick, mutation)
    jobs = campaign_jobs(seeds, modes=modes, quick=quick, mutation=mutation)
    job_ids = [job.id for job in jobs]

    rows = _load_journal(journal_file, header)
    fresh = not rows
    pending = [job for job in jobs if job.id not in rows]

    runner = Runner(max_workers=workers,
                    default_timeout=JOB_TIMEOUT,
                    chaos=ChaosMonkey(rate=chaos_rate, seed=chaos_seed))
    batch_size = max(4, (runner.max_workers or 4) * 4)
    started = time.monotonic()
    exhausted = False
    index = 0
    while index < len(pending):
        if (max_seconds is not None and index > 0
                and time.monotonic() - started >= max_seconds):
            exhausted = True
            break
        batch = pending[index:index + batch_size]
        index += len(batch)
        results = runner.run(batch, parallel=parallel)
        records = []
        for result in results:
            if result.status == "interrupted":
                # not a verdict: leave the job out of the journal so a
                # resumed campaign re-runs it
                continue
            record: Dict[str, Any] = {"id": result.job_id,
                                      "status": result.status}
            if result.ok:
                record["value"] = result.value
            else:
                record["error_kind"] = result.error_kind
                record["error"] = result.error
            records.append(record)
            rows[result.job_id] = record
        if records:
            _append_journal(journal_file, records, header, fresh)
            fresh = False
        if runner.interrupted:
            exhausted = True
            break

    config = {"seeds": seeds, "modes": list(modes), "quick": quick,
              "mutation": mutation, "chaos_rate": chaos_rate}
    payload = _aggregate(job_ids, rows, config)
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
    payload["journal_path"] = str(journal_file)
    payload["budget_exhausted"] = exhausted
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
        "Campaigns journal every finished seed and resume from the "
        "journal when rerun.  A finding is an unexplained model "
        "divergence.")
    parser.add_argument("--seeds", type=int, default=50,
                        help="seeds per mode (default 50)")
    parser.add_argument("--modes", default=None, metavar="M[,M]",
                        help="comma-separated modes: isa, lang, os "
                             "(default all three)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller generated programs (CI smoke)")
    add_runner_arguments(parser)
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget; finished seeds are "
                             "journaled, rerun the same command to resume")
    parser.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="kill this fraction of first-attempt workers "
                             "mid-job (chaos test of the runner)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the chaos kill selection")
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
    """Run (or resume) the campaign from parsed command-line options."""
    modes = tuple(args.modes.split(",")) if args.modes else MODES
    return run_campaign(seeds=args.seeds, modes=modes, quick=args.quick,
                        workers=args.workers, parallel=not args.serial,
                        max_seconds=args.max_seconds,
                        chaos_rate=args.chaos, chaos_seed=args.chaos_seed,
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
                        f"{totals['jobs']} jobs; resume it by rerunning "
                        "the same `repro campaign fuzz` command)"))
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
    if payload.get("budget_exhausted"):
        lines.append("  budget exhausted -- rerun the same command to "
                     "resume from the journal")
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

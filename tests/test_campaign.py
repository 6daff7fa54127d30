"""The campaign contract: one exit rule, each gate beside its campaign.

Covers what :mod:`repro.harness.campaign` promises for every campaign
in its registry:

* ``repro campaign NAME`` exits by one rule -- a finding outranks a
  harness failure, and an incomplete campaign alone exits 0;
* each committed report passes its own campaign's gate through
  ``check_results --campaign``, and a tampered report fails it with a
  named message of the right kind (the bench report's jit, multi, job,
  paper-shape, trace-replay and serial-vs-parallel checks included);
* the faults driver counts interrupted jobs the same way on one node
  and on N nodes;
* the fuzz campaign module, which every perfbench fuzz worker imports,
  pulls in no other campaign and no tooling.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness import campaign
from repro.tools import cli
from repro.tools.check_results import check_campaign_file

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- exit rule
def _faults(finding=False, harness=False, incomplete=False):
    return {"complete": not incomplete,
            "summary": {"violated": int(finding),
                        "unhandled_jobs": int(harness),
                        "interrupted_jobs": int(incomplete)}}


def _fuzz(finding=False, harness=False, incomplete=False):
    return {"config": {"mutation": None},
            "complete": not incomplete,
            "totals": {"jobs": 4, "completed": 4 - int(incomplete),
                       "ok": 4 - int(finding) - int(incomplete),
                       "diverged": int(finding),
                       "harness_failures": int(harness)},
            "divergences": []}


def _equivalence(section, finding=False, harness=False):
    """An equivalence report with its finding and its failed job in
    *section*: ``restore`` (the checkpoint round-trip cases) or
    ``kernel`` (the device demos)."""
    kernel_finding = finding and section == "kernel"
    restore_finding = finding and section == "restore"
    kernel = {"uart_log": "ready\n", "cycles": 100,
              "interrupts": 0 if kernel_finding else 3, "expected_ok": True,
              "halted": True,
              "jit": {"ok": True, "mismatches": [], "blocks_compiled": 2},
              "checkpoint": {"ok": True, "mismatches": [],
                             "snapshot_cycle": 50},
              "ok": not kernel_finding}
    restore = {"halted": True, "ok": not restore_finding,
               "mismatches": ["pipeline.stats.cycles"] if restore_finding
               else []}
    failed_job = {"restore": "restore/psieve-n4",
                  "kernel": "kernel/kernel-slice"}[section]
    failed = {"status": "crashed", "error_kind": "worker-died"}
    return {"restore": {"sieve-jit0": restore},
            "kernel": {"kernel-echo": kernel},
            "harness": {failed_job: failed} if harness else {}}


def _bench(finding=False, harness=False):
    payload = json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())
    if finding:
        payload["jit"]["equivalent"] = False
    if harness:
        payload["experiments"]["cpi/sieve"]["status"] = "timeout"
        payload["multi"]["failures"] = ["multi/psieve-n08-bus0-inv"]
    return payload


#: a (campaign, payload builder) per exit-rule case.  The equivalence
#: campaign is driven once per row kind it holds -- its checkpoint
#: round-trip cases and its device demos -- so a failure in either maps
#: to the same exit code.  ``incomplete`` only where the campaign can
#: stop short (interrupted jobs)
PAYLOADS = {"faults": ("faults", _faults), "fuzz": ("fuzz", _fuzz),
            "checkpoint": ("equivalence",
                           functools.partial(_equivalence, "restore")),
            "devices": ("equivalence",
                        functools.partial(_equivalence, "kernel")),
            "bench": ("bench", _bench)}

SCENARIOS = [
    ("clean", {}, 0),
    ("harness", {"harness": True}, 1),
    ("finding", {"finding": True}, 2),
    ("both", {"finding": True, "harness": True}, 2),
    ("incomplete", {"incomplete": True}, 0),
]


def _exit_cases():
    for case, (name, build) in PAYLOADS.items():
        for scenario, kwargs, expected in SCENARIOS:
            if "incomplete" in kwargs and name not in ("faults", "fuzz"):
                continue
            yield pytest.param(name, build, kwargs, expected,
                               id=f"{case}-{scenario}")


def test_every_registered_campaign_is_covered():
    assert ({name for name, _ in PAYLOADS.values()}
            == set(campaign.CAMPAIGNS))


@pytest.mark.parametrize("name,build,kwargs,expected", list(_exit_cases()))
def test_one_exit_rule(name, build, kwargs, expected, monkeypatch, capsys):
    """``repro campaign NAME`` maps its gate's failures to 0/1/2."""
    module = campaign.load(name)
    payload = {**build(**kwargs), "report_path": "report.json"}
    monkeypatch.setattr(module, "run", lambda args: payload)
    monkeypatch.setattr(module, "format_summary", lambda payload: "")
    assert cli.main(["campaign", name]) == expected
    err = capsys.readouterr().err
    for kind in ("finding", "harness", "incomplete"):
        assert (f"{kind}:" in err) == bool(kwargs.get(kind)), err


def test_incomplete_campaign_prints_how_to_resume(monkeypatch, capsys):
    module = campaign.load("fuzz")
    payload = {**_fuzz(incomplete=True), "report_path": "report.json"}
    monkeypatch.setattr(module, "run", lambda args: payload)
    monkeypatch.setattr(module, "format_summary", lambda payload: "")
    assert cli.main(["campaign", "fuzz"]) == 0
    assert "rerunning the same `repro campaign fuzz`" in (
        capsys.readouterr().err)


# ------------------------------------------------------ committed reports
COMMITTED = [("faults", "FAULTS_campaign.json"),
             ("faults", "FAULTS_multi.json"),
             ("fuzz", "FUZZ_campaign.json"),
             ("equivalence", "EQUIVALENCE_campaign.json"),
             ("bench", "BENCH_pipeline.json")]


@pytest.mark.parametrize("name,report", COMMITTED)
def test_committed_report_passes_its_gate(name, report):
    assert check_campaign_file(name, REPO_ROOT / report) == []


def _tampered(tmp_path, name, report, tamper):
    payload = json.loads((REPO_ROOT / report).read_text())
    tamper(payload)
    path = tmp_path / report
    path.write_text(json.dumps(payload))
    return check_campaign_file(name, path)


class TestFaultsGate:
    @pytest.mark.parametrize("report", ["FAULTS_campaign.json",
                                        "FAULTS_multi.json"])
    def test_violation_is_a_finding(self, tmp_path, report):
        def tamper(payload):
            payload["summary"]["violated"] = 2

        failures = _tampered(tmp_path, "faults", report, tamper)
        assert failures == ["finding: 2 invariant violation(s) classified "
                            "(see the report's 'classes')"]

    def test_unhandled_job_is_a_harness_failure(self, tmp_path):
        def tamper(payload):
            payload["summary"]["unhandled_jobs"] = 1

        failures = _tampered(tmp_path, "faults", "FAULTS_campaign.json",
                             tamper)
        assert failures == ["harness: 1 campaign job(s) failed in the "
                            "harness (see the report's 'unhandled')"]

    def test_missing_summary_key_is_named(self, tmp_path):
        def tamper(payload):
            del payload["summary"]["interrupted_jobs"]

        failures = _tampered(tmp_path, "faults", "FAULTS_multi.json", tamper)
        assert failures == ["harness: section 'summary' is missing key "
                            "'interrupted_jobs'"]

    def test_missing_report_is_named(self, tmp_path):
        failures = check_campaign_file("faults", tmp_path / "absent.json")
        assert failures and "does not exist" in failures[0]


class TestCheckpointGate:
    """The equivalence report's restore rows: runs round-tripped
    through a snapshot, checked against their straight runs."""

    REPORT = "EQUIVALENCE_campaign.json"

    def test_diverged_equivalence_case_fails(self, tmp_path):
        def tamper(payload):
            row = payload["restore"]["psieve-n4"]
            row["ok"], row["mismatches"] = False, ["cycles"]

        failures = _tampered(tmp_path, "equivalence", self.REPORT, tamper)
        assert failures == ["finding: restore case 'psieve-n4' diverged "
                            "from the straight run at ['cycles']"]

    def test_missing_section_is_named(self, tmp_path):
        def tamper(payload):
            del payload["restore"]

        failures = _tampered(tmp_path, "equivalence", self.REPORT, tamper)
        assert failures == ["harness: section 'restore' is missing or "
                            "empty (partial or interrupted campaign?)"]


class TestBenchGate:
    """Each tampered field of the committed bench report fails the gate
    with one named failure of its kind."""

    @pytest.mark.parametrize("path,value,expected", [
        (("jit", "equivalent"), False,
         "finding: jit: aggregate 'equivalent' flag is false -- the "
         "translated fast path diverged from the interpreter"),
        (("jit", "workloads", "bubble", "equivalent"), False,
         "finding: jit: workload 'bubble' is not cycle-exact (jit vs "
         "interpreter machine signatures differ)"),
        (("jit", "speedup"), 4.9,
         "finding: jit: aggregate speedup 4.9 is below the 5.0x floor"),
        (("jit", "workloads", "sieve", "speedup"), 2.9,
         "finding: jit: workload 'sieve' speedup 2.9 is below the 3.0x "
         "floor"),
        (("jit", "workloads", "sieve", "blocks_compiled"), 0,
         "finding: jit: workload 'sieve' compiled no blocks (the fast "
         "path never engaged)"),
        (("jit", "workloads", "sieve", "cycle_coverage"), 0.0,
         "finding: jit: workload 'sieve' reports zero cycle coverage"),
        # nodes run 1..10, so index 3 is N=4
        (("multi", "curves", "psieve/bus0/inv", "speedup", 3), 1.1,
         "finding: multi: curve 'psieve/bus0/inv' speedup at 4 nodes is "
         "1.1, below the 1.2 floor (bus or barrier regression)"),
        (("jit",), None,
         "harness: section 'jit' is missing or not an object (partial or "
         "interrupted bench run?)"),
        (("multi", "failures"), ["multi/psieve-n08-bus0-inv"],
         "harness: multi: scaling point 'multi/psieve-n08-bus0-inv' "
         "failed in the harness"),
        (("experiments", "cpi/sieve", "status"), "crashed",
         "harness: experiment job 'cpi/sieve' ended 'crashed'"),
    ], ids=["jit-equivalent", "jit-workload-equivalent", "jit-speedup",
            "jit-workload-speedup", "jit-no-blocks", "jit-no-coverage",
            "psieve-n4-speedup", "jit-missing", "multi-job-failed",
            "experiment-job-failed"])
    def test_tampered_field(self, tmp_path, path, value, expected):
        def tamper(payload):
            *parents, leaf = path
            for key in parents:
                payload = payload[key]
            payload[leaf] = value

        assert _tampered(tmp_path, "bench", "BENCH_pipeline.json",
                         tamper) == [expected]


def _set_row(payload, job_id, key, value):
    """Set one field of an experiment row and of its traced twin, so
    only the paper-shape check under test sees the change."""
    payload["experiments"][job_id]["value"][key] = value
    for sweep in payload["traced"]["per_sweep"].values():
        for row in sweep["rows"]:
            if row["id"] == job_id:
                row[key] = value


def _swap_table1_rows(payload):
    always = payload["experiments"]["branch/1-slot-always"]["value"]
    optional = payload["experiments"]["branch/1-slot-optional"]["value"]
    cost = always["cycles_per_branch"], optional["cycles_per_branch"]
    _set_row(payload, "branch/1-slot-always", "cycles_per_branch", cost[1])
    _set_row(payload, "branch/1-slot-optional", "cycles_per_branch", cost[0])


def _unhalve_fetchback(payload):
    one = payload["experiments"]["icache/fetchback-1"]["value"]["miss_ratio"]
    _set_row(payload, "icache/fetchback-2", "miss_ratio", 0.61 * one)


def _organization_beats_service_time(payload):
    # 1 + 3 x 0.05 = 1.15 cycles, below the paper's 2-cycle 1.25
    _set_row(payload, "icache/2set-16way-16w", "miss_ratio", 0.05)


def _bend_ecache_sweep(payload):
    small = payload["experiments"]["ecache/4096w"]["value"]["miss_rate"]
    _set_row(payload, "ecache/16384w", "miss_rate", small + 0.01)


def _noncached_coproc_catches_up(payload):
    schemes = payload["experiments"]["coproc/fp_dot"]["value"]["schemes"]
    schemes["non-cached coprocessor instructions"][
        "relative_performance"] = 0.95


def _change_traced_row(payload):
    rows = payload["traced"]["per_sweep"]["ecache-sweep"]["rows"]
    rows[0]["miss_rate"] += 0.001


def _plant_mismatch(payload):
    payload["sweep"]["mismatched"] = ["coproc/fp_dot"]


class TestBenchPaperShapes:
    """The paper's shapes, the trace-replay equality and the serial vs
    parallel equality are checked on the report's own rows: each tamper
    below yields exactly one finding, named for what it broke."""

    @pytest.mark.parametrize("tamper,expected", [
        (_swap_table1_rows, "E1 Table 1: 1-slot optional squashing"),
        (_unhalve_fetchback, "E4 fetch-back: the 2-word fetch-back miss "
                             "ratio"),
        (_organization_beats_service_time,
         "E5 service time: a 3-cycle organization fetches in 1.1500 "
         "cycles, recovering the 2-cycle paper organization's 1.2502"),
        (_bend_ecache_sweep, "E15 Ecache size: the miss rate is not "
                             "monotone in size"),
        (_noncached_coproc_catches_up,
         "E12 coprocessor interface: coproc/fp_dot: the non-cached scheme "
         "(0.950) is no longer the slowest"),
        (_change_traced_row, "traced: row 'ecache/4096w' differs from its "
                             "live row in ['miss_rate'] (trace replay is "
                             "not exact)"),
        (_plant_mismatch, "experiment job 'coproc/fp_dot' returned a "
                          "different value serially than in parallel"),
    ], ids=["e1-swapped-rows", "e4-not-halved", "e5-organization-wins",
            "e15-not-monotone", "e12-noncached-not-slowest",
            "traced-row-changed", "serial-parallel-mismatch"])
    def test_tamper_is_one_named_finding(self, tmp_path, tamper, expected):
        failures = _tampered(tmp_path, "bench", "BENCH_pipeline.json",
                             tamper)
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"finding: {expected}"), failures

    def test_untampered_report_holds(self, tmp_path):
        assert _tampered(tmp_path, "bench", "BENCH_pipeline.json",
                         lambda payload: None) == []

    def test_missing_rows_are_a_harness_failure(self, tmp_path):
        def drop_coproc(payload):
            for job_id in [job_id for job_id in payload["experiments"]
                           if job_id.startswith("coproc/")]:
                del payload["experiments"][job_id]

        assert _tampered(tmp_path, "bench", "BENCH_pipeline.json",
                         drop_coproc) == [
            "harness: E12 coprocessor interface: experiment rows "
            "incomplete (no value for 'coproc/*')"]


# ---------------------------------------------------------- faults driver
class _InterruptingRunner:
    """A Runner stand-in that hands back every job as interrupted."""

    def __init__(self, *args, **kwargs):
        pass

    def run(self, jobs, parallel=True):
        from repro.harness.runner import JobResult

        return [JobResult(job.id, "interrupted", error_kind="interrupted")
                for job in jobs]


@pytest.mark.parametrize("multi_nodes", [0, 2])
def test_interrupted_faults_jobs_leave_the_campaign_incomplete(
        multi_nodes, tmp_path, monkeypatch):
    faults = campaign.load("faults")
    monkeypatch.setattr(faults, "Runner", _InterruptingRunner)
    payload = faults.run_campaign(seeds=3, quick=True,
                                  multi_nodes=multi_nodes,
                                  output=tmp_path / "faults.json")
    assert payload["complete"] is False
    assert payload["summary"]["interrupted_jobs"] == 3
    assert payload["summary"]["unhandled_jobs"] == 0
    failures = faults.gate(payload)
    assert [failure.kind for failure in failures] == ["incomplete"]
    assert campaign.exit_code(failures) == 0


# ---------------------------------------------------------------- imports
def test_fuzz_campaign_imports_no_other_campaign_or_tooling():
    """perfbench's fuzz workload resolves ``repro.fuzz.campaign`` in
    every worker, so the module must stay light."""
    code = ("import sys, repro.fuzz.campaign\n"
            "print('\\n'.join(sorted(sys.modules)))")
    loaded = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT).stdout.split()
    heavy = {"repro.harness.bench", "repro.faults.campaign",
             "repro.harness.equivalence"}
    assert not [name for name in loaded
                if name in heavy or name.startswith("repro.tools")]

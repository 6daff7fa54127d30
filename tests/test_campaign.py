"""The campaign contract: one exit rule, each gate beside its campaign.

Covers what :mod:`repro.harness.campaign` promises for every campaign
in its registry:

* ``repro campaign NAME`` exits by one rule -- a finding outranks a
  harness failure, and an incomplete campaign alone exits 0;
* each committed report passes its own campaign's gate through
  ``check_results --campaign``, and a tampered report fails it with a
  named message;
* the faults driver counts interrupted jobs the same way on one node
  and on N nodes;
* the fuzz campaign module, which every perfbench fuzz worker imports,
  pulls in no other campaign and no tooling.
"""

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


def _checkpoint(finding=False, harness=False):
    return {"equivalence": {"diverged": int(finding),
                            "harness_failures": int(harness)},
            "corruption": {"cases": [{"case": "truncated",
                                      "status": "ok", "error": None}]}}


def _devices(finding=False, harness=False):
    row = {"uart_log": "ready\n", "cycles": 100,
           "interrupts": 0 if finding else 3, "expected_ok": True,
           "halted": True, "jit": {"ok": True, "blocks_compiled": 2},
           "checkpoint": {"ok": True, "snapshot_cycle": 50},
           "ok": not finding}
    return {"demos": {"kernel-echo": row},
            "summary": {"harness_failures":
                        ["kernel-slice: RuntimeError: boom"] if harness
                        else []}}


#: a payload builder per campaign; ``incomplete`` only where the
#: campaign can stop short (a budget, or interrupted jobs)
PAYLOADS = {"faults": _faults, "fuzz": _fuzz,
            "checkpoint": _checkpoint, "devices": _devices}

SCENARIOS = [
    ("clean", {}, 0),
    ("harness", {"harness": True}, 1),
    ("finding", {"finding": True}, 2),
    ("both", {"finding": True, "harness": True}, 2),
    ("incomplete", {"incomplete": True}, 0),
]


def _exit_cases():
    for name in PAYLOADS:
        for scenario, kwargs, expected in SCENARIOS:
            if "incomplete" in kwargs and name not in ("faults", "fuzz"):
                continue
            yield pytest.param(name, kwargs, expected,
                               id=f"{name}-{scenario}")


def test_every_registered_campaign_is_covered():
    assert set(PAYLOADS) == set(campaign.CAMPAIGNS)


@pytest.mark.parametrize("name,kwargs,expected", list(_exit_cases()))
def test_one_exit_rule(name, kwargs, expected, monkeypatch, capsys):
    """``repro campaign NAME`` maps its gate's failures to 0/1/2."""
    module = campaign.load(name)
    payload = {**PAYLOADS[name](**kwargs), "report_path": "report.json"}
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
    assert cli.main(["campaign", "fuzz", "--max-seconds", "1"]) == 0
    assert "rerunning the same `repro campaign fuzz`" in (
        capsys.readouterr().err)


# ------------------------------------------------------ committed reports
COMMITTED = [("faults", "FAULTS_campaign.json"),
             ("faults", "FAULTS_multi.json"),
             ("fuzz", "FUZZ_campaign.json"),
             ("checkpoint", "CHECKPOINT_campaign.json"),
             ("devices", "DEVICES_results.json")]


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
    REPORT = "CHECKPOINT_campaign.json"

    def test_diverged_equivalence_case_fails(self, tmp_path):
        def tamper(payload):
            payload["equivalence"]["diverged"] = 1

        failures = _tampered(tmp_path, "checkpoint", self.REPORT, tamper)
        assert any("1 restore-equivalence case(s) diverged" in f
                   for f in failures)

    def test_accepted_corruption_fails(self, tmp_path):
        def tamper(payload):
            case = payload["corruption"]["cases"][0]
            case["status"], case["error"] = "not-rejected", None

        failures = _tampered(tmp_path, "checkpoint", self.REPORT, tamper)
        assert any("corruption case 'truncated' ended 'not-rejected'" in f
                   for f in failures)

    def test_missing_section_is_named(self, tmp_path):
        def tamper(payload):
            del payload["corruption"]

        failures = _tampered(tmp_path, "checkpoint", self.REPORT, tamper)
        assert failures == ["harness: section 'corruption' is missing or "
                            "not an object (partial or interrupted "
                            "campaign?)"]


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
             "repro.checkpoint.campaign", "repro.harness.devices"}
    assert not [name for name in loaded
                if name in heavy or name.startswith("repro.tools")]

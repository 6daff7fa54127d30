"""One contract for the standing campaigns behind ``repro campaign <name>``.

A campaign is a module that defines

* ``DEFAULT_REPORT`` -- where its report goes, under :data:`REPO_ROOT`;
* ``add_arguments(parser)`` -- its description and its own options (the
  CLI adds ``--output`` to every campaign);
* ``run(args) -> payload`` -- run the campaign, write the report with
  :func:`write_json_atomic`, and return it with ``report_path`` added;
  an option value no job could run with raises :class:`OptionError`
  before any job runs (the CLI prints it and exits 1, no report);
* ``gate(payload) -> failures`` -- the campaign's verdict: one
  :class:`Failure` per problem, an empty list when the campaign held;
* ``format_summary(payload)`` -- a one-screen summary for the terminal.

There is no base class.  :data:`CAMPAIGNS` names the module of each
campaign, imported only when asked for.  The CLI applies ``gate`` to
the payload it has just produced, and ``check_results --campaign
NAME=PATH`` applies it to a report on disk (:func:`read_report`), so
each campaign's verdict is written once.  :func:`exit_code` is the one
exit rule for all of them.
"""

from __future__ import annotations

import importlib
import json
import pathlib
from types import ModuleType
from typing import Any, Dict, List, NamedTuple

from repro.fileio import atomic_file

#: src/repro/harness/campaign.py -> repository root
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: campaign name -> the module implementing the contract
CAMPAIGNS = {
    "faults": "repro.faults.campaign",
    "fuzz": "repro.fuzz.campaign",
    "checkpoint": "repro.checkpoint.campaign",
    "devices": "repro.harness.devices",
    "bench": "repro.harness.bench",
}

#: failure kinds, in the order :func:`exit_code` ranks them
FINDING = "finding"          # the models or the machine are wrong
HARNESS = "harness"          # the infrastructure broke; nothing is known
INCOMPLETE = "incomplete"    # jobs were interrupted

#: the exit rule, as every campaign's ``--help`` states it
EXIT_RULE = ("Exit codes: 0 = the campaign held (an incomplete campaign "
             "also exits 0: rerun the same command to finish it), 1 = a "
             "harness failure (a job errored, timed out or crashed) or an "
             "option value no job could run with, 2 = a finding.  A run "
             "with both a finding and a harness failure exits 2.")


class Failure(NamedTuple):
    """One reason a campaign did not hold, tagged with its kind."""

    kind: str
    message: str


class OptionError(ValueError):
    """An option value a campaign cannot run with, raised by ``run``
    before any job runs."""


class ReportError(ValueError):
    """A report file that is missing, not JSON, or not a JSON object."""


def load(name: str) -> ModuleType:
    """Import and return the module of campaign ``name``."""
    return importlib.import_module(CAMPAIGNS[name])


def exit_code(failures: List[Failure]) -> int:
    """The shared exit rule: any finding gives 2, else any harness
    failure gives 1, else 0 (an incomplete campaign exits 0)."""
    kinds = {failure.kind for failure in failures}
    if FINDING in kinds:
        return 2
    return 1 if HARNESS in kinds else 0


def read_report(path: pathlib.Path) -> Dict[str, Any]:
    """Load a JSON report whose top level is an object.

    Raises :class:`ReportError` naming the path when the file is
    missing, is not valid JSON (a torn write), or holds something other
    than an object.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ReportError(f"{path} does not exist")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise ReportError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReportError(f"{path}: top level must be an object, "
                          f"got {type(payload).__name__}")
    return payload


def write_json_atomic(path: pathlib.Path, payload: Any) -> None:
    """Write ``payload`` as an indented, key-sorted JSON report through
    :func:`~repro.fileio.atomic_file` (durable): a reader, or a
    concurrent producer, sees the old report or the new one, never a
    torn one, even across a kill or a power cut."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with atomic_file(path, durable=True) as handle:
        handle.write(text.encode("utf-8"))


def add_runner_arguments(parser) -> None:
    """The ``--workers``/``--serial`` options of campaigns that fan their
    jobs across the :class:`~repro.harness.runner.Runner`."""
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPUs)")
    parser.add_argument("--serial", action="store_true",
                        help="run campaign jobs in-process")

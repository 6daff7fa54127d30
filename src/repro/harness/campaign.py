"""One contract for the standing campaigns behind ``repro campaign <name>``.

A campaign is a module that defines

* ``DEFAULT_REPORT`` -- where its report goes, under :data:`REPO_ROOT`;
* ``add_arguments(parser)`` -- its description and its own options (the
  CLI adds ``--output`` to every campaign);
* ``run(args) -> payload`` -- run the campaign, write the report with
  :func:`write_json_atomic`, and return it with ``report_path`` added;
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
import os
import pathlib
import tempfile
from types import ModuleType
from typing import Any, Dict, List, NamedTuple

#: src/repro/harness/campaign.py -> repository root
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: campaign name -> the module implementing the contract
CAMPAIGNS = {
    "faults": "repro.faults.campaign",
    "fuzz": "repro.fuzz.campaign",
    "checkpoint": "repro.checkpoint.campaign",
    "devices": "repro.harness.devices",
}

#: failure kinds, in the order :func:`exit_code` ranks them
FINDING = "finding"          # the models or the machine are wrong
HARNESS = "harness"          # the infrastructure broke; nothing is known
INCOMPLETE = "incomplete"    # a budget ran out or jobs were interrupted

#: the exit rule, as every campaign's ``--help`` states it
EXIT_RULE = ("Exit codes: 0 = the campaign held (an incomplete campaign "
             "also exits 0: rerun the same command to finish it), 1 = a "
             "harness failure (a job errored, timed out or crashed), 2 = "
             "a finding.  A run with both a finding and a harness failure "
             "exits 2.")


class Failure(NamedTuple):
    """One reason a campaign did not hold, tagged with its kind."""

    kind: str
    message: str


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
    """Crash-durable JSON write: temp file in the target directory,
    fsync, ``os.replace``, then fsync the directory so the *rename
    itself* survives a power cut.  A reader (or a concurrent producer)
    never observes a partially-written report, only the old or the new
    one -- even if the process is killed between any two steps (a
    leftover ``*.tmp`` is the only possible debris, and it is never
    mistaken for the real file)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still atomic
    finally:
        os.close(directory_fd)


def add_runner_arguments(parser) -> None:
    """The ``--workers``/``--serial`` options of campaigns that fan their
    jobs across the :class:`~repro.harness.runner.Runner`."""
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPUs)")
    parser.add_argument("--serial", action="store_true",
                        help="run campaign jobs in-process")

"""Apply each campaign's own gate to its report on disk.

``--campaign NAME=PATH`` (repeatable, at least one) applies campaign
NAME's ``gate`` -- the one ``repro campaign NAME`` applies after a run,
see :mod:`repro.harness.campaign` -- to the report at PATH, and fails
(exit 1) on every failure it returns, an incomplete campaign included.
Nothing is re-derived: the bench report carries the experiment rows
behind the paper's numbers, and its gate checks the paper's shapes on
them (:func:`repro.harness.bench.gate`).  Every report file is read by
:func:`repro.harness.campaign.read_report`, so a missing, torn or
non-object file fails with its path named.

Usage::

    PYTHONPATH=src python -m repro.tools.check_results
        --campaign bench=BENCH_pipeline.json [--campaign NAME=PATH ...]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Tuple

from repro.harness.campaign import CAMPAIGNS, ReportError, read_report
from repro.harness.campaign import load as load_campaign


def check_campaign_file(name: str, path: pathlib.Path) -> List[str]:
    """Apply campaign ``name``'s own ``gate`` to its report on disk.

    Every failure the gate returns fails the check, an ``incomplete``
    campaign included, each message prefixed with its kind (see
    :mod:`repro.harness.campaign`).
    """
    try:
        payload = read_report(path)
    except ReportError as exc:
        return [f"{name} report {exc}"]
    return [f"{failure.kind}: {failure.message}"
            for failure in load_campaign(name).gate(payload)]


def _campaign_report(spec: str) -> Tuple[str, pathlib.Path]:
    name, sep, path = spec.partition("=")
    if not sep or name not in CAMPAIGNS or not path:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PATH with NAME one of {', '.join(CAMPAIGNS)}, "
            f"got {spec!r}")
    return name, pathlib.Path(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="check_results",
        description="apply each campaign's gate to its report on disk; "
                    "exit 1 on any failure")
    parser.add_argument("--campaign", type=_campaign_report,
                        action="append", required=True, metavar="NAME=PATH",
                        help="apply campaign NAME's gate to its report at "
                             "PATH (repeatable; NAME is one of "
                             f"{', '.join(CAMPAIGNS)})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    failed: List[str] = []
    for name, path in args.campaign:
        title = f"{name} campaign report ({path})"
        failures = check_campaign_file(name, path)
        print(f"[{'ok' if not failures else 'FAIL':>4}] {title}")
        for failure in failures:
            print(f"       - {failure}")
        if failures:
            failed.append(f"{title}: {len(failures)}")
    if failed:
        print(f"\n{len(failed)} gate(s) failed -- " + "; ".join(failed),
              file=sys.stderr)
        return 1
    print(f"\nall {len(args.campaign)} gates hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

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

``--campaign NAME=PATH`` (repeatable) applies campaign NAME's own
``gate`` -- the one ``repro campaign NAME`` applies after a run, see
:mod:`repro.harness.campaign` -- to the report at PATH, and fails on
every failure it returns, an incomplete campaign included;
``--campaign bench=BENCH_pipeline.json`` gates the bench report.  Every
report file is read by :func:`repro.harness.campaign.read_report`, so a
missing, torn or non-object file fails with its path named.

Usage::

    PYTHONPATH=src python -m repro.tools.check_results [--trace-length N]
        [--campaign bench=BENCH_pipeline.json] [--campaign NAME=PATH ...]
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys
from typing import Callable, List, Tuple

from repro.harness.campaign import CAMPAIGNS, ReportError, read_report
from repro.harness.campaign import load as load_campaign

DEFAULT_TRACE_LENGTH = 150_000


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
    numbers, exactly), and the Icache replay model matches the live cache
    on every distinct organization of the traced sweep."""
    import dataclasses
    import tempfile

    import numpy as np

    from repro.analysis.branch_schemes import table1
    from repro.analysis.trace_replay import table1_traced
    from repro.core.config import IcacheConfig
    from repro.harness.experiments import icache_grid
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
    addresses = trace.tolist()
    seen = set()
    for org_id, params in icache_grid():
        config = IcacheConfig(**params)
        key = dataclasses.astuple(config)
        if key in seen:
            continue
        seen.add(key)
        live_stats = simulate(config, addresses)
        replay_stats = trace_sim.replay(config, trace)
        if live_stats != replay_stats:
            failures.append(
                f"trace replay: {org_id} Icache replay diverges from the "
                f"live cache (live {live_stats}, replay {replay_stats})")
    return failures


CHECKS: List[Tuple[str, Callable[[int], List[str]]]] = [
    ("E1 Table 1 branch-scheme orderings", check_table1_orderings),
    ("E4 fetch-back miss-ratio halving", check_fetchback_ratio),
    ("E5 service time beats miss ratio", check_service_time),
    ("E15 Ecache size sweep", check_ecache_sweep),
    ("Trace-replay equivalence (Table 1 + Icache grid)",
     check_trace_replay_equivalence),
]


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
        description="re-derive paper-shape orderings; exit 1 on regression")
    parser.add_argument("--trace-length", type=int,
                        default=DEFAULT_TRACE_LENGTH,
                        help="synthetic trace length for the cache checks")
    parser.add_argument("--campaign", type=_campaign_report,
                        action="append", default=[], metavar="NAME=PATH",
                        help="also apply campaign NAME's gate to its "
                             "report at PATH (repeatable; NAME is one of "
                             f"{', '.join(CAMPAIGNS)})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    gates: List[Tuple[str, Callable[[], List[str]]]] = [
        (f"{name} campaign report ({path})",
         functools.partial(check_campaign_file, name, path))
        for name, path in args.campaign]
    gates += [(title, functools.partial(check, args.trace_length))
              for title, check in CHECKS]
    failed: List[str] = []
    for title, run in gates:
        failures = run()
        print(f"[{'ok' if not failures else 'FAIL':>4}] {title}")
        for failure in failures:
            print(f"       - {failure}")
        if failures:
            failed.append(f"{title}: {len(failures)}")
    if failed:
        print(f"\n{len(failed)} gate(s) failed -- " + "; ".join(failed),
              file=sys.stderr)
        return 1
    print(f"\nall {len(gates)} gates hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

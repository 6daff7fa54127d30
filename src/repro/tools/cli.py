"""Command-line front end: run, disassemble, compile, visualize.

Usage::

    python -m repro.tools.cli run program.s [--stats] [--trace N]
    python -m repro.tools.cli compile program.spl [--emit-asm] [--run]
    python -m repro.tools.cli disasm program.s
    python -m repro.tools.cli workload sieve [--stats]
    python -m repro.tools.cli trace sieve [--output TRACE.json]
    python -m repro.tools.cli trace psieve --nodes 4 [--bus-latency L]
    python -m repro.tools.cli run examples/boot.s --devices
    python -m repro.tools.cli campaign faults [--seeds N] [--quick] [--chaos R]
    python -m repro.tools.cli campaign faults --multi-nodes 4 [--seeds N]
    python -m repro.tools.cli campaign fuzz [--seeds N] [--quick] [--mutate NAME]
    python -m repro.tools.cli campaign equivalence [--fuzz-seeds N]
    python -m repro.tools.cli campaign bench [--workers N]

``run`` executes assembly on the paper-configuration machine; ``compile``
sends SPL source through the compiler + reorganizer; ``workload`` runs a
registered benchmark.  ``--trace N`` prints a pipeline diagram of the
first N cycles.  ``trace`` runs a workload under the telemetry cycle
tracer (:mod:`repro.telemetry`) and writes Chrome/Perfetto trace JSON
for ``ui.perfetto.dev`` (see ``docs/OBSERVABILITY.md``).  ``trace
--nodes N`` runs a parallel workload on an N-node
:class:`~repro.multi.system.MultiMachine` and exports one Perfetto
process per node so cross-node stall interleaving (including bus-wait
spans) is visible on one timeline.

``run``/``compile``/``workload`` accept ``--devices`` to feed the
canonical UART boot stimulus (:data:`repro.workloads.kernel.
DEFAULT_BOOT_FEED`) into the machine's receive line and print the UART
boot log plus the device counters after the run -- ``repro run
examples/boot.s --devices`` boots the kernel-lite echo demo (see
``docs/SOFTWARE.md``).

``campaign NAME`` runs one standing campaign of
:data:`repro.harness.campaign.CAMPAIGNS` -- ``faults`` (seeded fault
injection, or node-level faults with ``--multi-nodes N``), ``fuzz``
(differential fuzzing of the golden, pipeline, trace-replay, JIT and
checkpoint models), ``equivalence`` (workloads and fuzz seeds restored
from a mid-run snapshot, and every kernel-lite demo booted
interpretive, under the JIT and across checkpoint/restore, each against
the straight run's whole machine state) and ``bench`` (the full
experiment grid in parallel and serially, its rows checked against the
paper's shapes, the jit equivalence and
speedup probe, the traced sweeps, the multiprocessor scaling sweep and
the workload-cpi telemetry, in one ``BENCH_pipeline.json``; see
:mod:`repro.harness.bench`) -- writes its report, and applies the
campaign's own gate, the one ``check_results --campaign`` applies.
Each campaign declares its own options.  One exit rule covers all four
(:func:`repro.harness.campaign.exit_code`):

* **0** -- the campaign held, or it is incomplete (jobs were
  interrupted: rerun the same command to finish it);
* **1** -- harness failure: a job errored/timed out/crashed (the
  infrastructure broke, nothing is known about the models), or an
  option value no job could run with (one ``error:`` line, no report);
* **2** -- a finding: an invariant violation (``faults``), an
  unexplained model divergence (``fuzz``), a fast path that ended in
  another state or a failed boot comparison (``equivalence``) or a wrong
  result, broken paper shape or identity, row that differs from its
  live parallel row, or missed speedup floor (``bench``).  A run
  with both a finding and a harness failure exits 2.

Every other subcommand exits 0 when its program halts and 1 otherwise.
A misuse of any subcommand -- an input file that cannot be read, bad
assembly, SPL that does not compile, an unknown workload -- raises one
of :data:`USER_ERRORS`, which :func:`main` prints as one ``error:``
line and exits 1; it never ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.asm import assemble, listing
from repro.asm.unit import AssemblyError
from repro.coproc import Fpu
from repro.core import Machine, MachineConfig, perfect_memory_config
from repro.harness.campaign import CAMPAIGNS, EXIT_RULE
from repro.harness.campaign import load as load_campaign
from repro.lang import (CompileError, LexError, ParseError, SemanticError,
                        compile_spl)
from repro.tools.pipeview import PipelineTracer
from repro.workloads import UnknownWorkload, get

#: the named errors a misused subcommand raises; :func:`main` prints
#: each as one ``error:`` line and exits 1
USER_ERRORS = (OSError, AssemblyError, LexError, ParseError, SemanticError,
               CompileError, UnknownWorkload)


def _print_stats(machine: Machine) -> None:
    # read the audited telemetry snapshot, not raw stat attributes
    snap = machine.metrics().snapshot()
    cpi = snap["pipeline.cpi"]
    print(f"cycles        {snap['pipeline.cycles']}")
    print(f"instructions  {snap['pipeline.instructions.retired']} "
          f"({snap['pipeline.instructions.noops']} no-ops, "
          f"{snap['pipeline.instructions.squashed']} squashed)")
    print(f"CPI           {cpi:.3f}")
    print(f"branches      {snap['pipeline.branch.executed']} "
          f"({snap['pipeline.branch.taken']} taken), "
          f"jumps {snap['pipeline.jumps']}")
    print(f"loads/stores  {snap['pipeline.mem.loads']}/"
          f"{snap['pipeline.mem.stores']}")
    print(f"icache        {snap['icache.miss_rate']:.1%} miss rate, "
          f"{snap['pipeline.stall.icache_miss']} stall cycles")
    print(f"ecache        {snap['ecache.miss_rate']:.1%} miss rate, "
          f"{snap['pipeline.stall.ecache_late_miss']} data stall cycles")
    if snap.get("core.translate.entries.taken"):
        coverage = (snap["core.translate.cycles"] / snap["pipeline.cycles"]
                    if snap["pipeline.cycles"] else 0.0)
        print(f"jit           {snap['core.translate.blocks.compiled']} "
              f"blocks, {snap['core.translate.entries.taken']} entries, "
              f"{coverage:.1%} cycle coverage")
    print(f"@20 MHz       {20.0 / cpi if cpi else 0.0:.1f} sustained MIPS")


def _run_machine(program, args) -> int:
    config = perfect_memory_config() if args.ideal else MachineConfig()
    if args.jit:
        config = dataclasses.replace(config, jit=True)
    machine = Machine(config)
    machine.attach_coprocessor(Fpu())
    machine.load_program(program)
    if args.devices:
        from repro.workloads.kernel import DEFAULT_BOOT_FEED

        text, start, interval = DEFAULT_BOOT_FEED
        machine.memory.uart.feed(text, start=start, interval=interval)
    translator = machine.pipeline._translator
    if args.jit_trace and translator is not None:
        translator.record_spans = True
    if args.trace:
        tracer = PipelineTracer(machine)
        tracer.step(args.trace)
        print(tracer.render())
        print()
    machine.run(args.max_cycles)
    if args.jit_trace and translator is not None:
        from repro.telemetry import write_jit_trace

        write_jit_trace(args.jit_trace, translator.spans)
        print(f"jit trace written to {args.jit_trace} "
              f"({len(translator.spans)} block activations)")
    if machine.console.values:
        print("console:", machine.console.values)
    if machine.console.text:
        print("console text:", machine.console.text)
    if args.devices:
        print("uart boot log:")
        for line in machine.memory.uart.tx_text.splitlines():
            print(f"  | {line}")
        for name, value in sorted(machine.memory.device_metrics().items()):
            print(f"  {name:<26} {value}")
    if not machine.halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
    if args.stats:
        _print_stats(machine)
    return 0 if machine.halted else 1


def cmd_run(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    return _run_machine(assemble(source), args)


def cmd_compile(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    compilation = compile_spl(source)
    if args.emit_asm:
        print(compilation.asm_text)
        return 0
    if args.listing:
        print(listing(compilation.program()))
        return 0
    return _run_machine(compilation.program(), args)


def cmd_disasm(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    print(listing(assemble(source)))
    return 0


def cmd_workload(args) -> int:
    workload = get(args.name)
    return _run_machine(workload.program(), args)


def _cmd_trace_multi(args) -> int:
    """``trace --nodes N``: one Perfetto process per node."""
    from repro.multi import MultiMachine
    from repro.telemetry import Metrics, write_multi_trace
    from repro.workloads.parallel import parallel_program

    program = parallel_program(args.target, args.nodes)
    system = MultiMachine(args.nodes, MachineConfig(),
                          bus_latency=args.bus_latency)
    system.load_program(program)
    metrics = Metrics()
    tracers = system.attach_tracers(capacity=args.capacity, metrics=metrics)
    system.run(args.max_cycles)
    system.metrics(metrics)
    write_multi_trace(args.output, tracers)
    records = sum(len(t.records) for t in tracers)
    spans = sum(len(t.stall_spans) for t in tracers)
    print(f"multi trace written to {args.output} ({args.nodes} nodes, "
          f"{records} instruction records, {spans} stall spans, "
          f"bus: {system.bus.acquisitions} acquisitions / "
          f"{system.bus.contention_cycles} contention cycles) -- open in "
          "ui.perfetto.dev")
    if args.metrics_output:
        with open(args.metrics_output, "w", encoding="utf-8") as handle:
            handle.write(metrics.to_json())
            handle.write("\n")
        print(f"metrics written to {args.metrics_output}")
    if not system.all_halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    import os

    from repro.telemetry import CycleTracer, Metrics, write_trace

    if args.nodes:
        return _cmd_trace_multi(args)
    config = perfect_memory_config() if args.ideal else MachineConfig()
    machine = Machine(config)
    machine.attach_coprocessor(Fpu())
    # a target that names a file is read as one, so a missing file is
    # an OSError, not an unknown workload
    if (os.path.exists(args.target) or os.sep in args.target
            or args.target.endswith((".s", ".spl"))):
        with open(args.target) as handle:
            source = handle.read()
        if args.target.endswith(".spl"):
            machine.load_program(compile_spl(source).program())
        else:
            machine.load_program(assemble(source))
    else:
        machine.load_program(get(args.target).program())
    metrics = Metrics()
    tracer = CycleTracer(machine, capacity=args.capacity, metrics=metrics)
    tracer.run(args.max_cycles)
    machine.metrics(metrics)
    write_trace(args.output, tracer)
    print(f"trace written to {args.output} "
          f"({len(tracer.records)} instruction records, "
          f"{len(tracer.stall_spans)} stall spans, "
          f"{len(tracer.instants)} events) -- open in ui.perfetto.dev")
    if args.metrics_output:
        with open(args.metrics_output, "w", encoding="utf-8") as handle:
            handle.write(metrics.to_json())
            handle.write("\n")
        print(f"metrics written to {args.metrics_output}")
    if args.stats:
        _print_stats(machine)
    if not machine.halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
        return 1
    return 0


def cmd_campaign(args) -> int:
    """``campaign NAME``: run one campaign, summarise it, apply its gate."""
    from repro.harness.campaign import OptionError, exit_code

    campaign = args.campaign_module
    try:
        payload = campaign.run(args)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(campaign.format_summary(payload))
    print(f"report written to {payload['report_path']}")
    failures = campaign.gate(payload)
    for failure in failures:
        print(f"{failure.kind}: {failure.message}", file=sys.stderr)
    return exit_code(failures)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MIPS-X reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--stats", action="store_true",
                       help="print pipeline statistics")
        p.add_argument("--ideal", action="store_true",
                       help="perfect-memory machine (pipeline only)")
        p.add_argument("--trace", type=int, default=0, metavar="N",
                       help="pipeline diagram of the first N cycles")
        p.add_argument("--max-cycles", type=int, default=10_000_000)
        p.add_argument("--jit", action="store_true",
                       help="enable the translated fast path (cycle-exact; "
                            "off by default)")
        p.add_argument("--jit-trace", default=None, metavar="PATH",
                       help="with --jit: write translated-block activation "
                            "spans as Perfetto trace JSON")
        p.add_argument("--devices", action="store_true",
                       help="feed the canonical UART boot stimulus and "
                            "print the UART boot log + device counters "
                            "after the run (see docs/SOFTWARE.md)")

    p_run = sub.add_parser("run", help="assemble and run a .s file")
    p_run.add_argument("file")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_compile = sub.add_parser("compile",
                               help="compile and run an SPL source file")
    p_compile.add_argument("file")
    p_compile.add_argument("--emit-asm", action="store_true",
                           help="print the naive assembly and exit")
    p_compile.add_argument("--listing", action="store_true",
                           help="print the reorganized listing and exit")
    common(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_disasm = sub.add_parser("disasm", help="assemble and list a .s file")
    p_disasm.add_argument("file")
    p_disasm.set_defaults(func=cmd_disasm)

    p_workload = sub.add_parser("workload", help="run a registered workload")
    p_workload.add_argument("name")
    common(p_workload)
    p_workload.set_defaults(func=cmd_workload)

    p_trace = sub.add_parser(
        "trace",
        help="run under the cycle tracer and export Perfetto trace JSON",
        description="Run a registered workload (or a .s/.spl file) under "
                    "the telemetry cycle tracer and write a Chrome/"
                    "Perfetto trace_event JSON of instruction lifecycles "
                    "per pipestage, stall spans, and squash/exception "
                    "events.  Open the output in ui.perfetto.dev; see "
                    "docs/OBSERVABILITY.md for a reading guide.")
    p_trace.add_argument("target",
                         help="workload name, or path to a .s/.spl file")
    p_trace.add_argument("--output", default="TRACE_pipeline.json",
                         metavar="PATH",
                         help="trace file (default: TRACE_pipeline.json)")
    p_trace.add_argument("--metrics-output", default=None, metavar="PATH",
                         help="also write the metrics snapshot JSON here")
    p_trace.add_argument("--capacity", type=int, default=65536,
                         help="ring-buffer capacity: keep the last N "
                              "instruction records (default 65536)")
    p_trace.add_argument("--ideal", action="store_true",
                         help="perfect-memory machine (pipeline only)")
    p_trace.add_argument("--stats", action="store_true",
                         help="print pipeline statistics")
    p_trace.add_argument("--nodes", type=int, default=0, metavar="N",
                         help="run a parallel workload on an N-node "
                              "multiprocessor: one Perfetto process per "
                              "node (target must be psieve/pintmm/pring)")
    p_trace.add_argument("--bus-latency", type=int, default=0, metavar="L",
                         help="extra global cycles the shared bus stays "
                              "held after each acquisition (with --nodes)")
    p_trace.add_argument("--max-cycles", type=int, default=10_000_000)
    p_trace.set_defaults(func=cmd_trace)

    p_campaign = sub.add_parser(
        "campaign",
        help=f"run a standing campaign ({', '.join(CAMPAIGNS)}), write "
             "its report and apply its gate",
        description="Run one standing campaign, write its JSON report at "
                    "the repo root (or --output), and apply the same gate "
                    "check_results --campaign applies to that report.  "
                    + EXIT_RULE)
    campaigns = p_campaign.add_subparsers(dest="campaign", required=True,
                                          metavar="NAME")
    for name in CAMPAIGNS:
        module = load_campaign(name)
        p_name = campaigns.add_parser(
            name, help=(module.__doc__ or name).splitlines()[0],
            epilog=EXIT_RULE)
        module.add_arguments(p_name)
        p_name.add_argument("--output", default=None, metavar="PATH",
                            help=f"report file (default: "
                                 f"{module.DEFAULT_REPORT.name} at the "
                                 "repo root)")
        p_name.set_defaults(func=cmd_campaign, campaign_module=module)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

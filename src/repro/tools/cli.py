"""Command-line front end: run, disassemble, compile, visualize.

Usage::

    python -m repro.tools.cli run program.s [--stats] [--trace N]
    python -m repro.tools.cli compile program.spl [--emit-asm] [--run]
    python -m repro.tools.cli disasm program.s
    python -m repro.tools.cli workload sieve [--stats]
    python -m repro.tools.cli trace sieve [--output TRACE.json]
    python -m repro.tools.cli trace psieve --nodes 4 [--bus-latency L]
    python -m repro.tools.cli bench [--quick] [--workers N] [--multi]
    python -m repro.tools.cli faults [--seeds N] [--quick] [--chaos R]
    python -m repro.tools.cli faults --multi-nodes 4 [--seeds N] [--quick]
    python -m repro.tools.cli fuzz [--seeds N] [--quick] [--max-seconds S]
    python -m repro.tools.cli run examples/boot.s --devices
    python -m repro.tools.cli devices [--quick]
    python -m repro.tools.cli run program.s --checkpoint-every 100000
    python -m repro.tools.cli run program.s --resume --checkpoint-id ID
    python -m repro.tools.cli checkpoint [--fuzz-seeds N] [--quick]

``run`` executes assembly on the paper-configuration machine; ``compile``
sends SPL source through the compiler + reorganizer; ``workload`` runs a
registered benchmark.  ``--trace N`` prints a pipeline diagram of the
first N cycles.  ``trace`` runs a workload under the telemetry cycle
tracer (:mod:`repro.telemetry`) and writes Chrome/Perfetto trace JSON
for ``ui.perfetto.dev`` (see ``docs/OBSERVABILITY.md``).  ``bench``
runs the benchmark telemetry suite (core
cycles/sec plus the parallel experiment sweep) and writes
``BENCH_pipeline.json`` at the repo root; ``bench --multi`` adds the
multiprocessor scaling sweep (nodes x bus latency x invalidation) as the
payload's ``multi`` section.  ``trace --nodes N`` runs a parallel
workload on an N-node :class:`~repro.multi.system.MultiMachine` and
exports one Perfetto process per node so cross-node stall interleaving
(including bus-wait spans) is visible on one timeline.  ``faults`` runs
a seeded fault-injection campaign (see :mod:`repro.faults`) across the
parallel runner and writes ``FAULTS_campaign.json``; ``faults
--multi-nodes N`` instead runs the node-level multiprocessor campaign
(:mod:`repro.faults.multi`), writing ``FAULTS_multi.json``.  ``fuzz`` runs a seeded
differential-fuzzing campaign (see :mod:`repro.fuzz`) cross-checking the
golden, pipeline, and trace-replay models on generated programs, writing
``FUZZ_campaign.json``.

``run``/``compile``/``workload`` accept ``--devices`` to feed the
canonical UART boot stimulus (:data:`repro.workloads.kernel.
DEFAULT_BOOT_FEED`) into the machine's receive line and print the UART
boot log plus the device counters after the run -- ``repro run
examples/boot.s --devices`` boots the kernel-lite echo demo (see
``docs/SOFTWARE.md``).  ``devices`` runs the standing software-stack
gate (:mod:`repro.harness.devices`): every kernel-lite demo booted
interpretive, under the JIT (bit-exact or fail), and across a mid-boot
checkpoint/restore, written to ``DEVICES_results.json``.

``run``/``compile``/``workload`` accept ``--checkpoint-every K`` to
snapshot the machine every K cycles into the content-addressed store
under ``.trace_cache/checkpoints/`` (see :mod:`repro.checkpoint`), and
``--resume`` to continue a crashed run from its latest valid snapshot
(``--checkpoint-id`` names the ladder).  ``checkpoint`` runs the
standing recovery gates -- restore equivalence, chaos resume, snapshot
corruption -- and writes ``CHECKPOINT_campaign.json``.

The campaign commands (``faults``, ``fuzz``, ``checkpoint``) share one
exit-code taxonomy, documented in full in the README:

* **0** -- campaign ran and found nothing wrong;
* **1** -- harness failure: a job errored/timed out/crashed (the
  infrastructure broke, nothing is known about the models);
* **2** -- a classified finding: an invariant violation (``faults``),
  an unexplained model divergence (``fuzz``), or a recovery-gate failure
  (``checkpoint``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.asm import assemble, listing, parse
from repro.coproc import Fpu
from repro.core import Machine, MachineConfig, perfect_memory_config
from repro.lang import compile_spl
from repro.tools.pipeview import PipelineTracer


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
    if args.checkpoint_every or args.resume:
        from repro.checkpoint import SnapshotStore, run_with_checkpoints

        store = SnapshotStore()
        run_id = args.checkpoint_id or "cli"
        ckpt = run_with_checkpoints(
            machine, store, run_id, max_cycles=args.max_cycles,
            every_cycles=args.checkpoint_every or 250_000,
            resume=args.resume)
        print(f"checkpoint: {ckpt.snapshots} snapshot(s), "
              f"{ckpt.resumes} resume(s), {ckpt.bytes_written} bytes "
              f"under {store.run_dir(run_id)}")
    else:
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
    from repro.workloads import get

    workload = get(args.name)
    return _run_machine(workload.program(), args)


def _cmd_trace_multi(args) -> int:
    """``trace --nodes N``: one Perfetto process per node."""
    from repro.multi import MultiMachine
    from repro.telemetry import Metrics, write_multi_trace
    from repro.workloads.parallel import parallel_program

    try:
        program = parallel_program(args.target, args.nodes)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
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
    import json
    import os

    from repro.telemetry import CycleTracer, Metrics, write_trace

    if args.nodes:
        return _cmd_trace_multi(args)
    config = perfect_memory_config() if args.ideal else MachineConfig()
    machine = Machine(config)
    machine.attach_coprocessor(Fpu())
    if os.path.exists(args.target):
        with open(args.target) as handle:
            source = handle.read()
        if args.target.endswith(".spl"):
            machine.load_program(compile_spl(source).program())
        else:
            machine.load_program(assemble(source))
    else:
        from repro.workloads import get

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


def cmd_bench(args) -> int:
    from repro.harness.bench import collect, format_summary

    multi_nodes = None
    if args.multi_nodes:
        multi_nodes = tuple(int(part) for part
                            in args.multi_nodes.split(","))
    payload = collect(quick=args.quick, workers=args.workers,
                      parallel=not args.serial_only and not args.traced_only,
                      serial_baseline=(not args.no_serial_baseline
                                       and not args.traced_only
                                       and not args.multi_only),
                      timeout=args.timeout,
                      output=args.output,
                      traced=not args.no_traced,
                      trace_reuse=not args.no_trace_reuse,
                      metrics_output=args.metrics_output,
                      multi=args.multi or bool(args.multi_nodes),
                      multi_nodes=multi_nodes,
                      multi_only=args.multi_only)
    print(format_summary(payload))
    failed = [job_id for job_id, row in payload["experiments"].items()
              if row["status"] != "ok"]
    failed += payload.get("multi", {}).get("failures", [])
    if failed:
        print(f"failed jobs: {', '.join(sorted(failed))}", file=sys.stderr)
    return 1 if failed else 0


def cmd_faults(args) -> int:
    if args.multi_nodes:
        return _cmd_faults_multi(args)
    from repro.faults.campaign import format_summary, run_campaign

    payload = run_campaign(seeds=args.seeds,
                           workers=args.workers,
                           quick=args.quick,
                           parallel=not args.serial,
                           chaos_rate=args.chaos,
                           chaos_seed=args.chaos_seed,
                           output=args.output)
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    summary = payload["summary"]
    if summary["unhandled_jobs"]:
        print(f"{summary['unhandled_jobs']} campaign job(s) failed in the "
              "harness (see report)", file=sys.stderr)
        return 1
    if summary["violated"]:
        print(f"{summary['violated']} invariant violation(s) classified "
              "(see report)", file=sys.stderr)
        return 2
    return 0


def _cmd_faults_multi(args) -> int:
    """``faults --multi-nodes N``: the node-level multiprocessor campaign
    (same 0/1/2 exit taxonomy as the single-node campaign)."""
    from repro.faults.multi import format_summary, run_multi_campaign

    payload = run_multi_campaign(seeds=args.seeds,
                                 nodes=args.multi_nodes,
                                 workers=args.workers,
                                 quick=args.quick,
                                 parallel=not args.serial,
                                 output=args.output)
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    summary = payload["summary"]
    if summary["unhandled_jobs"]:
        print(f"{summary['unhandled_jobs']} campaign job(s) failed in the "
              "harness (see report)", file=sys.stderr)
        return 1
    if summary["violated"]:
        print(f"{summary['violated']} invariant violation(s) classified "
              "(see report)", file=sys.stderr)
        return 2
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz.campaign import exit_code, format_summary, run_campaign

    modes = args.modes.split(",") if args.modes else ("isa", "lang", "os")
    payload = run_campaign(seeds=args.seeds,
                           modes=tuple(modes),
                           quick=args.quick,
                           workers=args.workers,
                           parallel=not args.serial,
                           max_seconds=args.max_seconds,
                           chaos_rate=args.chaos,
                           chaos_seed=args.chaos_seed,
                           mutation=args.mutate,
                           output=args.output,
                           corpus_dir=args.corpus_dir,
                           write_corpus=not args.no_corpus)
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    code = exit_code(payload)
    if code == 2 and args.mutate:
        print(f"planted mutation {args.mutate!r} was NOT caught -- the "
              "oracle failed its self-test", file=sys.stderr)
    elif code == 2:
        print(f"{payload['totals']['diverged']} unexplained model "
              "divergence(s) -- shrunk repros in the report and corpus",
              file=sys.stderr)
    elif code == 1:
        print(f"{payload['totals']['harness_failures']} campaign job(s) "
              "failed in the harness (see report)", file=sys.stderr)
    return code


def cmd_checkpoint(args) -> int:
    from repro.checkpoint.campaign import (exit_code, format_summary,
                                           run_campaign)

    payload = run_campaign(fuzz_seeds=args.fuzz_seeds,
                           workers=args.workers,
                           parallel=not args.serial,
                           quick=args.quick,
                           output=args.output)
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    code = exit_code(payload)
    if code == 2:
        print("checkpoint recovery gate failed -- a restore diverged, a "
              "killed job did not resume, or corruption was accepted "
              "(see report)", file=sys.stderr)
    elif code == 1:
        print("campaign job(s) failed in the harness (see report)",
              file=sys.stderr)
    return code


def cmd_devices(args) -> int:
    from repro.harness.devices import (exit_code, format_summary,
                                       run_devices_gate)

    payload = run_devices_gate(quick=args.quick, output=args.output)
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    code = exit_code(payload)
    if code == 1:
        for failure in payload["summary"]["harness_failures"]:
            print(f"harness failure: {failure}", file=sys.stderr)
    elif code == 2:
        print(f"demo(s) failed the gate: "
              f"{', '.join(payload['summary']['failed'])} (see report)",
              file=sys.stderr)
    return code


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
        p.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="K",
                       help="snapshot the machine every K cycles into "
                            ".trace_cache/checkpoints/ (0 = off)")
        p.add_argument("--resume", action="store_true",
                       help="resume from the latest valid snapshot of "
                            "--checkpoint-id before running")
        p.add_argument("--checkpoint-id", default=None, metavar="ID",
                       help="snapshot ladder name (default: cli)")

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

    p_bench = sub.add_parser(
        "bench", help="benchmark telemetry: core cycles/sec + experiment "
                      "sweep wall-clock, written to BENCH_pipeline.json")
    p_bench.add_argument("--quick", action="store_true",
                         help="reduced grid and shorter traces (CI smoke)")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="parallel worker processes (default: CPUs)")
    p_bench.add_argument("--serial-only", action="store_true",
                         help="skip the parallel sweep")
    p_bench.add_argument("--no-serial-baseline", action="store_true",
                         help="skip the serial sweep (no speedup figure)")
    p_bench.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
    p_bench.add_argument("--no-traced", action="store_true",
                         help="skip the capture-once/replay-many trace "
                              "sweeps")
    p_bench.add_argument("--traced-only", action="store_true",
                         help="run only the trace-replay sweeps (no live "
                              "parallel/serial passes)")
    p_bench.add_argument("--no-trace-reuse", action="store_true",
                         help="ignore cached traces and re-capture "
                              "(escape hatch)")
    p_bench.add_argument("--output", default=None, metavar="PATH",
                         help="telemetry file (default: BENCH_pipeline.json "
                              "at the repo root)")
    p_bench.add_argument("--metrics-output", default=None, metavar="PATH",
                         help="aggregated metrics file (default: "
                              "METRICS_summary.json at the repo root)")
    p_bench.add_argument("--multi", action="store_true",
                         help="also run the multiprocessor scaling sweep "
                              "(nodes x bus latency x invalidation) and "
                              "write it as the payload's 'multi' section")
    p_bench.add_argument("--multi-nodes", default=None, metavar="N[,N]",
                         help="comma-separated node counts for the multi "
                              "sweep (default 1..10; implies --multi)")
    p_bench.add_argument("--multi-only", action="store_true",
                         help="run only the multi sweep (plus the core "
                              "probe): skip the uniprocessor sweeps and "
                              "trace replays")
    p_bench.set_defaults(func=cmd_bench)

    p_faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign: differential invariant "
             "checking across the parallel runner, written to "
             "FAULTS_campaign.json",
        description="Inject seeded hardware-fault plans into pipeline "
                    "runs and check architectural invariants against a "
                    "clean differential run.  Exit codes: 0 = every fault "
                    "was absorbed or classified benign, 1 = a campaign "
                    "job failed in the harness (infrastructure, not a "
                    "finding), 2 = classified invariant violation.")
    p_faults.add_argument("--seeds", type=int, default=32,
                          help="number of seeded fault plans (default 32)")
    p_faults.add_argument("--quick", action="store_true",
                          help="fewer events per plan (CI smoke)")
    p_faults.add_argument("--workers", type=int, default=None,
                          help="parallel worker processes (default: CPUs)")
    p_faults.add_argument("--serial", action="store_true",
                          help="run campaign jobs in-process")
    p_faults.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                          help="kill this fraction of first-attempt workers "
                               "mid-job (chaos test of the runner)")
    p_faults.add_argument("--chaos-seed", type=int, default=0,
                          help="seed for the chaos kill selection")
    p_faults.add_argument("--output", default=None, metavar="PATH",
                          help="report file (default: FAULTS_campaign.json "
                               "at the repo root)")
    p_faults.add_argument("--multi-nodes", type=int, default=0, metavar="N",
                          help="run the node-level multiprocessor campaign "
                               "on N-node systems instead (flip one node's "
                               "Icache valid bits / corrupt its Ecache "
                               "tags mid-run; report: FAULTS_multi.json)")
    p_faults.set_defaults(func=cmd_faults)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign: cross-check golden, pipeline "
             "and trace-replay models on seeded generated programs, "
             "written to FUZZ_campaign.json",
        description="Generate seeded random programs (ISA instruction "
                    "sequences, SPL sources, and OS-mode trap/interrupt "
                    "programs), run each on the golden simulator (naive "
                    "code) and the pipeline (reorganized code), replay "
                    "the captured cache streams through the trace "
                    "models, and compare everything observable; os-mode "
                    "programs instead cross-check the interpreter, the "
                    "JIT, and a checkpoint/restore run cycle-exactly.  "
                    "Divergent programs are auto-shrunk to a minimal repro "
                    "and filed under fuzz_corpus/.  Campaigns journal "
                    "every finished seed and resume from the journal when "
                    "rerun.  Exit codes: 0 = all models agree, 1 = a "
                    "campaign job failed in the harness (infrastructure, "
                    "not a finding), 2 = unexplained model divergence.")
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="seeds per mode (default 50)")
    p_fuzz.add_argument("--modes", default=None, metavar="M[,M]",
                        help="comma-separated modes: isa, lang, os "
                             "(default all three)")
    p_fuzz.add_argument("--quick", action="store_true",
                        help="smaller generated programs (CI smoke)")
    p_fuzz.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPUs)")
    p_fuzz.add_argument("--serial", action="store_true",
                        help="run campaign jobs in-process")
    p_fuzz.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget; finished seeds are "
                             "journaled, rerun the same command to resume")
    p_fuzz.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="kill this fraction of first-attempt workers "
                             "mid-job (chaos test of the runner)")
    p_fuzz.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the chaos kill selection")
    p_fuzz.add_argument("--mutate", default=None, metavar="NAME",
                        help="dev-only: plant a known golden-model bug "
                             "(see repro.fuzz.mutation); divergences are "
                             "then expected and do not fail the campaign")
    p_fuzz.add_argument("--output", default=None, metavar="PATH",
                        help="report file (default: FUZZ_campaign.json at "
                             "the repo root)")
    p_fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="where to file shrunk repros (default: "
                             "fuzz_corpus/ at the repo root)")
    p_fuzz.add_argument("--no-corpus", action="store_true",
                        help="do not file repros for divergences")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="checkpoint/restore recovery gates: restore equivalence, "
             "chaos resume, snapshot corruption; written to "
             "CHECKPOINT_campaign.json",
        description="Run the standing crash-recovery gates: snapshot "
                    "mid-run + restore + finish must be bit-identical to "
                    "an uninterrupted run (workloads, a 4-node "
                    "multiprocessor, and fuzz seeds; JIT off and on); "
                    "SIGKILLed checkpointed workers must resume from "
                    "their last snapshot and merge byte-identical; "
                    "corrupted/truncated/mis-versioned snapshots must be "
                    "rejected with named errors and fall back a "
                    "generation.  Exit codes: 0 = all gates green, 1 = a "
                    "campaign job failed in the harness, 2 = a recovery "
                    "gate failed.")
    p_ckpt.add_argument("--fuzz-seeds", type=int, default=50,
                        help="fuzz seeds in the equivalence gate "
                             "(default 50)")
    p_ckpt.add_argument("--quick", action="store_true",
                        help="few fuzz seeds (CI smoke)")
    p_ckpt.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: CPUs)")
    p_ckpt.add_argument("--serial", action="store_true",
                        help="run equivalence jobs in-process")
    p_ckpt.add_argument("--output", default=None, metavar="PATH",
                        help="report file (default: "
                             "CHECKPOINT_campaign.json at the repo root)")
    p_ckpt.set_defaults(func=cmd_checkpoint)

    p_devices = sub.add_parser(
        "devices",
        help="software-stack gate: boot every kernel-lite demo "
             "interpretive, under the JIT, and across checkpoint/"
             "restore; written to DEVICES_results.json",
        description="Boot each kernel-lite demo (see docs/SOFTWARE.md) "
                    "three ways and compare: the UART boot log must "
                    "match its pinned golden log with interrupts "
                    "delivered, the JIT run must be bit-exact (log, "
                    "cycles, instructions) with blocks compiled, and a "
                    "mid-boot snapshot/restore must finish "
                    "bit-identical to the straight run.  Exit codes: "
                    "0 = every demo held, 1 = harness failure, 2 = a "
                    "comparison failed.")
    p_devices.add_argument("--quick", action="store_true",
                           help="skip the long timer-sliced demo "
                                "(CI smoke)")
    p_devices.add_argument("--output", default=None, metavar="PATH",
                           help="report file (default: "
                                "DEVICES_results.json at the repo root)")
    p_devices.set_defaults(func=cmd_devices)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

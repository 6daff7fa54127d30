"""Tests for the shared-memory multiprocessor (repro.multi).

MIPS-X has no atomic read-modify-write, so the synchronization tests use
classic sequential-consistency algorithms (Peterson's lock, flag
handoffs), exactly what 1987-era shared-memory software would have run.
"""

import pathlib

import pytest

from repro.asm import assemble
from repro.core import MachineConfig, perfect_memory_config
from repro.multi import MultiMachine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

PETERSON = """
; two CPUs increment a shared counter ITER times under Peterson's lock;
; per-CPU identity arrives in gp
_start:
    li  s0, 50
    li  s1, 1
    sub s1, s1, gp     ; the other cpu's id
    la  t0, flag
    la  t3, turn
outer:
    add t1, t0, gp
    li  t2, 1
    st  t2, 0(t1)      ; flag[me] = 1
    st  s1, 0(t3)      ; turn = other
spin:
    add t4, t0, s1
    ld  t5, 0(t4)      ; flag[other]
    ld  t6, 0(t3)      ; turn
    nop
    beq t5, r0, enter
    nop
    nop
    bne t6, s1, enter
    nop
    nop
    br  spin
    nop
    nop
enter:
    la  t7, counter
    ld  t8, 0(t7)
    nop
    addi t8, t8, 1
    st  t8, 0(t7)
    st  r0, 0(t1)      ; flag[me] = 0
    addi s0, s0, -1
    bgt s0, r0, outer
    nop
    nop
    halt
flag: .space 2
turn: .space 1
counter: .word 0
"""


def run_peterson(config, **kwargs):
    program = assemble(PETERSON)
    system = MultiMachine(2, config, **kwargs)
    system.load_program(program)
    system.run(5_000_000)
    assert system.all_halted
    return system, system.memory.system.read(program.symbols["counter"])


class TestMutualExclusion:
    def test_peterson_no_lost_updates_ideal_memory(self):
        _, counter = run_peterson(perfect_memory_config())
        assert counter == 100

    def test_peterson_no_lost_updates_with_caches(self):
        system, counter = run_peterson(MachineConfig())
        assert counter == 100
        # caches were actively invalidated by the write-through broadcast
        assert system.bus.invalidations > 0

    def test_peterson_holds_under_bus_latency(self):
        """Mutual exclusion is a *correctness* property: stretching bus
        occupancy reshuffles the interleaving but must not lose
        updates."""
        system, counter = run_peterson(MachineConfig(), bus_latency=4)
        assert counter == 100
        assert system.bus.contention_cycles > 0

    def test_without_lock_updates_are_lost(self):
        """The control experiment: racing increments lose updates, which
        is exactly why the lock is needed (and proves the CPUs really do
        interleave)."""
        source = """
        _start:
            li  s0, 200
            la  t7, counter
        loop:
            ld  t8, 0(t7)
            nop
            addi t8, t8, 1
            st  t8, 0(t7)
            addi s0, s0, -1
            bgt s0, r0, loop
            nop
            nop
            halt
        counter: .word 0
        """
        program = assemble(source)
        system = MultiMachine(2, perfect_memory_config())
        system.load_program(program)
        system.run(5_000_000)
        counter = system.memory.system.read(program.symbols["counter"])
        assert counter < 400  # updates were lost in the race


class TestFlagHandoff:
    def test_producer_consumer(self):
        """CPU 0 produces a value and raises a flag; CPU 1 spins, then
        consumes and prints it."""
        source = """
        _start:
            beq gp, r0, producer
            nop
            nop
        consumer:
            la  t0, flag
        spin:
            ld  t1, 0(t0)
            nop
            beq t1, r0, spin
            nop
            nop
            la  t2, value
            ld  t3, 0(t2)
            li  a0, 0x3FFFF0
            st  t3, 0(a0)
            halt
        producer:
            li  t4, 777
            la  t5, value
            st  t4, 0(t5)
            li  t6, 1
            la  t7, flag
            st  t6, 0(t7)
            halt
        flag:  .word 0
        value: .word 0
        """
        program = assemble(source)
        system = MultiMachine(2, MachineConfig())
        system.load_program(program)
        system.run(5_000_000)
        assert system.all_halted
        assert system.console.values == [777]


class TestParallelSpeedup:
    SUM_SOURCE = """
    ; each of NCPU nodes sums its strided share of data[0..N) into
    ; partial[gp]; every node then spins until all done-flags are up and
    ; node 0 combines and prints
    _start:
        li   s0, 0          ; accumulator
        mov  t0, gp         ; index = cpu id
        li   s2, {n}
    sumloop:
        la   t1, data
        add  t1, t1, t0
        ld   t2, 0(t1)
        nop
        add  s0, s0, t2
        addi t0, t0, {ncpu}
        blt  t0, s2, sumloop
        nop
        nop
        la   t3, partial
        add  t3, t3, gp
        st   s0, 0(t3)
        la   t4, done
        add  t4, t4, gp
        li   t5, 1
        st   t5, 0(t4)
        bne  gp, r0, finish    ; only node 0 combines
        nop
        nop
        li   t6, 0             ; wait for all flags
    waitloop:
        la   t7, done
        add  t7, t7, t6
        ld   t8, 0(t7)
        nop
        beq  t8, r0, waitloop
        nop
        nop
        addi t6, t6, 1
        li   t9, {ncpu}
        blt  t6, t9, waitloop
        nop
        nop
        li   s1, 0
        li   t6, 0
    combine:
        la   t7, partial
        add  t7, t7, t6
        ld   t8, 0(t7)
        nop
        add  s1, s1, t8
        addi t6, t6, 1
        blt  t6, t9, combine
        nop
        nop
        li   a0, 0x3FFFF0
        st   s1, 0(a0)
    finish:
        halt
    partial: .space {ncpu}
    done:    .space {ncpu}
    data:    .word {data}
    """

    def _run(self, ncpu, n=64):
        values = [(3 * i + 1) % 23 for i in range(n)]
        source = self.SUM_SOURCE.format(
            n=n, ncpu=ncpu, data=", ".join(map(str, values)))
        program = assemble(source)
        system = MultiMachine(ncpu, perfect_memory_config())
        system.load_program(program)
        system.run(5_000_000)
        assert system.all_halted
        assert system.console.values == [sum(values)]
        return system.cycles

    def test_parallel_sum_is_correct_on_1_2_4_nodes(self):
        for ncpu in (1, 2, 4):
            self._run(ncpu)

    def test_parallel_sum_speeds_up(self):
        single = self._run(1, n=128)
        quad = self._run(4, n=128)
        assert quad < single  # real speedup from real parallelism
        assert quad < 0.6 * single


class TestBusModel:
    def test_bus_contention_is_counted(self):
        source = """
        _start:
            li  s0, 30
            la  t0, buffer
        loop:
            add t1, t0, gp
            sll t2, s0, 4
            add t1, t1, t2
            ld  t3, 0(t1)     ; scattered loads: Ecache misses -> bus
            nop
            addi s0, s0, -1
            bgt s0, r0, loop
            nop
            nop
            halt
        buffer: .space 1024
        """
        config = MachineConfig()
        config.ecache.size_words = 64
        config.ecache.line_words = 1
        system = MultiMachine(4, config)
        system.load_program(assemble(source))
        system.run(5_000_000)
        assert system.all_halted
        assert system.bus.acquisitions > 0
        assert system.bus.contention_cycles > 0

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            MultiMachine(0)
        with pytest.raises(ValueError):
            MultiMachine(17)

    def test_per_node_identity_in_gp(self):
        source = """
        _start:
            li  a0, 0x3FFFF0
            st  gp, 0(a0)
            halt
        """
        system = MultiMachine(3, perfect_memory_config())
        system.load_program(assemble(source))
        system.run(100_000)
        assert sorted(system.console.values) == [0, 1, 2]

    def test_memory_must_hold_the_node_stacks(self):
        """config.memory_words has to leave room for the per-node stacks
        below the conventional stack top -- a clear error, not a silent
        out-of-range store at runtime."""
        from repro.lang.codegen import STACK_TOP

        config = MachineConfig()
        config.memory_words = STACK_TOP // 2
        with pytest.raises(ValueError, match="memory_words"):
            MultiMachine(4, config)

    def test_bus_latency_validation(self):
        with pytest.raises(ValueError):
            MultiMachine(2, bus_latency=-1)

    def test_bus_latency_zero_is_the_plain_bus(self):
        """bus_latency=0 must be behavior-identical to the pre-knob bus:
        an owner releases as soon as its stall drains."""
        plain, counter_plain = run_peterson(MachineConfig())
        knob, counter_knob = run_peterson(MachineConfig(), bus_latency=0)
        assert counter_plain == counter_knob == 100
        assert plain.cycles == knob.cycles
        assert (plain.bus.contention_cycles == knob.bus.contention_cycles)


class TestSequentialConsistency:
    DEKKER = """
    ; the classic store-buffering litmus: each node raises its own flag,
    ; then reads the other's.  Under sequential consistency at least one
    ; node must observe the other's store -- (0, 0) is forbidden.
    _start:
        la  t0, x
        add t0, t0, gp     ; &x[me]
        li  t1, 1
        st  t1, 0(t0)      ; x[me] := 1
        la  t2, x
        li  t3, 1
        sub t3, t3, gp
        add t2, t2, t3     ; &x[other]
        ld  t4, 0(t2)
        nop
        li  a0, 0x3FFFF0
        st  t4, 0(a0)
        halt
    x: .space 2
    """

    def test_store_buffering_outcome_is_forbidden(self):
        system = MultiMachine(2, perfect_memory_config())
        system.load_program(assemble(self.DEKKER))
        system.run(100_000)
        assert system.all_halted
        assert sorted(system.console.values) != [0, 0]
        # stronger: a store lands in the shared image within its global
        # cycle, so two lockstep nodes that both store before loading
        # each observe the other's write
        assert system.console.values == [1, 1]


class TestParallelWorkloads:
    """The SPL parallel suite on real multiprocessors (reduced sizes)."""

    @pytest.mark.parametrize("name", ["psieve", "pintmm", "pring"])
    @pytest.mark.parametrize("ncpu", [1, 2, 4])
    def test_self_checking_result_on_n_nodes(self, name, ncpu):
        from repro.workloads.parallel import (QUICK_SIZES, expected_console,
                                              parallel_program)

        size = QUICK_SIZES[name]
        system = MultiMachine(ncpu, MachineConfig())
        system.load_program(parallel_program(name, ncpu, size))
        system.run(20_000_000)
        assert system.all_halted
        assert (system.console.values
                == expected_console(name, ncpu, size))

    def test_psieve_speeds_up_on_4_nodes(self):
        from repro.harness.experiments import multi_scaling_point

        single = multi_scaling_point("psieve", 1, size=240)
        quad = multi_scaling_point("psieve", 4, size=240)
        assert single["result_ok"] and quad["result_ok"]
        assert quad["cycles"] * 1.2 < single["cycles"]

    def test_single_node_timing_is_unchanged_by_the_bus(self):
        """speedup(N=1) == 1.0 by construction: one node can never
        contend, so the multi wrapper must add zero cycles over the
        node's own run."""
        from repro.harness.experiments import multi_scaling_point

        point = multi_scaling_point("pring", 1, size=8)
        assert point["cycles"] == point["node_cycles"][0]
        assert point["bus"]["contention_cycles"] == 0


class TestMultiBenchSection:
    def _jobs(self):
        from repro.harness.runner import Job

        return [
            Job(id=f"multi/psieve-n{n:02d}-bus0-inv",
                fn="repro.harness.experiments:multi_scaling_point",
                params={"workload": "psieve", "nodes": n, "size": 120},
                timeout=120.0,
                sweep="multi-scaling")
            for n in (1, 2)
        ]

    def test_serial_and_parallel_sections_are_byte_identical(self):
        """The ``multi`` BENCH section carries no wall-clock fields, so
        fanning the sweep across worker processes must aggregate to the
        same bytes as running it serially."""
        import json

        from repro.harness.bench import build_multi_section
        from repro.harness.runner import Runner

        runner = Runner(max_workers=2)
        jobs = self._jobs()
        serial = build_multi_section(runner.run(jobs, parallel=False))
        parallel = build_multi_section(runner.run(jobs, parallel=True))
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))
        assert serial["ok"] == 2 and not serial["failures"]
        curve = serial["curves"]["psieve/bus0/inv"]
        assert curve["nodes"] == [1, 2]
        assert curve["speedup"][0] == 1.0

    def test_check_multi_gate_failure_modes(self):
        """The bench gate's multi checks report named failures, never
        KeyErrors."""
        import copy
        import json

        from repro.harness import bench

        rows = {
            f"multi/psieve-n{n:02d}-bus0-inv": {
                "workload": "psieve", "nodes": n, "bus_latency": 0,
                "invalidation": True, "size": 120, "cycles": cycles,
                "node_cycles": [cycles] * n, "instructions": 100,
                "bus": {"acquisitions": n, "contention_cycles": n - 1,
                        "invalidations": 0},
                "result": [30], "result_ok": True,
            }
            for n, cycles in ((1, 1000), (2, 700), (4, 500))
        }
        good = {"multi": {
            "schema": 1, "jobs": 3, "ok": 3, "failures": [],
            "rows": rows,
            "curves": {"psieve/bus0/inv": {
                "workload": "psieve", "bus_latency": 0,
                "invalidation": True, "nodes": [1, 2, 4],
                "cycles": [1000, 700, 500],
                "speedup": [1.0, 1.428571, 2.0],
                "acquisitions": [1, 2, 4],
                "contention_cycles": [0, 1, 3],
                "invalidations": [0, 0, 0],
            }},
        }}

        committed = json.loads(
            (REPO_ROOT / "BENCH_pipeline.json").read_text())
        # E17's paper shape reads the committed pintmm rows
        rows.update({job_id: row
                     for job_id, row in committed["multi"]["rows"].items()
                     if job_id.startswith("multi/pintmm-")})

        def verdict(mutate):
            payload = copy.deepcopy({**committed, **good})
            mutate(payload)
            return [failure.message for failure in bench.gate(payload)]

        assert verdict(lambda p: None) == []
        assert verdict(lambda p: p.pop("multi"))
        assert verdict(lambda p: p["multi"].pop("curves"))
        curves = "psieve/bus0/inv"

        def bad_baseline(p):
            p["multi"]["curves"][curves]["speedup"][0] = 1.01

        def contention_drop(p):
            p["multi"]["curves"][curves]["contention_cycles"][2] = 0

        def result_drift(p):
            p["multi"]["rows"]["multi/psieve-n04-bus0-inv"][
                "result"] = [31]

        def failed_check(p):
            p["multi"]["rows"]["multi/psieve-n02-bus0-inv"][
                "result_ok"] = False

        def slow_n4(p):
            p["multi"]["curves"][curves]["speedup"][2] = 1.1

        def job_failure(p):
            p["multi"]["failures"] = ["multi/psieve-n08-bus0-inv"]

        for mutate in (bad_baseline, contention_drop, result_drift,
                       failed_check, slow_n4, job_failure):
            failures = verdict(mutate)
            assert failures, mutate.__name__
            assert all("Error" not in f for f in failures)


class TestMultiObservability:
    def _traced_system(self, metrics=None):
        from repro.workloads.parallel import parallel_program

        system = MultiMachine(2, MachineConfig(), bus_latency=2)
        system.load_program(parallel_program("pring", 2, 8))
        tracers = system.attach_tracers(metrics=metrics)
        system.run(2_000_000)
        assert system.all_halted
        return system, tracers

    def test_one_perfetto_process_per_node(self, tmp_path):
        from repro.telemetry import write_multi_trace

        system, tracers = self._traced_system()
        path = tmp_path / "trace.json"
        write_multi_trace(path, tracers)    # schema-validates internally
        import json

        events = json.loads(path.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {1, 2}
        names = {(e["pid"], e["args"]["name"]) for e in events
                 if e.get("name") == "process_name"}
        assert names == {(1, "node 0"), (2, "node 1")}
        # the bus-wait track exists in every node's metadata
        threads = {(e["pid"], e["tid"], e["args"]["name"])
                   for e in events if e.get("name") == "thread_name"}
        for pid in (1, 2):
            assert (pid, 9, "Bus wait") in threads

    def test_bus_wait_spans_cover_the_contention(self):
        system, tracers = self._traced_system()
        waits = [(start, end) for tracer in tracers
                 for kind, start, end in tracer.stall_spans
                 if kind == "bus_wait"]
        covered = sum(end - start + 1 for start, end in waits)
        assert covered == system.bus.contention_cycles

    def test_shared_metrics_collects_bus_wait_histogram(self):
        from repro.telemetry import Metrics

        metrics = Metrics()
        system, _ = self._traced_system(metrics=metrics)
        system.metrics(metrics)
        snapshot = metrics.snapshot()
        histogram = snapshot["multi.bus.wait.length"]
        assert histogram["count"] > 0


class TestNodeFaults:
    @pytest.mark.parametrize("fault_class",
                             ["node-icache-valid", "node-ecache-tag"])
    def test_node_fault_is_absorbed(self, fault_class):
        from repro.faults.multi import node_fault_point

        verdict = node_fault_point(0, fault_class, nodes=2, quick=True)
        assert verdict["status"] in ("absorbed", "not-triggered")
        assert not verdict["violations"]
        assert verdict["faulted_cycles"] <= (verdict["golden_cycles"]
                                             + verdict["cycle_budget"])

    def test_unknown_fault_class_raises(self):
        from repro.faults.multi import node_fault_point

        with pytest.raises(ValueError):
            node_fault_point(0, "node-psw-bit", nodes=2, quick=True)


class TestCpuid:
    def test_cpuid_compiles_to_gp_read(self):
        from repro.lang import compile_spl

        compilation = compile_spl(
            "program p;\nbegin\n    write(cpuid());\nend.")
        assert "mov" in compilation.asm_text
        assert "gp" in compilation.asm_text

    def test_cpuid_rejects_arguments(self):
        from repro.lang import compile_spl
        from repro.lang.symbols import SemanticError

        with pytest.raises(SemanticError):
            compile_spl("program p;\nbegin\n    write(cpuid(1));\nend.")

    def test_node_stack_words_must_be_a_power_of_two(self):
        from repro.lang import compile_spl
        from repro.lang.codegen import CompileError

        with pytest.raises(CompileError):
            compile_spl("program p;\nbegin\n    write(1);\nend.",
                        node_stack_words=100)

    def test_uniprocessor_sees_id_zero_and_full_stack(self):
        """gp is 0 on a plain Machine, so the per-node prologue leaves
        the uniprocessor layout untouched."""
        from repro.core import Machine
        from repro.lang import compile_spl

        program = compile_spl(
            "program p;\nbegin\n    write(cpuid());\nend.",
            node_stack_words=4096).program()
        machine = Machine(MachineConfig())
        machine.load_program(program)
        machine.run(100_000)
        assert machine.halted
        assert machine.console.values == [0]

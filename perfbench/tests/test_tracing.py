"""Self-time arithmetic and the rebinding tracer."""

import pytest

from perfbench.tracing import OTHER, Tracer, phase_summary, self_times

#: [name, start, end, parent]: a setup phase, then a run phase holding a
#: pipeline run (with a translator compile inside) and an assembly parse
SPANS = [
    ["setup", 0.0, 2.0, -1],
    ["lang.compile", 0.5, 1.5, 0],
    ["run", 2.0, 12.0, -1],
    ["core.run", 3.0, 8.0, 2],
    ["core.translate.compile", 4.0, 5.0, 3],
    ["asm.parse", 9.0, 11.0, 2],
    ["asm.parse", 11.0, 11.5, 2],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [1.0, 1.0, 2.5, 4.0, 1.0, 2.0, 0.5]


def test_phase_summary_groups_by_layer_and_reports_the_rest_as_other():
    run = phase_summary(SPANS, "run")
    assert run["wall_s"] == 10.0
    assert run["self_s_by_layer"] == {"asm": 2.5, "core": 4.0,
                                      "core.translate": 1.0, OTHER: 2.5}
    assert run["self_s_by_span"]["asm.parse"] == 2.5
    assert run["calls_by_span"]["asm.parse"] == 2
    assert run["coverage"] == pytest.approx(0.75)
    assert sum(run["self_s_by_layer"].values()) == pytest.approx(10.0)
    setup = phase_summary(SPANS, "setup")
    assert setup["self_s_by_layer"] == {"lang": 1.0, OTHER: 1.0}


def test_install_rebinds_every_importer_and_uninstall_restores():
    import repro.core  # noqa: F401
    import repro.fuzz.oracle as oracle
    import repro.reorg as reorg_package
    from repro.asm.assembler import Assembler
    from repro.reorg import reorganizer

    originals = (reorganizer.reorganize, Assembler.parse)
    tracer = Tracer("test")
    with tracer.installed():
        assert oracle.reorganize is not originals[0]
        assert reorg_package.reorganize is oracle.reorganize
        Assembler().parse("nop\n")
    assert (oracle.reorganize, reorg_package.reorganize) == (originals[0],) * 2
    assert (reorganizer.reorganize, Assembler.parse) == originals
    assert [span[0] for span in tracer.spans] == ["asm.parse"]


def test_pipeline_counts_are_the_deltas_of_each_run():
    from repro.core import Machine
    from repro.workloads import get

    program = get("fib").program()
    tracer = Tracer("test")
    with tracer.installed():
        machine = Machine()
        machine.load_program(program)
        machine.pipeline.run(1000)
        machine.run()
    assert tracer.counts["pipeline.cycles"] == machine.stats.cycles
    assert (tracer.counts["pipeline.instructions.retired"]
            == machine.stats.retired)
    assert [span[0] for span in tracer.spans].count("core.run") == 2

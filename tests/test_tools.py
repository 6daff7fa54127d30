"""Tests for the developer tooling: pipeline viewer, CLI, and the CI
workflow's calls into both."""

import ast
import pathlib
import re
import shlex

import pytest

from repro.asm import assemble
from repro.core import Machine, perfect_memory_config
from repro.tools import check_results, cli
from repro.tools.cli import main
from repro.tools.pipeview import PipelineTracer, trace_pipeline

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CI_FILE = REPO_ROOT / ".github" / "workflows" / "ci.yml"

LOOP = """
_start:
    li t0, 3
loop:
    addi t0, t0, -1
    bgtsq t0, r0, loop
    nop
    nop
    halt
"""


def make_machine(source=LOOP):
    machine = Machine(perfect_memory_config())
    machine.load_program(assemble(source))
    return machine


class TestPipelineTracer:
    def test_stage_progression(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(8)
        first = tracer.rows[0]
        # the first instruction walks F R A M W on consecutive cycles
        cycles = sorted(first.cells)
        letters = [first.cells[c] for c in cycles]
        assert letters[:5] == ["F", "R", "A", "M", "W"]
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))

    def test_one_instruction_per_cycle_enters(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(6)
        entries = [min(row.cells) for row in tracer.rows if row.cells]
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries)

    def test_squashed_slots_marked(self):
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(30)
        squashed_rows = [row for row in tracer.rows if row.squashed]
        assert squashed_rows, "final-iteration slots should be squashed"
        rendered = tracer.render()
        assert "x" in rendered or "f" in rendered

    def test_repeated_pcs_get_separate_rows(self):
        """Regression: CPython id() reuse must not merge loop iterations."""
        machine = make_machine()
        tracer = PipelineTracer(machine)
        tracer.step(30)
        loop_rows = [row for row in tracer.rows if row.pc == 1]
        assert len(loop_rows) == 3  # three iterations of the loop body
        for row in loop_rows:
            cycles = sorted(row.cells)
            assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))

    def test_stall_cycles_render_dots(self):
        from repro.core import MachineConfig

        machine = Machine(MachineConfig())  # real Icache: cold misses stall
        machine.load_program(assemble(LOOP))
        tracer = PipelineTracer(machine)
        tracer.step(12)
        assert "." in tracer.render()

    def test_trace_pipeline_convenience(self):
        text = trace_pipeline(make_machine(), cycles=10)
        assert "legend" in text
        assert "addi" in text


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", """
        _start:
            li t0, 21
            add t0, t0, t0
            li a0, 0x3FFFF0
            st t0, 0(a0)
            halt
        """)
        assert main(["run", path, "--ideal", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "console: [42]" in out
        assert "CPI" in out

    def test_run_with_trace(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", LOOP)
        assert main(["run", path, "--ideal", "--trace", "8"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_compile_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl", """
        program t;
        begin write(6 * 7); end.
        """)
        assert main(["compile", path, "--ideal"]) == 0
        assert "console: [42]" in capsys.readouterr().out

    def test_compile_emit_asm(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl",
                           "program t; begin write(1); end.")
        assert main(["compile", path, "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out

    def test_compile_listing(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.spl",
                           "program t; begin write(1); end.")
        assert main(["compile", path, "--listing"]) == 0
        assert "halt" in capsys.readouterr().out

    def test_disasm_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", "_start: nop\nhalt")
        assert main(["disasm", path]) == 0
        out = capsys.readouterr().out
        assert "nop" in out and "halt" in out

    def test_workload_command(self, capsys):
        assert main(["workload", "fib", "--ideal"]) == 0
        assert "console: [610]" in capsys.readouterr().out

    def test_nonhalting_program_reports_failure(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.s", "_start: br _start\nnop\nnop")
        assert main(["run", path, "--ideal",
                     "--max-cycles", "1000"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["run", "missing.s"], "No such file"),
        (["compile", "missing.spl"], "No such file"),
        (["disasm", "missing.s"], "No such file"),
        (["run", "bad.s"], "add takes 3 operands (rd, rs1, rs2), got 1"),
        (["disasm", "bad.s"], "add takes 3 operands (rd, rs1, rs2), got 1"),
        (["run", "undefined.s"], "undefined symbol 'nowhere'"),
        (["trace", "bad.s"], "add takes 3 operands"),
        (["compile", "bad.spl"], "expected an expression"),
        (["compile", "undeclared.spl"], "undefined variable 'y'"),
        (["compile", "lex.spl"], "unexpected character"),
        (["workload", "nosuch"], "unknown workload 'nosuch'"),
        (["trace", "nosuch"], "unknown workload 'nosuch'"),
        (["trace", "sieve", "--nodes", "2"],
         "unknown parallel workload 'sieve'"),
        (["trace", "missing.s"], "No such file"),
        (["trace", "missing.spl"], "No such file"),
        (["trace", "nodir/sieve"], "No such file"),
    ])
    def test_misuse_is_one_named_error(self, argv, message, tmp_path,
                                       monkeypatch, capsys):
        """Each misuse exits 1 with one ``error:`` line and no
        traceback."""
        for name, text in {
                "bad.s": "add r1\n",
                "undefined.s": "_start: br nowhere\nnop\nnop\nhalt\n",
                "bad.spl": "program t; begin write(1 + ); end.",
                "undeclared.spl": "program t; begin write(y); end.",
                "lex.spl": "program t; begin write(1 ? 2); end.",
        }.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert message in lines[0]
        assert "Traceback" not in captured.err


class TestCheckBenchFile:
    """The bench gate on the sections of a report: the committed
    ``BENCH_pipeline.json`` with one section tampered."""

    def _complete(self):
        import json

        return json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())

    def _gate(self, payload):
        from repro.harness import bench

        return [failure.message for failure in bench.gate(payload)]

    def test_complete_file_passes(self):
        assert self._gate(self._complete()) == []

    def test_missing_section_is_named(self):
        payload = self._complete()
        del payload["sweep"]
        failures = self._gate(payload)
        assert any("section 'sweep' is missing" in f for f in failures)

    def test_missing_key_is_named(self):
        payload = self._complete()
        del payload["sweep"]["ok"]
        failures = self._gate(payload)
        assert any("section 'sweep' is missing key 'ok'" in f
                   for f in failures)

    def test_partial_write_is_not_a_keyerror(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"sweep": {"jobs')     # torn write
        failures = check_results.check_campaign_file("bench", path)
        assert failures and "not valid JSON" in failures[0]

    def test_experiment_rows_need_status(self):
        payload = self._complete()
        payload["experiments"]["e/2"] = {"sweep": "e"}
        failures = self._gate(payload)
        assert any("row 'e/2' has no 'status'" in f for f in failures)

    def test_missing_file_is_reported(self, tmp_path):
        failures = check_results.check_campaign_file(
            "bench", tmp_path / "nope.json")
        assert failures and "does not exist" in failures[0]

    def test_slow_parallel_sweep_fails_on_two_workers(self):
        payload = self._complete()
        payload["host"] = {"cpu_count": 2, "workers": 2}
        payload["sweep"]["speedup"] = 1.31
        assert self._gate(payload) == []
        payload["sweep"]["speedup"] = 0.39          # tampered
        failures = self._gate(payload)
        assert any("section 'sweep' speedup 0.39 on 2 workers" in f
                   for f in failures)

    def test_one_worker_sweep_has_no_speedup_floor(self):
        payload = self._complete()
        payload["host"] = {"cpu_count": 1, "workers": 1}
        payload["sweep"]["speedup"] = 0.39
        assert self._gate(payload) == []


def check_fuzz_file(path):
    return check_results.check_campaign_file("fuzz", path)


class TestCheckFuzzFile:
    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(payload))
        return path

    def _clean(self):
        return {"schema": 1,
                "config": {"seeds": 2, "modes": ["isa"], "quick": True,
                           "mutation": None},
                "totals": {"jobs": 2, "completed": 2, "ok": 2,
                           "diverged": 0, "harness_failures": 0},
                "complete": True,
                "divergences": []}

    def test_clean_report_passes(self, tmp_path):
        assert check_fuzz_file(self._write(tmp_path, self._clean())) == []

    def test_missing_file_is_reported(self, tmp_path):
        failures = check_fuzz_file(tmp_path / "nope.json")
        assert failures and "does not exist" in failures[0]

    def test_missing_totals_key_is_named(self, tmp_path):
        payload = self._clean()
        del payload["totals"]["diverged"]
        failures = check_fuzz_file(self._write(tmp_path, payload))
        assert any("missing key 'diverged'" in f for f in failures)

    def test_incomplete_campaign_fails_with_resume_hint(self, tmp_path):
        payload = self._clean()
        payload["complete"] = False
        payload["totals"]["completed"] = 1
        failures = check_fuzz_file(self._write(tmp_path, payload))
        assert any("incomplete" in f
                   and "rerunning the same `repro campaign fuzz`" in f
                   for f in failures)

    def test_unexplained_divergence_fails(self, tmp_path):
        payload = self._clean()
        payload["totals"]["diverged"] = 1
        payload["totals"]["ok"] = 1
        failures = check_fuzz_file(self._write(tmp_path, payload))
        assert any("unexplained model divergence" in f for f in failures)

    def test_mutation_divergence_is_explained(self, tmp_path):
        payload = self._clean()
        payload["config"]["mutation"] = "sra-logical"
        payload["totals"]["diverged"] = 1
        payload["totals"]["ok"] = 1
        assert check_fuzz_file(self._write(tmp_path, payload)) == []

    def test_harness_failures_fail(self, tmp_path):
        payload = self._clean()
        payload["totals"]["harness_failures"] = 1
        failures = check_fuzz_file(self._write(tmp_path, payload))
        assert any("failed in the harness" in f for f in failures)

    def test_missed_mutation_fails_the_self_test(self, tmp_path):
        payload = self._clean()
        payload["config"]["mutation"] = "sra-logical"
        failures = check_fuzz_file(self._write(tmp_path, payload))
        assert any("failed its self-test" in f for f in failures)


class TestCheckResultsSummary:
    """``check_results`` only dispatches: it applies each named
    campaign's gate to its report, and its last line names the gates
    that failed."""

    HOLDING = REPO_ROOT / "FAULTS_campaign.json"

    def test_failing_campaign_is_named(self, tmp_path, capsys):
        import json

        report = tmp_path / "faults.json"
        report.write_text(json.dumps(
            {"complete": True,
             "summary": {"violated": 2, "unhandled_jobs": 0,
                         "interrupted_jobs": 0}}))
        assert check_results.main(["--campaign", f"faults={report}",
                                   "--campaign",
                                   f"faults={self.HOLDING}"]) == 1
        out, err = capsys.readouterr()
        assert f"[  ok] faults campaign report ({self.HOLDING})" in out
        assert err.strip().splitlines()[-1] == (
            f"1 gate(s) failed -- faults campaign report ({report}): 1")

    def test_holding_reports_exit_zero(self, capsys):
        assert check_results.main(["--campaign",
                                   f"faults={self.HOLDING}"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [f"[  ok] faults campaign report ({self.HOLDING})",
                       "", "all 1 gates hold"]

    def test_a_report_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            check_results.main([])
        assert exc.value.code == 2
        assert "--campaign" in capsys.readouterr().err


def _ci_jobs():
    """Each CI job's name -> the lines of ci.yml under it."""
    lines = CI_FILE.read_text().splitlines()
    jobs, name = {}, None
    for line in lines[lines.index("jobs:") + 1:]:
        match = re.match(r"^  ([\w-]+):\s*$", line)
        if match:
            name = match.group(1)
            jobs[name] = []
        elif name:
            jobs[name].append(line)
    return jobs


def _ci_commands(lines=None):
    """The shell commands of every ``run:`` step in the CI workflow (or
    in ``lines`` of it), and of every matrix entry's ``commands:``
    (which its step runs as ``run: ${{ matrix.commands }}``).

    A folded (``>``) or literal (``|``) block is the lines indented past
    its key; a trailing backslash continues a line, and each command is
    split at ``&&`` and newlines into argv.
    """
    if lines is None:
        lines = CI_FILE.read_text().splitlines()
    commands = []
    for index, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?(?:run|commands):\s*(.*)$", line)
        if not match:
            continue
        column, text = len(match.group(1)), match.group(2)
        if text in (">", "|"):
            block = []
            for follow in lines[index + 1:]:
                if follow.strip() and len(follow) - len(follow.lstrip()) \
                        <= column:
                    break
                block.append(follow.strip())
            text = (" " if text == ">" else "\n").join(block)
        text = text.replace("\\\n", " ")
        for part in re.split(r"&&|\n", text):
            if "repro.tools" in part or "pytest" in part:
                commands.append(shlex.split(part))
    return commands


def _ci_calls(module):
    """The argv after ``python -m <module>`` of each CI call into it."""
    return [argv[argv.index(module) + 1:] for argv in _ci_commands()
            if module in argv]


def _assert_parses(parser, args, capsys):
    try:
        parser.parse_args(args)
    except SystemExit:
        error = capsys.readouterr().err.strip().splitlines()[-1]
        pytest.fail(f"ci.yml runs {shlex.join(args)!r}: {error}")


class TestCiWorkflow:
    """Every command CI runs must exist, so deleting a subcommand, a gate
    flag or a test file that CI still calls fails here, not only in CI."""

    def test_cli_subcommands_exist(self, capsys):
        calls = _ci_calls("repro.tools.cli")
        used = {args[0] for args in calls}
        required = {"campaign", "workload"}
        assert required <= used, f"CI never runs {sorted(required - used)}"
        for args in calls:
            _assert_parses(cli.build_parser(), args, capsys)

    def test_check_results_flags_are_registered(self, capsys):
        calls = _ci_calls("repro.tools.check_results")
        used = {arg for args in calls for arg in args}
        gates = {"--campaign"}
        assert gates <= used, f"CI never runs {sorted(gates - used)}"
        for args in calls:
            _assert_parses(check_results.build_parser(), args, capsys)

    def test_every_campaign_runs_and_is_gated(self):
        from repro.harness.campaign import CAMPAIGNS

        run = {args[1] for args in _ci_calls("repro.tools.cli")
               if args[0] == "campaign"}
        gated = {args[i + 1].partition("=")[0]
                 for args in _ci_calls("repro.tools.check_results")
                 for i, arg in enumerate(args) if arg == "--campaign"}
        assert run == gated == set(CAMPAIGNS)

    def test_bench_gates_read_what_bench_wrote(self):
        """On every Python a CI matrix runs, each ``--campaign
        bench=PATH`` of check_results reads a file that a ``campaign
        bench`` call of the same job wrote, so the gate never checks a
        stale or absent file."""
        from repro.harness.bench import DEFAULT_REPORT

        ci_pythons, gated = set(), set()
        for lines in _ci_jobs().values():
            pythons = {version for line in lines if "python-version" in line
                       for version in re.findall(r'"(3\.\d+)"', line)}
            ci_pythons |= pythons
            written = set()
            for argv in _ci_commands(lines):
                args = (argv[argv.index("repro.tools.cli") + 1:]
                        if "repro.tools.cli" in argv else [])
                if args[:2] == ["campaign", "bench"]:
                    parsed = cli.build_parser().parse_args(args)
                    written.add(parsed.output or DEFAULT_REPORT.name)
                elif "repro.tools.check_results" in argv:
                    for flag, arg in zip(argv, argv[1:]):
                        if flag == "--campaign" and arg.startswith("bench="):
                            path = arg.partition("=")[2]
                            assert path in written, (
                                f"check_results gates {path}, which no "
                                "campaign bench call of its job wrote")
                            gated |= pythons
        assert ci_pythons
        assert gated == ci_pythons, (
            f"check_results --campaign bench= gates a file campaign bench "
            f"wrote only on {sorted(gated)}, not on {sorted(ci_pythons)}")

    def test_pytest_targets_exist(self):
        targets = [arg for argv in _ci_commands() if "pytest" in argv
                   for arg in argv if arg.startswith("tests/")]
        assert targets
        for target in targets:
            path, *names = target.split("::")
            assert (REPO_ROOT / path).is_file(), f"ci.yml runs {path}"
            scope = ast.parse((REPO_ROOT / path).read_text()).body
            for name in names:
                found = [node for node in scope
                         if getattr(node, "name", None) == name]
                assert found, f"ci.yml runs {target}: no {name}"
                scope = getattr(found[0], "body", [])

    def test_workflow_is_valid_yaml(self):
        yaml = pytest.importorskip("yaml")
        workflow = yaml.safe_load(CI_FILE.read_text())
        assert "test" in workflow["jobs"]

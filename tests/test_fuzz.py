"""The differential fuzzer: generator, oracle, shrinker, corpus, campaign.

Covers the contracts the fuzzing subsystem promises:

* generation is deterministic (same seed + config -> byte-identical
  program) and produces terminating, memory-bounded programs;
* the oracle reports agreement on honest models and catches planted
  golden-model bugs (every registered mutation);
* the shrinker minimizes a caught divergence to a tiny repro that still
  fails the same way;
* the committed ``fuzz_corpus/`` replays clean (regression pin for every
  bug the fuzzer ever found);
* campaigns are deterministic serial-vs-parallel, and a rerun reports
  the code as it stands, not an earlier run's verdicts;
* the documented exit-code taxonomy (0 ok / 1 harness / 2 divergence)
  holds.
"""

import dataclasses
import json

import pytest

from repro.fuzz import campaign as fuzz_campaign
from repro.fuzz.campaign import fuzz_point, gate, run_campaign
from repro.fuzz.corpus import iter_corpus, load_entry, replay_entry, write_entry
from repro.fuzz.gen import GenConfig, generate_program
from repro.fuzz.mutation import MUTATIONS, get_mutator
from repro.fuzz.oracle import (
    PAIR_GOLDEN_PIPELINE,
    check_all,
    check_program,
)
from repro.fuzz.shrink import count_instructions, shrink
from repro.harness import campaign

QUICK_ISA = GenConfig(mode="isa", quick=True)
QUICK_LANG = GenConfig(mode="lang", quick=True)


def exit_code(payload):
    """The exit code ``repro campaign fuzz`` gives this report."""
    return campaign.exit_code(gate(payload))


class TestGenerator:
    @pytest.mark.parametrize("config", [QUICK_ISA, QUICK_LANG],
                             ids=["isa", "lang"])
    def test_same_seed_is_byte_identical(self, config):
        for seed in range(5):
            first = generate_program(seed, config)
            second = generate_program(seed, config)
            assert first.source.encode() == second.source.encode()
            assert first == second

    def test_different_seeds_differ(self):
        sources = {generate_program(seed, QUICK_ISA).source
                   for seed in range(10)}
        assert len(sources) == 10

    def test_isa_programs_terminate_and_stay_in_bounds(self):
        # the shrinker's monitored run enforces exactly the generator's
        # promises: assembles, halts, every data access inside the data
        # region or MMIO
        from repro.fuzz.shrink import _monitored_golden_ok

        for seed in range(10):
            generated = generate_program(seed, QUICK_ISA)
            assert _monitored_golden_ok(generated), (
                f"seed {seed} broke a generator invariant")

    def test_lang_programs_compile(self):
        from repro.lang import compile_spl

        for seed in range(5):
            generated = generate_program(seed, QUICK_LANG)
            compilation = compile_spl(generated.source, scheme=None)
            assert compilation.naive_program().image


class TestOracle:
    @pytest.mark.parametrize("config", [QUICK_ISA, QUICK_LANG],
                             ids=["isa", "lang"])
    def test_honest_models_agree(self, config):
        for seed in range(6):
            generated = generate_program(seed, config)
            reports = check_all(generated)
            assert reports == [], (
                f"seed {seed}: {[r.summary() for r in reports]}")

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_planted_mutation_is_caught(self, name):
        mutator = get_mutator(name)
        for seed in range(10):
            generated = generate_program(seed, QUICK_ISA)
            report = check_program(generated, golden_mutator=mutator)
            if report is not None:
                assert report.pair == PAIR_GOLDEN_PIPELINE
                return
        pytest.fail(f"mutation {name!r} escaped 10 seeds")


class TestShrinker:
    def test_planted_bug_shrinks_to_tiny_repro(self):
        mutator = get_mutator("sra-logical")
        generated = generate_program(0, QUICK_ISA)
        report = check_program(generated, golden_mutator=mutator)
        assert report is not None
        shrunk = shrink(generated, report, golden_mutator=mutator)
        size = count_instructions(shrunk.source)
        assert size <= 8, f"shrunk repro still has {size} instructions"
        again = check_program(shrunk, golden_mutator=mutator)
        assert again is not None
        assert (again.pair, again.kind) == (report.pair, report.kind)

    def test_shrunk_repro_is_clean_without_the_mutation(self):
        mutator = get_mutator("addi-trunc8")
        generated = generate_program(0, QUICK_ISA)
        report = check_program(generated, golden_mutator=mutator)
        assert report is not None
        shrunk = shrink(generated, report, golden_mutator=mutator)
        assert check_program(shrunk) is None


class TestCorpus:
    def test_write_load_roundtrip(self, tmp_path):
        mutator = get_mutator("sra-logical")
        generated = generate_program(0, QUICK_ISA)
        report = check_program(generated, golden_mutator=mutator)
        entry_dir = write_entry(generated, report, corpus_dir=tmp_path,
                                mutation="sra-logical", note="self test")
        entry = load_entry(entry_dir)
        assert entry.generated == generated
        assert (entry.pair, entry.kind) == (report.pair, report.kind)
        assert entry.mutation == "sra-logical"
        assert replay_entry(entry) == []

    def test_committed_corpus_replays_clean(self):
        """Tier-1 regression pin: every repro the fuzzer ever filed."""
        entries = list(iter_corpus())
        assert entries, "fuzz_corpus/ is missing or empty"
        failures = []
        for entry in entries:
            failures.extend(replay_entry(entry))
        assert failures == [], "\n".join(failures)


def _strip_volatile(payload):
    return {key: value for key, value in payload.items()
            if key != "report_path"}


class TestCampaign:
    SEEDS = 3

    def test_clean_campaign_serial_equals_parallel(self, tmp_path):
        kwargs = dict(seeds=self.SEEDS, modes=("isa",), quick=True,
                      write_corpus=False)
        serial = run_campaign(parallel=False,
                              output=tmp_path / "serial.json", **kwargs)
        parallel = run_campaign(workers=2, parallel=True,
                                output=tmp_path / "parallel.json", **kwargs)
        assert serial["complete"] and parallel["complete"]
        assert exit_code(serial) == 0
        assert _strip_volatile(serial) == _strip_volatile(parallel)
        assert ((tmp_path / "serial.json").read_bytes()
                == (tmp_path / "parallel.json").read_bytes())

    def test_rerun_reports_the_code_as_it_stands(self, tmp_path,
                                                 monkeypatch):
        # A rerun with the same output must run every job again: a
        # report carried over from an earlier run would hide a
        # divergence the code now has.
        kwargs = dict(seeds=1, modes=("isa",), quick=True, parallel=False,
                      write_corpus=False, output=tmp_path / "out.json")
        first = run_campaign(**kwargs)
        assert first["totals"]["diverged"] == 0

        def diverged(seed, mode, **_ignored):
            return {"seed": seed, "mode": mode, "status": "diverged",
                    "reports": [{"pair": PAIR_GOLDEN_PIPELINE,
                                 "kind": "state", "mismatches": []}],
                    "shrunk_source": "halt", "shrunk_instructions": 1}

        monkeypatch.setattr(fuzz_campaign, "fuzz_point", diverged)
        rerun = run_campaign(**kwargs)
        assert rerun["complete"]
        assert rerun["totals"]["diverged"] == 1
        assert rerun["divergences"][0]["seed"] == 0
        assert exit_code(rerun) == 2
        written = json.loads((tmp_path / "out.json").read_text())
        assert written["totals"]["diverged"] == 1
        # nothing but the report is left next to it
        assert [path.name for path in tmp_path.iterdir()] == ["out.json"]

    def test_mutation_campaign_reports_but_does_not_fail(self, tmp_path):
        payload = run_campaign(seeds=1, modes=("isa",), quick=True,
                               parallel=False, mutation="sra-logical",
                               write_corpus=False,
                               output=tmp_path / "mut.json")
        assert payload["complete"]
        assert payload["totals"]["diverged"] == 1
        divergence = payload["divergences"][0]
        assert divergence["shrunk_instructions"] <= 8
        assert exit_code(payload) == 0

    def test_divergence_files_a_corpus_entry(self, tmp_path):
        # corpus filing is driven by the report alone; exercise it via a
        # mutation campaign with the mutation gate lifted artificially
        payload = run_campaign(seeds=1, modes=("isa",), quick=True,
                               parallel=False, mutation="sra-logical",
                               write_corpus=False,
                               output=tmp_path / "mut.json")
        divergence = payload["divergences"][0]
        generated = generate_program(0, QUICK_ISA)
        shrunk = dataclasses.replace(generated,
                                     source=divergence["shrunk_source"])
        from repro.fuzz.oracle import DivergenceReport

        first = divergence["reports"][0]
        entry_dir = write_entry(
            shrunk,
            DivergenceReport(pair=first["pair"], kind=first["kind"],
                             mismatches=first["mismatches"]),
            corpus_dir=tmp_path / "corpus", mutation="sra-logical")
        assert (entry_dir / "repro.s").is_file()
        meta = json.loads((entry_dir / "meta.json").read_text())
        assert meta["pair"] == PAIR_GOLDEN_PIPELINE
        assert meta["mutation"] == "sra-logical"

    def test_fuzz_point_ok_row_is_minimal(self):
        row = fuzz_point(seed=1, mode="isa", quick=True)
        assert row == {"seed": 1, "mode": "isa", "status": "ok"}


class TestOptionErrors:
    """A typo in an option is an ``error:`` line and exit 1, before any
    job runs and without a report -- never a finding (exit 2)."""

    @pytest.mark.parametrize("argv,named", [
        (["--mutate", "nosuch"], ["'nosuch'", "sra-logical"]),
        (["--modes", "bogus"], ["'bogus'", "isa, lang, os"]),
        (["--modes", "isa,isa"], ["'isa,isa'", "distinct"]),
        (["--seeds", "0"], ["seeds", "at least 1"]),
    ], ids=["mutation", "mode", "repeated-mode", "seeds"])
    def test_rejected_before_any_job_runs(self, argv, named, tmp_path,
                                          monkeypatch, capsys):
        from repro.tools import cli

        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(fuzz_campaign.Runner, "run", no_job)
        output = tmp_path / "fuzz.json"
        code = cli.main(["campaign", "fuzz", "--seeds", "1", "--modes",
                         "isa", "--quick", "--serial", "--no-corpus",
                         "--output", str(output)] + argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for word in named:
            assert word in err
        assert not output.exists()


class TestExitTaxonomy:
    """The documented mapping: 0 ok / 1 harness failure / 2 divergence."""

    @staticmethod
    def _payload(diverged=0, harness=0, mutation=None, complete=True):
        return {"totals": {"jobs": 4, "completed": 4, "ok": 4 - diverged,
                           "diverged": diverged,
                           "harness_failures": harness},
                "complete": complete,
                "config": {"mutation": mutation},
                "divergences": []}

    def test_clean_campaign_exits_zero(self):
        assert exit_code(self._payload()) == 0

    def test_harness_failure_exits_one(self):
        assert exit_code(self._payload(harness=1)) == 1

    def test_unexplained_divergence_exits_two(self):
        assert exit_code(self._payload(diverged=1)) == 2

    def test_divergence_outranks_harness_failure(self):
        assert exit_code(self._payload(diverged=1, harness=1)) == 2

    def test_explained_mutation_divergence_exits_zero(self):
        assert exit_code(self._payload(diverged=1,
                                       mutation="sra-logical")) == 0

    def test_missed_planted_mutation_exits_two(self):
        # a mutation campaign that catches nothing failed its self-test
        assert exit_code(self._payload(mutation="sra-logical")) == 2

    def test_incomplete_mutation_campaign_is_not_a_miss(self):
        assert exit_code(self._payload(mutation="sra-logical",
                                       complete=False)) == 0

    def test_taxonomy_documented_in_help(self):
        from repro.tools.cli import build_parser

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        campaigns = subparsers.choices["campaign"]._subparsers
        for command in ("faults", "fuzz"):
            help_text = (campaigns._group_actions[0].choices[command]
                         .format_help())
            assert "0" in help_text and "1" in help_text and "2" in help_text
            assert "harness" in help_text
            expected = ("divergence" if command == "fuzz"
                        else "invariant violation")
            assert expected in help_text

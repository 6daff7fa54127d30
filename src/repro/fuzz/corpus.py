"""The ``fuzz_corpus/`` directory of shrunk reproducers.

Every divergence the fuzzer ever finds leaves a permanent artifact: a
directory holding the minimized program (``repro.s`` for ISA mode,
``repro.spl`` for lang mode) plus ``meta.json`` recording the seed, the
model pair, the divergence kind, the mismatch diff, and the comparison
bounds (excluded registers, data region).  Once the underlying bug is
fixed, the entry stays committed and a tier-1 test replays the whole
corpus through the oracle, pinning the fix forever.

Entries written while a dev-only golden mutation was active record the
mutation name; the replay test runs those *with* the mutation planted and
demands the divergence is still caught (the fuzzer's own regression),
while unmutated entries must replay clean.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Any, Dict, Iterator, List, Optional

from repro.fuzz.gen import GeneratedProgram
from repro.fuzz.oracle import DivergenceReport
from repro.harness.campaign import REPO_ROOT, write_json_atomic

DEFAULT_CORPUS = REPO_ROOT / "fuzz_corpus"

_SOURCE_NAME = {"isa": "repro.s", "lang": "repro.spl"}


@dataclasses.dataclass
class CorpusEntry:
    """One committed reproducer: program + the divergence it captured."""

    path: pathlib.Path
    generated: GeneratedProgram
    pair: str
    kind: str
    mutation: Optional[str]
    meta: Dict[str, Any]

    @property
    def name(self) -> str:
        return self.path.name


def entry_name(generated: GeneratedProgram, report: DivergenceReport) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", f"{report.pair}-{report.kind}")
    return f"{generated.mode}-seed{generated.seed:04d}-{slug}".strip("-")


def write_entry(generated: GeneratedProgram, report: DivergenceReport,
                corpus_dir: Optional[pathlib.Path] = None,
                mutation: Optional[str] = None,
                note: str = "") -> pathlib.Path:
    """Persist one (shrunk) reproducer; returns the entry directory."""
    base = pathlib.Path(corpus_dir) if corpus_dir else DEFAULT_CORPUS
    entry_dir = base / entry_name(generated, report)
    entry_dir.mkdir(parents=True, exist_ok=True)
    source_file = entry_dir / _SOURCE_NAME[generated.mode]
    source_file.write_text(generated.source)
    meta: Dict[str, Any] = {
        "schema": 1,
        "seed": generated.seed,
        "mode": generated.mode,
        "pair": report.pair,
        "kind": report.kind,
        "mismatches": report.mismatches,
        "excluded_regs": sorted(generated.excluded_regs),
        "data_base": generated.data_base,
        "data_words": generated.data_words,
        "max_instructions": generated.max_instructions,
        "max_cycles": generated.max_cycles,
    }
    if mutation:
        meta["mutation"] = mutation
    if note:
        meta["note"] = note
    write_json_atomic(entry_dir / "meta.json", meta)
    return entry_dir


def load_entry(entry_dir: pathlib.Path) -> CorpusEntry:
    meta = json.loads((entry_dir / "meta.json").read_text())
    mode = meta["mode"]
    source = (entry_dir / _SOURCE_NAME[mode]).read_text()
    generated = GeneratedProgram(
        seed=meta["seed"], mode=mode, source=source,
        excluded_regs=tuple(meta.get("excluded_regs", ())),
        data_base=meta.get("data_base", 0),
        data_words=meta.get("data_words", 0),
        max_instructions=meta.get("max_instructions", 400_000),
        max_cycles=meta.get("max_cycles", 4_000_000))
    return CorpusEntry(path=entry_dir, generated=generated,
                       pair=meta["pair"], kind=meta["kind"],
                       mutation=meta.get("mutation"), meta=meta)


def iter_corpus(corpus_dir: Optional[pathlib.Path] = None,
                ) -> Iterator[CorpusEntry]:
    """Load every committed entry, sorted by name (deterministic order)."""
    base = pathlib.Path(corpus_dir) if corpus_dir else DEFAULT_CORPUS
    if not base.is_dir():
        return
    for entry_dir in sorted(base.iterdir()):
        if entry_dir.is_dir() and (entry_dir / "meta.json").is_file():
            yield load_entry(entry_dir)


def replay_entry(entry: CorpusEntry) -> List[str]:
    """Replay one entry through the oracle; returns failure strings.

    * unmutated entries captured real, since-fixed bugs: the models must
      now agree (a reappearing divergence means a regression);
    * mutated entries are fuzzer self-tests: with the recorded mutation
      planted the oracle must still catch the same (pair, kind).
    """
    from repro.fuzz.mutation import get_mutator
    from repro.fuzz.oracle import check_all

    mutator = get_mutator(entry.mutation) if entry.mutation else None
    reports = check_all(entry.generated, golden_mutator=mutator)
    if entry.mutation:
        if not any((r.pair, r.kind) == (entry.pair, entry.kind)
                   for r in reports):
            return [f"{entry.name}: planted mutation "
                    f"{entry.mutation!r} no longer caught as "
                    f"({entry.pair}, {entry.kind})"]
        return []
    return [f"{entry.name}: {report.summary()}" for report in reports]

"""Delta-debugging shrinker: minimize a failing program.

Given a generated program that the differential oracle rejects, the
shrinker searches for a smallest sub-program that *still fails the same
way* (same model pair, same divergence kind).  The algorithm is
Zeller-style ddmin over removable source lines, followed by a one-by-one
elimination sweep, bounded by ``max_evals`` oracle evaluations.

Soundness: deleting lines can change which addresses a surviving load or
store touches (its base register may no longer be initialized), and a
stray access outside the generator's bounded data region could fabricate
an artificial divergence (e.g. reading *code*, which legitimately
differs between the naive and reorganized images).  Every candidate is
therefore pre-validated with a **monitored golden run** that rejects any
data access outside the data region or the MMIO window; invalid
candidates count as "does not fail" and are never kept.

Lang-mode programs shrink at SPL *statement* granularity (whole
``begin``/``end`` groups or single assignment lines), so every candidate
still parses and still terminates.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence, Tuple

from repro.asm.assembler import parse as parse_asm
from repro.core.golden import GoldenSimulator
from repro.fuzz.gen import GeneratedProgram
from repro.fuzz.oracle import (
    DivergenceReport,
    FuzzProgramError,
    check_program,
)

#: default cap on oracle evaluations during one shrink
DEFAULT_MAX_EVALS = 400

_LABEL_LINE = re.compile(r"^\s*[A-Za-z_.$][\w.$]*:\s*$")
_DIRECTIVE_LINE = re.compile(r"^\s*\.")
#: instruction lines that anchor control structure and are never removed
_PINNED = re.compile(r"^\s*(halt|ret)\b")


class _OutOfBounds(Exception):
    pass


def _monitored_golden_ok(generated: GeneratedProgram) -> bool:
    """Assemble + run the naive program with data accesses bounds-checked.

    Returns False when the candidate does not assemble, does not halt,
    or touches data memory outside ``[data_base, data_base+data_words)``
    or the MMIO window -- all signs the deletion changed the program's
    meaning rather than shrinking the failure.
    """
    try:
        program = parse_asm(generated.source).assemble()
    except (ValueError, KeyError):
        return False
    sim = GoldenSimulator()
    low = generated.data_base
    high = generated.data_base + generated.data_words
    mmio_base = sim.memory.mmio_base

    def in_bounds(address: int) -> bool:
        return low <= address < high or address >= mmio_base

    original_read = sim.memory.read
    original_write = sim.memory.write

    def read(address: int, system_mode: bool) -> int:
        if not in_bounds(address):
            raise _OutOfBounds
        return original_read(address, system_mode)

    def write(address: int, value: int, system_mode: bool) -> None:
        if not in_bounds(address):
            raise _OutOfBounds
        original_write(address, value, system_mode)

    sim.memory.read = read        # type: ignore[method-assign]
    sim.memory.write = write      # type: ignore[method-assign]
    sim.load_program(program)
    try:
        sim.run(generated.max_instructions)
    except (_OutOfBounds, Exception):
        return False
    return sim.halted


def count_instructions(source: str, mode: str = "isa") -> int:
    """Number of instruction statements in a (shrunk) program."""
    if mode == "lang":
        return sum(1 for line in source.splitlines()
                   if line.strip() and not line.strip().startswith(
                       ("program", "var", "begin", "end")))
    count = 0
    for line in source.splitlines():
        stripped = line.split(";")[0].split("#")[0].strip()
        if not stripped or _LABEL_LINE.match(stripped + ":") and False:
            continue
        if _LABEL_LINE.match(line) or _DIRECTIVE_LINE.match(stripped):
            continue
        if stripped.endswith(":"):
            continue
        count += 1
    return count


# ------------------------------------------------------------------ ddmin
def _ddmin(units: List[int],
           fails: Callable[[Sequence[int]], bool],
           budget: List[int]) -> List[int]:
    """Classic ddmin over unit indices; ``fails(kept)`` drives the search."""
    n = 2
    while len(units) >= 2 and budget[0] > 0:
        chunk_size = max(1, len(units) // n)
        chunks = [units[i:i + chunk_size]
                  for i in range(0, len(units), chunk_size)]
        reduced = False
        for chunk in chunks:                       # reduce to subset
            budget[0] -= 1
            if budget[0] <= 0:
                return units
            if fails(chunk):
                units, n, reduced = list(chunk), 2, True
                break
        if not reduced:
            for chunk in chunks:                   # reduce to complement
                kept = [u for u in units if u not in set(chunk)]
                if not kept:
                    continue
                budget[0] -= 1
                if budget[0] <= 0:
                    return units
                if fails(kept):
                    units, n, reduced = kept, max(n - 1, 2), True
                    break
        if not reduced:
            if n >= len(units):
                break
            n = min(len(units), 2 * n)
    # final sweep: drop units one at a time
    index = 0
    while index < len(units) and budget[0] > 0:
        kept = units[:index] + units[index + 1:]
        if kept:
            budget[0] -= 1
            if fails(kept):
                units = kept
                continue
        index += 1
    return units


# ----------------------------------------------------------- asm shrinking
def _asm_units(source: str) -> Tuple[List[str], List[int]]:
    """Split asm text into lines + indices of removable instruction lines."""
    lines = source.splitlines()
    removable = []
    for index, line in enumerate(lines):
        stripped = line.split(";")[0].split("#")[0].strip()
        if (not stripped or stripped.endswith(":")
                or _DIRECTIVE_LINE.match(stripped)
                or _PINNED.match(stripped)):
            continue
        removable.append(index)
    return lines, removable


def _rebuild_asm(lines: List[str], removable: List[int],
                 kept: Sequence[int]) -> str:
    kept_set = set(kept)
    dropped = set(removable) - kept_set
    return "\n".join(line for index, line in enumerate(lines)
                     if index not in dropped) + "\n"


# ----------------------------------------------------------- spl shrinking
def _spl_units(source: str) -> Tuple[List[str], List[List[int]]]:
    """Group SPL body lines into removable statement units.

    A unit is either one simple ``...;`` line or a compound statement
    (its header through its matching ``end;``).  Header/declaration
    lines and the trailing ``write`` dump stay fixed.
    """
    lines = source.splitlines()
    units: List[List[int]] = []
    try:
        body_start = next(i for i, line in enumerate(lines)
                          if line.strip() == "begin") + 1
        body_end = next(i for i in range(len(lines) - 1, -1, -1)
                        if lines[i].strip() == "end.")
    except StopIteration:
        return lines, []
    index = body_start
    while index < body_end:
        stripped = lines[index].strip()
        if stripped.startswith("write("):
            break                                  # fixed output dump
        if stripped.endswith("begin"):
            depth, end = 1, index
            while depth and end + 1 < body_end:
                end += 1
                text = lines[end].strip()
                if text.endswith("begin"):
                    depth += 1
                elif text.startswith("end"):
                    depth -= 1
            units.append(list(range(index, end + 1)))
            index = end + 1
        else:
            units.append([index])
            index += 1
    return lines, units


def _rebuild_spl(lines: List[str], units: List[List[int]],
                 kept: Sequence[int]) -> str:
    dropped = set()
    for unit_index, unit in enumerate(units):
        if unit_index not in set(kept):
            dropped.update(unit)
    return "\n".join(line for index, line in enumerate(lines)
                     if index not in dropped) + "\n"


# ------------------------------------------------------------------ driver
def shrink(generated: GeneratedProgram,
           report: DivergenceReport,
           config=None,
           golden_mutator=None,
           max_evals: int = DEFAULT_MAX_EVALS) -> GeneratedProgram:
    """Minimize ``generated`` while it keeps failing like ``report``.

    Returns a new :class:`GeneratedProgram` whose source is the smallest
    found failing version (the original is returned unchanged if nothing
    smaller still fails, e.g. for trace-replay divergences that depend
    on the whole access stream).
    """
    target = (report.pair, report.kind)
    budget = [max_evals]

    def still_fails(candidate: GeneratedProgram) -> bool:
        if candidate.mode == "isa" and not _monitored_golden_ok(candidate):
            return False
        try:
            found = check_program(candidate, config=config,
                                  golden_mutator=golden_mutator)
        except FuzzProgramError:
            return False
        except Exception:
            return False
        return found is not None and (found.pair, found.kind) == target

    import dataclasses as _dc

    if generated.mode == "lang":
        lines, units = _spl_units(generated.source)
        if not units:
            return generated

        def fails(kept: Sequence[int]) -> bool:
            source = _rebuild_spl(lines, units, kept)
            return still_fails(_dc.replace(generated, source=source))

        kept = _ddmin(list(range(len(units))), fails, budget)
        return _dc.replace(generated,
                           source=_rebuild_spl(lines, units, kept))

    lines, removable = _asm_units(generated.source)
    if not removable:
        return generated

    def fails(kept: Sequence[int]) -> bool:
        source = _rebuild_asm(lines, removable, kept)
        return still_fails(_dc.replace(generated, source=source))

    kept = _ddmin(list(removable), fails, budget)
    return _dc.replace(generated,
                       source=_rebuild_asm(lines, removable, kept))

"""The external cache (Ecache) timing model.

MIPS-X backs its on-chip instruction cache with "a large 64K word external
cache" that serves both data references and instruction fetch-backs, and
talks to main memory over a shared bus.  A hit completes within the MEM
pipestage; a miss uses the *late miss* protocol -- the cache tells the
processor at the start of WB that the access failed, and the processor
"effectively goes back and re-executes phase 2 of MEM" until the data
arrives.  In the simulator that is a stall of ``miss_penalty`` cycles.

This model is timing-only: real data lives in :class:`repro.ecache.memory.Memory`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

from repro.core.config import EcacheConfig


@dataclasses.dataclass
class EcacheStats:
    reads: int = 0
    read_misses: int = 0
    writes: int = 0
    write_misses: int = 0
    ifetches: int = 0
    ifetch_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes + self.ifetches

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses + self.ifetch_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_metrics(self) -> "dict[str, int]":
        """Counter values under canonical telemetry catalog names.

        ``ecache.late_miss.retries`` counts late-miss protocol
        invocations: every read or ifetch miss re-executes phase 2 of
        MEM until the data arrives, so it equals their sum by
        construction (the bench campaign's gate audits this identity).
        """
        return {
            "ecache.reads": self.reads,
            "ecache.read_misses": self.read_misses,
            "ecache.writes": self.writes,
            "ecache.write_misses": self.write_misses,
            "ecache.ifetches": self.ifetches,
            "ecache.ifetch_misses": self.ifetch_misses,
            "ecache.late_miss.retries": (self.read_misses
                                         + self.ifetch_misses),
        }


def _placement(line_words: int, lines: int, address: str,
               system_mode: str) -> Tuple[str, str]:
    """The direct mapping, as source: expressions for the set index and
    the tag of word ``address`` in ``system_mode`` (a bool or 0/1).

    The tag is the line number above the index, with the mode bit below
    it, so the two address spaces never share a line.  This is the one
    definition of the mapping: :meth:`Ecache.locate`, the interpreter's
    probe and :meth:`Ecache.probe_code` are all generated from it.
    """
    if not address.isidentifier() and not address.isdigit():
        address = f"({address})"
    return (f"{address} // {line_words} % {lines}",
            f"{address} // {line_words * lines} * 2 + {system_mode}")


#: (line_words, lines) -> (locate, probe), compiled once per geometry
_COMPILED: Dict[Tuple[int, int], Tuple[Callable, Callable]] = {}


def _compiled(line_words: int, lines: int) -> Tuple[Callable, Callable]:
    """``locate(address, system_mode) -> (index, tag)`` and
    ``probe(tags, address, system_mode, allocate) -> hit`` for one
    geometry, generated from :func:`_placement`."""
    key = (line_words, lines)
    if key not in _COMPILED:
        index, tag = _placement(line_words, lines, "address", "system_mode")
        source = (
            "def locate(address, system_mode):\n"
            f"    return {index}, {tag}\n"
            "def probe(tags, address, system_mode, allocate):\n"
            f"    index = {index}\n"
            f"    tag = {tag}\n"
            "    if tags[index] == tag:\n"
            "        return True\n"
            "    if allocate:\n"
            "        tags[index] = tag\n"
            "    return False\n")
        namespace: dict = {"__builtins__": {}}
        exec(compile(source, f"<ecache {line_words}x{lines}>", "exec"),  # noqa: S102
             namespace)
        _COMPILED[key] = namespace["locate"], namespace["probe"]
    return _COMPILED[key]


class Ecache:
    """Direct-mapped external cache with per-mode tagging.

    System and user mode execute in separate address spaces, so the mode
    bit participates in the tag.  Writes are write-through with allocate
    (the board-level design is not specified in the paper; write policy is
    configurable because E15's write-policy study, the bench report's
    ``ecache-policy/*`` rows, compares both).
    """

    INVALID = -1

    def __init__(self, config: EcacheConfig):
        if config.size_words % config.line_words:
            raise ValueError("ecache size must be a multiple of the line size")
        self.config = config
        self.lines = config.size_words // config.line_words
        self._tags: List[int] = [self.INVALID] * self.lines
        self.stats = EcacheStats()
        #: ``locate(address, system_mode) -> (index, tag)``: where a word
        #: lives in this cache; ``_probe(tags, address, system_mode,
        #: allocate)`` compares (and allocates) its line and returns hit
        self.locate, self._probe = _compiled(config.line_words, self.lines)
        #: fault injection (repro.faults): while > 0, each read/ifetch
        #: probe is forced to miss and pays the full late-miss penalty --
        #: a board-level retry storm.  Zero when disarmed: the happy path
        #: pays one integer truth test per access.
        self.fault_forced_misses = 0
        self.fault_forced_events = 0

    def begin_forced_misses(self, count: int) -> None:
        """Arm a late-miss retry storm: the next ``count`` read/ifetch
        probes miss regardless of tag state."""
        self.fault_forced_misses = max(0, count)

    def as_metrics(self) -> "dict[str, int]":
        """Stats counters plus the fault-injection event counter."""
        metrics = self.stats.as_metrics()
        metrics["ecache.fault.forced_misses"] = self.fault_forced_events
        return metrics

    def _consume_forced_miss(self) -> bool:
        if self.fault_forced_misses <= 0:
            return False
        self.fault_forced_misses -= 1
        self.fault_forced_events += 1
        return True

    # -------------------------------------------------------------- access
    def read(self, address: int, system_mode: bool) -> int:
        """Data read; returns the stall penalty in cycles (0 on a hit)."""
        if not self.config.enabled:
            return 0
        self.stats.reads += 1
        hit = self._probe(self._tags, address, system_mode, True)
        if self.fault_forced_misses and self._consume_forced_miss():
            hit = False
        if hit:
            return 0
        self.stats.read_misses += 1
        return self.config.miss_penalty

    def write(self, address: int, system_mode: bool) -> int:
        """Data write; write-through never stalls (buffered), but a
        write-back design allocates and pays the penalty on a miss."""
        if not self.config.enabled:
            return 0
        self.stats.writes += 1
        hit = self._probe(self._tags, address, system_mode,
                          not self.config.write_through)
        if not hit:
            self.stats.write_misses += 1
            if not self.config.write_through:
                return self.config.miss_penalty
        return 0

    def ifetch(self, address: int, system_mode: bool) -> int:
        """Instruction fetch-back from the Icache miss FSM; returns the
        extra main-memory stall (0 when the word is in the Ecache)."""
        if not self.config.enabled:
            return 0
        self.stats.ifetches += 1
        hit = self._probe(self._tags, address, system_mode, True)
        if self.fault_forced_misses and self._consume_forced_miss():
            hit = False
        if hit:
            return 0
        self.stats.ifetch_misses += 1
        return self.config.miss_penalty

    # ---------------------------------------------------- translated code
    #: Statements that bind the locals :meth:`probe_code` reads, for code
    #: that holds this cache as ``EC``.  Run them once per call of that
    #: code: :meth:`flush` and a checkpoint restore replace the tag list.
    PROBE_SETUP = ("ET = EC._tags", "ECS = EC.stats")

    @property
    def miss_stall(self) -> int:
        """The most cycles one data access can stall: the miss penalty,
        0 when the cache is disabled."""
        return self.config.miss_penalty if self.config.enabled else 0

    def probe_code(self, store: bool, address: str,
                   system_mode: bool) -> List[str]:
        """Source statements that do what ``pen += self.write(...)``
        (``store``) or ``pen += self.read(...)`` does for the word at
        ``address``, without a call: count the access, compare the
        line's tag, allocate under this cache's policy, and count a
        miss and add its stall to the local ``pen``.

        ``address`` is a source expression or a literal word address,
        whose line is placed here.  The statements read the locals
        :data:`PROBE_SETUP` binds.  They do not model a forced-miss
        storm: code that runs them must not run while
        :attr:`fault_forced_misses` is armed.  Empty when the cache is
        disabled, as ``read`` and ``write`` then do nothing.
        """
        if not self.config.enabled:
            return []
        code: List[str] = []
        if address.isdigit():
            index, tag = map(str, self.locate(int(address), system_mode))
        else:
            index_expr, tag_expr = _placement(
                self.config.line_words, self.lines, address,
                str(int(system_mode)))
            code += [f"_ei = {index_expr}", f"_et = {tag_expr}"]
            index, tag = "_ei", "_et"
        kind = "write" if store else "read"
        code += [f"ECS.{kind}s += 1", f"if ET[{index}] != {tag}:"]
        if not store or not self.config.write_through:
            code.append(f"    ET[{index}] = {tag}")
            code.append(f"    pen += {self.config.miss_penalty}")
        code.append(f"    ECS.{kind}_misses += 1")
        return code

    def invalidate(self, address: int, system_mode: bool) -> None:
        """Drop the line holding ``address``, if it is resident (a
        snooped store from another node)."""
        index, tag = self.locate(address, system_mode)
        if self._tags[index] == tag:
            self._tags[index] = self.INVALID

    # ------------------------------------------------------ fault injection
    def inject_tag_corruption(self, rng, count: int = 1) -> int:
        """Corrupt up to ``count`` randomly-chosen live line tags.

        Models single-event upsets in the board-level tag RAM.  A
        corrupted tag is set to :data:`INVALID` rather than a random
        value: this cache is timing-only (data lives in shared memory),
        and a wrong-but-matching tag would be a *functional* fault the
        model cannot express, whereas an invalidated line simply forces
        the next access to pay the late-miss penalty.  Returns the
        number of tags actually corrupted (0 when the cache is cold).
        """
        live = [index for index, tag in enumerate(self._tags)
                if tag != self.INVALID]
        if not live:
            return 0
        corrupted = 0
        for _ in range(count):
            index = live[rng.randrange(len(live))]
            if self._tags[index] != self.INVALID:
                self._tags[index] = self.INVALID
                corrupted += 1
        return corrupted

    def flush(self) -> None:
        self._tags = [self.INVALID] * self.lines

"""The workload registry: Pascal suite, Lisp-like suite, FP kernels.

These are the programs every experiment runs.  ``get(name)`` returns a
:class:`Workload`; ``run_workload`` compiles (with the reorganizer), loads
and runs one on a fresh machine.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional

from repro.asm.assembler import parse as parse_asm
from repro.asm.unit import Program
from repro.coproc.fpu import Fpu
from repro.core.config import MachineConfig
from repro.core.processor import Machine
from repro.lang.compiler import compile_spl
from repro.reorg.delay_slots import MIPSX_SCHEME, BranchScheme
from repro.reorg.reorganizer import ReorgResult, reorganize
from repro.workloads.extra import EXTRA_PROGRAMS, EXTRA_TEXT
from repro.workloads.fp import dot_product_source, saxpy_source
from repro.workloads.kernel import (KERNEL_DEMOS, KernelDemo, KernelRun,
                                    boot_demo_source, build_kernel_program,
                                    run_kernel_demo)
from repro.workloads.lisp import LISP_PROGRAMS
from repro.workloads.parallel import (PARALLEL_PROGRAMS, PARALLEL_WORKLOADS,
                                      UnknownWorkload, expected_console,
                                      parallel_program, parallel_source)
from repro.workloads.stanford import PASCAL_PROGRAMS


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    category: str                 #: "pascal" | "lisp" | "fp"
    source: str
    is_assembly: bool = False
    expected: Optional[tuple] = None  #: known console output, if any
    needs_fpu: bool = False

    def reorganize(self, scheme: BranchScheme = MIPSX_SCHEME,
                   profile: Optional[dict] = None) -> ReorgResult:
        """Naive code -> reorganized unit (fresh every call)."""
        if self.is_assembly:
            return reorganize(parse_asm(self.source), scheme, profile=profile)
        compilation = compile_spl(self.source, scheme, profile=profile)
        return compilation.reorg

    def naive_program(self) -> Program:
        if self.is_assembly:
            return parse_asm(self.source).assemble()
        return compile_spl(self.source, scheme=None).naive_program()

    def program(self, scheme: BranchScheme = MIPSX_SCHEME,
                profile: Optional[dict] = None) -> Program:
        return self.reorganize(scheme, profile).unit.assemble()


def _registry() -> Dict[str, Workload]:
    workloads: Dict[str, Workload] = {}
    for name, (source, expected) in PASCAL_PROGRAMS.items():
        workloads[name] = Workload(
            name=name, category="pascal", source=source,
            expected=tuple(expected) if expected else None)
    for name, (source, expected) in LISP_PROGRAMS.items():
        workloads[name] = Workload(
            name=name, category="lisp", source=source,
            expected=tuple(expected) if expected else None)
    for name, (source, expected) in EXTRA_PROGRAMS.items():
        workloads[name] = Workload(
            name=name, category="extra", source=source,
            expected=tuple(expected) if expected is not None else None)
    workloads["fp_dot"] = Workload(
        name="fp_dot", category="fp", source=dot_product_source(),
        is_assembly=True, needs_fpu=True)
    workloads["fp_saxpy"] = Workload(
        name="fp_saxpy", category="fp", source=saxpy_source(),
        is_assembly=True, needs_fpu=True)
    # single-node builds of the parallel suite: correctness coverage on
    # the uniprocessor; the multiprocessor runs them via
    # repro.workloads.parallel.parallel_program at higher node counts
    for name, (source, expected) in PARALLEL_PROGRAMS.items():
        workloads[name] = Workload(
            name=name, category="parallel", source=source,
            expected=tuple(expected))
    return workloads


WORKLOADS: Dict[str, Workload] = _registry()

PASCAL_SUITE: List[str] = [name for name, w in WORKLOADS.items()
                           if w.category == "pascal"]
LISP_SUITE: List[str] = [name for name, w in WORKLOADS.items()
                         if w.category == "lisp"]
FP_SUITE: List[str] = [name for name, w in WORKLOADS.items()
                       if w.category == "fp"]
#: extra correctness workloads, excluded from the calibrated experiment
#: suites (see EXPERIMENTS.md)
EXTRA_SUITE: List[str] = [name for name, w in WORKLOADS.items()
                          if w.category == "extra"]
#: parallel workloads (single-node builds); the multi-scaling sweep runs
#: them at N nodes, and they stay out of the calibrated uniprocessor
#: experiment suites
PARALLEL_SUITE: List[str] = [name for name, w in WORKLOADS.items()
                             if w.category == "parallel"]


def get(name: str) -> Workload:
    if name not in WORKLOADS:
        raise UnknownWorkload(f"unknown workload {name!r}; "
                              f"available: {sorted(WORKLOADS)}")
    return WORKLOADS[name]


@functools.lru_cache(maxsize=None)
def cached_program(name: str, slots: int = 2, squash: str = "optional",
                   squash_if_go: bool = False) -> Program:
    """Compiled+reorganized image, cached by (workload, scheme) -- the
    compile step is deterministic, so benchmarks can share it."""
    scheme = BranchScheme(slots, squash, squash_if_go=squash_if_go)
    return get(name).program(scheme)


def run_workload(name: str, config: Optional[MachineConfig] = None,
                 scheme: BranchScheme = MIPSX_SCHEME,
                 max_cycles: int = 30_000_000,
                 trace=None) -> Machine:
    """Compile, reorganize, load, and run one workload to completion."""
    workload = get(name)
    machine = Machine(config)
    if workload.needs_fpu:
        machine.attach_coprocessor(Fpu())
    if trace is not None:
        machine.set_trace(trace)
    machine.load_program(cached_program(
        name, scheme.slots, scheme.squash, scheme.squash_if_go))
    machine.run(max_cycles)
    if not machine.halted:
        raise RuntimeError(f"workload {name} did not halt in {max_cycles} cycles")
    return machine


__all__ = [
    "EXTRA_SUITE",
    "EXTRA_TEXT",
    "FP_SUITE",
    "KERNEL_DEMOS",
    "KernelDemo",
    "KernelRun",
    "LISP_SUITE",
    "PARALLEL_SUITE",
    "PARALLEL_WORKLOADS",
    "PASCAL_SUITE",
    "UnknownWorkload",
    "WORKLOADS",
    "Workload",
    "boot_demo_source",
    "build_kernel_program",
    "cached_program",
    "expected_console",
    "get",
    "parallel_program",
    "parallel_source",
    "run_kernel_demo",
    "run_workload",
]

"""Node-level fault campaigns on the shared-memory multiprocessor.

Single-node fault campaigns (:mod:`repro.faults.campaign`) check that one
machine absorbs its own cache faults.  The multiprocessor campaign checks
the *system-level* guarantee: a timing fault injected into **one node's**
caches mid-run must leave every other node's results golden and let the
victim reconverge -- because both the Icache valid array and the Ecache
tags are timing-only models over the single shared functional memory
image, the only legal effect of corrupting them is extra refetch latency
(and the bus contention it radiates to the neighbours).

Each campaign point runs a parallel workload twice on an ``n``-node
:class:`~repro.multi.system.MultiMachine` -- once fault-free, once with a
seeded mid-run injection into a seeded victim node -- and then asserts

* **bounded termination**: the faulted system halts within the golden
  cycle count plus a per-fault budget (late-miss retries and bus
  contention terminate);
* **result integrity**: the shared console output and every shared
  memory word *outside the per-node stack region* equal the golden
  run's.  Stacks are excluded because barrier spin counts (and so the
  locals frames hold at halt) legitimately depend on timing.

Only ``psieve`` and ``pintmm`` participate: ``pring``'s Peterson lock
state (``pturn``) finishes at a timing-dependent value by design, so its
memory image is not comparable across timing perturbations.

``repro campaign faults --multi-nodes N`` runs this grid through the one
faults driver (:func:`repro.faults.campaign.run_campaign`) and writes
``FAULTS_multi.json``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.faults.plan import WARMUP_CYCLES
from repro.harness.runner import Job
from repro.lang.codegen import NODE_STACK_WORDS, STACK_TOP
from repro.multi.system import MultiMachine
from repro.workloads.parallel import QUICK_SIZES, parallel_program

#: node-level fault classes: which timing structure of the victim node
#: gets corrupted mid-run
MULTI_FAULT_CLASSES: Tuple[str, ...] = ("node-icache-valid",
                                        "node-ecache-tag")

#: workloads with timing-independent final memory (see module docstring)
MULTI_FAULT_WORKLOADS: Tuple[str, ...] = ("psieve", "pintmm")

#: default node count for campaign points (a mid-size system: big enough
#: for real neighbour traffic, small enough for CI)
DEFAULT_NODES = 4

#: per-differential-run watchdog for the Runner
JOB_TIMEOUT = 120.0

#: golden multiprocessor runs must halt within this many global cycles
GOLDEN_MAX_CYCLES = 5_000_000


def _stack_region(nodes: int) -> range:
    """Shared-memory word addresses holding the per-node stacks."""
    return range(STACK_TOP - nodes * NODE_STACK_WORDS, STACK_TOP)


def _build_system(workload: str, nodes: int,
                  size: Optional[int]) -> MultiMachine:
    system = MultiMachine(nodes, MachineConfig())
    system.load_program(parallel_program(workload, nodes, size))
    return system


def _inject(system: MultiMachine, victim: int, fault_class: str,
            rng: random.Random, count: int) -> int:
    """Corrupt the victim node's cache; returns structures corrupted."""
    machine = system.node(victim)
    if fault_class == "node-icache-valid":
        return machine.icache.inject_valid_flips(rng, count)
    if fault_class == "node-ecache-tag":
        return machine.ecache.inject_tag_corruption(rng, count)
    raise ValueError(f"unknown node fault class {fault_class!r}; "
                     f"expected one of {MULTI_FAULT_CLASSES}")


def _fault_budget(fault_class: str, count: int, nodes: int,
                  horizon: int) -> int:
    """Worst-case global-cycle inflation for one injection.

    Refetches pay the late-miss penalty *and* radiate bus contention to
    up to ``nodes - 1`` waiting neighbours, hence the node multiplier.
    """
    per_event = 64 if fault_class == "node-icache-valid" else 16
    return per_event * count * nodes + max(1024, horizon // 2)


def node_fault_point(seed: int, fault_class: str,
                     nodes: int = DEFAULT_NODES,
                     quick: bool = False) -> Dict[str, Any]:
    """One campaign point: golden run, seeded victim injection, verdict.

    Deterministic in ``(seed, fault_class, nodes, quick)``.  Returns a
    picklable verdict dict with ``status`` one of ``"absorbed"``
    (fault landed, every invariant held), ``"not-triggered"`` (the
    program halted before the injection cycle, or the victim's cache was
    cold), or ``"violated"`` (with a ``violations`` list).
    """
    class_salt = MULTI_FAULT_CLASSES.index(fault_class)
    rng = random.Random(((seed << 8) ^ (class_salt * 0x9E3779B1))
                        & 0xFFFFFFFF)
    workload = MULTI_FAULT_WORKLOADS[seed % len(MULTI_FAULT_WORKLOADS)]
    size = QUICK_SIZES[workload] if quick else None
    victim = rng.randrange(nodes)
    count = rng.randint(1, 6)

    golden = _build_system(workload, nodes, size)
    golden.run(GOLDEN_MAX_CYCLES)
    if not golden.all_halted:
        raise RuntimeError(
            f"golden {nodes}-node run of {workload!r} did not halt "
            f"within {GOLDEN_MAX_CYCLES} cycles -- workload bug")
    horizon = golden.cycles
    fault_cycle = rng.randint(WARMUP_CYCLES,
                              max(WARMUP_CYCLES + 1, horizon * 2 // 3))

    faulted = _build_system(workload, nodes, size)
    faulted.run(fault_cycle)
    effective = 0
    if not faulted.all_halted:
        effective = _inject(faulted, victim, fault_class, rng, count)
    budget = _fault_budget(fault_class, count, nodes, horizon)
    faulted.run(horizon + budget)

    violations: List[Dict[str, str]] = []
    if not faulted.all_halted:
        violations.append({
            "kind": "no-termination",
            "detail": f"system still live after golden {horizon} + "
                      f"budget {budget} global cycles"})
    else:
        if (golden.console.values != faulted.console.values
                or golden.console.text != faulted.console.text):
            violations.append({
                "kind": "result-divergence",
                "detail": f"console: golden {golden.console.values!r}, "
                          f"faulted {faulted.console.values!r}"})
        stacks = _stack_region(nodes)
        golden_words = golden.memory.system._words
        faulted_words = faulted.memory.system._words
        for address in sorted(set(golden_words) | set(faulted_words)):
            if address in stacks:
                continue
            want = golden_words.get(address, 0)
            got = faulted_words.get(address, 0)
            if want != got:
                violations.append({
                    "kind": "result-divergence",
                    "detail": f"mem[{address:#x}]: golden {want:#x}, "
                              f"faulted {got:#x}"})

    if violations:
        status = "violated"
    elif effective:
        status = "absorbed"
    else:
        status = "not-triggered"
    return {
        "seed": seed,
        "fault_class": fault_class,
        "workload": workload,
        "nodes": nodes,
        "victim": victim,
        "fault_cycle": fault_cycle,
        "status": status,
        "violations": violations,
        "golden_cycles": horizon,
        "faulted_cycles": faulted.cycles,
        "cycle_budget": budget,
        "events_effective": effective,
        "inflation": faulted.cycles - horizon,
    }


def multi_campaign_jobs(seeds: int, nodes: int = DEFAULT_NODES,
                        quick: bool = False,
                        timeout: Optional[float] = JOB_TIMEOUT) -> List[Job]:
    """The seeded grid: fault classes rotate across seeds (and workloads
    rotate inside :func:`node_fault_point`), so every (class, workload)
    pair is hit roughly ``seeds / 4`` times."""
    jobs = []
    for seed in range(seeds):
        fault_class = MULTI_FAULT_CLASSES[seed % len(MULTI_FAULT_CLASSES)]
        jobs.append(Job(
            id=f"faults-multi/{seed:03d}-{fault_class}",
            fn="repro.faults.multi:node_fault_point",
            params={"seed": seed, "fault_class": fault_class,
                    "nodes": nodes, "quick": quick},
            timeout=timeout,
            sweep="faults-multi"))
    return jobs

"""The five benchmark workloads.

Constructing a workload is its set-up (the part ``setup_s`` times): it
imports the layers it drives and builds every input that a user would
build once -- compiled programs, kernel images, a cold-filled trace
store.  :meth:`Workload.ops` then yields an endless, deterministic
stream of :class:`Op` in a fixed cyclic order.  The first ``pass_ops``
ops form one *pass*; every op kind appears in a pass.

Every op checks its own outputs against the paper inputs' known results
(``Workload.expected`` consoles, ``KernelDemo.expected`` UART logs) and
against the values pinned in ``pinned.json`` (cycle counts, result
digests); a mismatch is a failed output, never an exception.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import random
from typing import Callable, Dict, Iterator, List

PINNED_PATH = pathlib.Path(__file__).with_name("pinned.json")

#: cycle budget for one program or demo (the longest, kernel-slice,
#: runs 1.4M cycles)
MAX_CYCLES = 30_000_000

#: the standing fuzz campaign's seed range; FUZZ_campaign.json records
#: all 600 of its programs clean, so no fuzz op is expected to fail
FUZZ_POOL_SEEDS = 200


@functools.lru_cache(maxsize=1)
def pinned() -> dict:
    """The expected results recorded when the benchmark was defined."""
    return json.loads(PINNED_PATH.read_text())


def digest(value) -> str:
    """Short sha256 of a JSON-able result (floats compare by repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def runner_workers() -> int:
    """Runner worker count: at most two, never more than the host has."""
    return min(2, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class Op:
    """One unit of measured work."""

    kind: str        #: ops of one kind do the same work
    items: int       #: work items the op completes (the throughput unit)
    checks: int      #: outputs the op checks (counted as attempted)
    run: Callable[[], List[str]]   #: runs it; returns one message per bad output


class Workload:
    """Base class: the op stream plus the counters a traced run reports."""

    name = ""
    #: op kinds whose time is spent in the Runner (for its efficiency)
    runner_kinds: tuple = ()
    pass_ops = 1

    def __init__(self, seed: int, work_dir: pathlib.Path,
                 serial: bool = False, tiny: bool = False):
        self.seed = seed
        self.work_dir = pathlib.Path(work_dir)
        self.parallel = not serial
        self.tiny = tiny
        self.counters: Dict[str, int] = {}
        #: wall and reference seconds of the parallel Runner jobs so far
        self.job_seconds = [0.0, 0.0]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def counters_now(self) -> Dict[str, int]:
        """Workload-level counters so far (a traced run reports deltas)."""
        return dict(self.counters)

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def _run_jobs(self, runner, jobs):
        """Run ``jobs`` on ``runner``: (results, one message per failed job).

        Each result's value is the job's own.  Parallel jobs run under
        :func:`perfbench.meter.metered_job` and add their seconds to
        :attr:`job_seconds`.
        """
        if self.parallel:
            jobs = [dataclasses.replace(
                job, fn="perfbench.meter:metered_job",
                params={"fn": job.fn, "params": job.params}) for job in jobs]
        results = runner.run(jobs, parallel=self.parallel)
        failures = []
        for result in results:
            self.count("harness.runner.retries", result.attempts - 1)
            if not result.ok:
                self.count("harness.runner.failed")
                failures.append(f"{result.job_id}: {result.status} "
                                f"({result.error_kind})")
            elif self.parallel:
                self.job_seconds[0] += result.value["wall_s"]
                self.job_seconds[1] += result.value["reference_s"]
                result.value = result.value["value"]
        return results, failures


# ---------------------------------------------------------------- suites
class Suite(Workload):
    """All twelve Pascal and Lisp programs, each run to halt."""

    jit = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.core import MachineConfig
        from repro.workloads import LISP_SUITE, PASCAL_SUITE, get

        names = list(PASCAL_SUITE) + list(LISP_SUITE)
        if self.tiny:
            names = ["fib", "listops"]
        # source -> compile -> reorganize -> assemble, once per program
        self.programs = [(get(name), get(name).program()) for name in names]
        self.config = dataclasses.replace(MachineConfig(), jit=self.jit)
        self.pass_ops = len(self.programs)

    def ops(self) -> Iterator[Op]:
        want = pinned()["suite"]
        while True:
            for workload, program in self.programs:
                yield Op(workload.name, want[workload.name]["cycles"], 1,
                         functools.partial(self._run, workload, program))

    def _run(self, workload, program) -> List[str]:
        from repro.core import Machine

        machine = Machine(self.config)
        machine.load_program(program)
        machine.run(MAX_CYCLES)
        machine.metrics()
        want = pinned()["suite"][workload.name]
        console = list(machine.console.values)
        if not machine.halted:
            return [f"{workload.name}: did not halt"]
        if machine.stats.cycles != want["cycles"]:
            return [f"{workload.name}: {machine.stats.cycles} cycles, "
                    f"pinned {want['cycles']}"]
        if workload.expected is not None:
            if tuple(console) != tuple(workload.expected):
                return [f"{workload.name}: console {console} != expected"]
        elif digest(console) != want["console"]:
            return [f"{workload.name}: console digest {digest(console)} "
                    f"!= pinned {want['console']}"]
        return []


class SuiteInterp(Suite):
    name = "suite-interp"


class SuiteJit(Suite):
    name = "suite-jit"
    jit = True


# ------------------------------------------------------------ fuzz campaign
class FuzzCampaign(Workload):
    """Seeded generate -> cross-check jobs fanned over the Runner.

    The job stream walks the standing campaign's (seed, mode) grid from
    an offset chosen by ``--seed``, all modes of one program seed
    adjacent, in batches of ``4 x workers`` jobs -- the batching
    :func:`repro.fuzz.campaign.run_campaign` uses.
    """

    name = "fuzz-campaign"
    runner_kinds = ("batch",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.fuzz.campaign import JOB_TIMEOUT, MODES
        from repro.harness.runner import Runner

        self.modes = MODES
        self.workers = runner_workers()
        self.runner = Runner(max_workers=self.workers,
                             default_timeout=JOB_TIMEOUT)
        self.batch = len(MODES) if self.tiny else max(4, self.workers * 4)
        self.pass_ops = 1 if self.tiny else 12
        self.start = (self.seed * 37) % FUZZ_POOL_SEEDS

    def ops(self) -> Iterator[Op]:
        from repro.harness.runner import Job

        index = 0
        while True:
            jobs = []
            for _ in range(self.batch):
                seed = (self.start + index // len(self.modes)) % FUZZ_POOL_SEEDS
                mode = self.modes[index % len(self.modes)]
                jobs.append(Job(id=f"fuzz/{mode}-{seed:04d}",
                                fn="repro.fuzz.campaign:fuzz_point",
                                params={"seed": seed, "mode": mode,
                                        "quick": True},
                                sweep="fuzz"))
                index += 1
            yield Op("batch", len(jobs), len(jobs),
                     functools.partial(self._run, jobs))

    def _run(self, jobs) -> List[str]:
        results, failures = self._run_jobs(self.runner, jobs)
        for result in results:
            if result.ok and result.value.get("status") != "ok":
                self.count("fuzz.divergences")
                failures.append(f"{result.job_id}: {result.value['status']}")
        return failures


# ------------------------------------------------------------- design sweep
#: (sweep, traced evaluator in repro.harness.experiments, quick)
REPLAYS = (
    ("branch-schemes", "traced_branch_sweep", True),
    ("icache-organizations", "traced_icache_sweep", False),
    ("ecache-sweep", "traced_ecache_sweep", False),
)
TINY_REPLAYS = (
    ("icache-organizations", "traced_icache_sweep", True),
    ("ecache-sweep", "traced_ecache_sweep", True),
)
TINY_LIVE_JOBS = ("icache/fetchback-1", "ecache/16384w")


class DesignSweep(Workload):
    """The quick live experiment grid on the Runner plus trace replays.

    Set-up fills a fresh :class:`~repro.traces.store.TraceStore` cold by
    evaluating every replayed sweep once, so each timed replay is a
    store hit.  The branch-scheme replay uses the quick workload pair
    (its full capture runs every Pascal program under six schemes);
    the Icache and Ecache replays use the full-length traces.
    """

    name = "design-sweep"
    runner_kinds = ("live",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.harness import experiments
        from repro.harness.runner import Runner
        from repro.traces.store import TraceStore

        self.experiments = experiments
        self.jobs = experiments.default_jobs(quick=True)
        self.replays = REPLAYS
        if self.tiny:
            self.jobs = [job for job in self.jobs if job.id in TINY_LIVE_JOBS]
            self.replays = TINY_REPLAYS
        self.runner = Runner(max_workers=runner_workers())
        self.store = TraceStore(self.work_dir / "traces")
        self.replay_rows = {}
        for sweep, evaluator, quick in self.replays:
            outcome = getattr(experiments, evaluator)(
                quick=quick, reuse=True, store=self.store)
            self.replay_rows[sweep] = len(outcome["rows"])
        self.pass_ops = 1 + len(self.replays)

    def counters_now(self) -> Dict[str, int]:
        return dict(self.counters,
                    **{"traces.store.hits": self.store.hits,
                       "traces.store.misses": self.store.misses,
                       "traces.store.integrity_failures":
                           self.store.integrity_failures})

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("live", len(self.jobs), len(self.jobs), self._live)
            for sweep, evaluator, quick in self.replays:
                rows = self.replay_rows[sweep]
                yield Op(f"replay/{sweep}", rows, rows, functools.partial(
                    self._replay, sweep, evaluator, quick))

    def _live(self) -> List[str]:
        want = pinned()["sweep"]["live"]
        results, failures = self._run_jobs(self.runner, self.jobs)
        for result in results:
            if result.ok and digest(result.value) != want[result.job_id]:
                failures.append(f"{result.job_id}: result digest "
                                f"{digest(result.value)} != pinned")
        return failures

    def _replay(self, sweep, evaluator, quick) -> List[str]:
        want = pinned()["sweep"]["replay"]
        outcome = getattr(self.experiments, evaluator)(
            quick=quick, reuse=True, store=self.store)
        failures = []
        if not outcome["cache_hits"] or outcome["cache_misses"]:
            failures.append(f"{sweep}: replay missed the trace store")
        for row in outcome["rows"]:
            key = f"{'quick' if quick else 'full'}:{row['id']}"
            if digest(row) != want[key]:
                failures.append(f"{sweep} {row['id']}: row digest "
                                f"{digest(row)} != pinned")
        return failures


# ----------------------------------------------------------------- os boot
class OsBoot(Workload):
    """Kernel-lite boots, straight and through checkpoint/restore.

    The restore op boots to a cycle in the second half of the demo
    chosen by ``--seed``, snapshots, writes the snapshot to a
    :class:`~repro.checkpoint.store.SnapshotStore`, loads it back,
    restores it into a fresh machine and runs to halt.  Both ops must
    halt at the pinned cycle with the demo's UART log and the pinned
    sha256 of the machine's snapshot state at halt.
    """

    name = "os-boot"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.checkpoint.store import SnapshotStore
        from repro.core import perfect_memory_config
        from repro.workloads.kernel import KERNEL_DEMOS, build_kernel_program

        names = ["kernel-echo"] if self.tiny else list(KERNEL_DEMOS)
        self.config = perfect_memory_config()
        self.demos = [KERNEL_DEMOS[name] for name in names]
        self.images = {demo.name: build_kernel_program(demo, self.config)
                       for demo in self.demos}
        self.store = SnapshotStore(self.work_dir / "snapshots")
        rng = random.Random(self.seed)
        self.cuts = {}
        for demo in self.demos:
            total = pinned()["kernel"][demo.name]["cycles"]
            self.cuts[demo.name] = rng.randint(total // 2, total - 1)
        self.pass_ops = 2 * len(self.demos)

    def ops(self) -> Iterator[Op]:
        while True:
            for demo in self.demos:
                cycles = pinned()["kernel"][demo.name]["cycles"]
                yield Op(f"{demo.name}/straight", cycles, 1,
                         functools.partial(self._straight, demo))
                yield Op(f"{demo.name}/restore", cycles, 1,
                         functools.partial(self._restore, demo))

    def _boot(self, demo):
        from repro.core import Machine

        machine = Machine(self.config)
        machine.load_program(self.images[demo.name])
        for sector, words in demo.sectors:
            machine.memory.disk.load(sector, list(words))
        for text, start, interval in demo.feeds:
            machine.memory.uart.feed(text, start=start, interval=interval)
        return machine

    def _straight(self, demo) -> List[str]:
        machine = self._boot(demo)
        machine.run(MAX_CYCLES)
        return self._check(demo, machine, "straight")

    def _restore(self, demo) -> List[str]:
        from repro.core import Machine

        first = self._boot(demo)
        first.pipeline.run(self.cuts[demo.name])
        before = first.stats.cycles
        state = first.snapshot()
        self.count("checkpoint.drain_cycles", first.stats.cycles - before)
        path = self.store.save(demo.name, state)
        self.count("checkpoint.bytes_written", path.stat().st_size)
        loaded, _ = self.store.load_latest(demo.name)
        self.store.delete_run(demo.name)
        if loaded is None:
            return [f"{demo.name}: saved snapshot did not load back"]
        machine = Machine(self.config)
        machine.restore(loaded)
        machine.run(MAX_CYCLES)
        return self._check(demo, machine, "restore")

    def _check(self, demo, machine, how: str) -> List[str]:
        machine.metrics()
        want = pinned()["kernel"][demo.name]
        label = f"{demo.name}/{how}"
        if not machine.halted:
            return [f"{label}: did not halt"]
        if machine.stats.cycles != want["cycles"]:
            return [f"{label}: halted at cycle {machine.stats.cycles}, "
                    f"pinned {want['cycles']}"]
        if machine.memory.uart.tx_text != demo.expected:
            return [f"{label}: UART log {machine.memory.uart.tx_text!r} "
                    "!= expected"]
        state = json.dumps(machine.snapshot(), sort_keys=True)
        if hashlib.sha256(state.encode()).hexdigest() != want["state_sha256"]:
            return [f"{label}: halt-state sha256 differs from pinned"]
        return []


WORKLOADS = {cls.name: cls for cls in
             (SuiteInterp, SuiteJit, FuzzCampaign, DesignSweep, OsBoot)}

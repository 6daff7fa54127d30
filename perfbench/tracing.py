"""Spans around the calls into each ``repro`` layer, from outside.

:class:`Tracer` rebinds each function in :data:`SPANS` wherever a caller
looks it up -- the defining module or class and every ``repro`` module
that imported the name -- to a wrapper that records a span, and puts
the originals back when it is uninstalled.  Nothing under ``src/``
changes.  Spans are kept in memory and written once, at the end.

A span's *self time* is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.  Time no layer
span covers is the benchmark's own (``other``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, span name, "module:qualname") -- the layer boundaries traced
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("lang", "lang.compile", "repro.lang.compiler:compile_spl"),
    ("reorg", "reorg.reorganize", "repro.reorg.reorganizer:reorganize"),
    ("asm", "asm.parse", "repro.asm.assembler:Assembler.parse"),
    ("asm", "asm.assemble", "repro.asm.unit:AsmUnit.assemble"),
    ("workloads", "workloads.build_kernel",
     "repro.workloads.kernel:build_kernel_program"),
    ("core", "core.machine_init", "repro.core.processor:Machine.__init__"),
    ("core", "core.load", "repro.core.processor:Machine.load_program"),
    ("core", "core.run", "repro.core.pipeline:Pipeline.run"),
    ("core.golden", "core.golden.run", "repro.core.golden:GoldenSimulator.run"),
    ("core.translate", "core.translate.compile",
     "repro.core.translate:Translator._compile"),
    ("icache", "icache.organization_point",
     "repro.harness.experiments:icache_organization_point"),
    ("icache", "icache.explorer.evaluate", "repro.icache.explorer:evaluate"),
    ("icache", "icache.trace_sim.replay", "repro.icache.trace_sim:replay"),
    ("ecache", "ecache.size_point",
     "repro.harness.experiments:ecache_size_point"),
    ("ecache", "ecache.trace_sim.replay", "repro.ecache.trace_sim:replay"),
    ("ecache", "ecache.trace_sim.replay", "repro.ecache.trace_sim:replay_data"),
    ("traces", "traces.capture", "repro.traces.store:capture_synthetic_fetch"),
    ("traces", "traces.capture", "repro.traces.store:capture_synthetic_data"),
    ("traces", "traces.capture",
     "repro.analysis.trace_replay:capture_branch_counts"),
    ("traces", "traces.capture",
     "repro.analysis.trace_replay:capture_branch_plans"),
    ("traces", "traces.store.get", "repro.traces.store:TraceStore.get"),
    ("traces", "traces.store.put", "repro.traces.store:TraceStore.put"),
    ("analysis", "analysis.trace_replay",
     "repro.analysis.trace_replay:replay_scheme"),
    ("analysis", "analysis.point",
     "repro.harness.experiments:branch_scheme_point"),
    ("analysis", "analysis.point",
     "repro.harness.experiments:coproc_scheme_point"),
    ("analysis", "analysis.point",
     "repro.harness.experiments:workload_cpi_point"),
    ("checkpoint", "checkpoint.drain", "repro.checkpoint.state:drain_machine"),
    ("checkpoint", "checkpoint.snapshot",
     "repro.checkpoint.state:machine_state"),
    ("checkpoint", "checkpoint.restore",
     "repro.checkpoint.state:restore_machine"),
    ("checkpoint", "checkpoint.save", "repro.checkpoint.store:SnapshotStore.save"),
    ("checkpoint", "checkpoint.load",
     "repro.checkpoint.store:SnapshotStore.load_latest"),
    ("fuzz", "fuzz.point", "repro.fuzz.campaign:fuzz_point"),
    ("fuzz", "fuzz.generate", "repro.fuzz.gen:generate_program"),
    ("fuzz", "fuzz.oracle.check_all", "repro.fuzz.oracle:check_all"),
    ("fuzz", "fuzz.oracle.replay", "repro.fuzz.oracle:check_trace_replay"),
    ("fuzz", "fuzz.oracle.jit", "repro.fuzz.oracle:check_jit_equivalence"),
    ("fuzz", "fuzz.oracle.checkpoint",
     "repro.fuzz.oracle:check_checkpoint_equivalence"),
    ("telemetry", "telemetry.harvest", "repro.telemetry.metrics:collect_machine"),
    ("harness", "harness.runner", "repro.harness.runner:Runner.run"),
    ("harness", "harness.traced_sweep",
     "repro.harness.experiments:traced_branch_sweep"),
    ("harness", "harness.traced_sweep",
     "repro.harness.experiments:traced_icache_sweep"),
    ("harness", "harness.traced_sweep",
     "repro.harness.experiments:traced_ecache_sweep"),
)

#: the benchmark's own time: phase spans and anything no layer covers
OTHER = "other"

LAYER_OF: Dict[str, str] = {span: layer for layer, span, _ in SPANS}


def pipeline_counts(pipeline) -> Dict[str, int]:
    """The counters ``Machine.metrics()`` harvests, read off a pipeline."""
    counts = dict(pipeline.stats.as_metrics())
    counts.update(pipeline.icache.stats.as_metrics())
    counts.update(pipeline.ecache.as_metrics())
    if pipeline._translator is not None:
        counts.update(pipeline._translator.stats.as_metrics())
    counts.update(pipeline.memory.device_metrics())
    return counts


def _resolve(target: str) -> Tuple[object, str, object]:
    """``"module:Class.attr"`` -> (owner, attribute name, original)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans ``[name, start, end, parent]`` for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        #: id(wrapper) -> (wrapper, original)
        self._originals: Dict[int, Tuple[object, object]] = {}
        self._bindings: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        # pipeline runs also add their counter deltas to :attr:`counts`
        source = pipeline_counts if name == "core.run" else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = source(args[0]) if source else None
            with self.span(name):
                result = original(*args, **kwargs)
            if source:
                for key, value in source(args[0]).items():
                    self.counts[key] = (self.counts.get(key, 0)
                                        + value - before.get(key, 0))
            return result

        return traced

    # ------------------------------------------------------------- binding
    def install(self) -> None:
        """Rebind every traced function where its callers look it up."""
        import repro.core  # noqa: F401 -- import order: core before ecache

        for _layer, name, target in SPANS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(name, original)
            self._originals[id(wrapper)] = (wrapper, original)
            self._bind(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                if module is owner or not _traceable(module):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including names bound to a wrapper
        by modules first imported while the tracer was installed."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        for module in list(sys.modules.values()):
            if not _traceable(module):
                continue
            for key, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, key, original)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --------------------------------------------------------------- output
    def write(self, path, meta: Optional[dict] = None) -> None:
        """Write the spans once: names interned, times in microseconds
        from the first span's start."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        payload = dict(meta or {}, run=self.run_id, names=names,
                       span_fields=["name", "start_us", "end_us", "parent"],
                       spans=[[index[name], round((start - origin) * 1e6),
                               round((end - origin) * 1e6), parent]
                              for name, start, end, parent in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _traceable(module) -> bool:
    name = getattr(module, "__name__", "") or ""
    return name == "repro" or name.startswith("repro.")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def phase_summary(spans: List[list], phase: str) -> dict:
    """Self time by span and by layer under the top-level ``phase`` span.

    The phase span's own self time is the benchmark's, reported as
    ``other``; ``coverage`` is the share of the phase's wall time that
    layer spans account for.
    """
    own = self_times(spans)
    root = next(i for i, span in enumerate(spans)
                if span[0] == phase and span[3] < 0)
    under = {root}
    by_span: Dict[str, float] = {}
    by_layer: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for i in range(root + 1, len(spans)):
        name, _start, _end, parent = spans[i]
        if parent not in under:
            continue
        under.add(i)
        layer = LAYER_OF.get(name, OTHER)
        by_span[name] = by_span.get(name, 0.0) + own[i]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
    wall = spans[root][2] - spans[root][1]
    by_layer[OTHER] = by_layer.get(OTHER, 0.0) + own[root]
    return {
        "wall_s": wall,
        "coverage": 1.0 - by_layer[OTHER] / wall if wall else 0.0,
        "self_s_by_layer": dict(sorted(by_layer.items())),
        "self_s_by_span": dict(sorted(by_span.items())),
        "calls_by_span": dict(sorted(calls.items())),
    }

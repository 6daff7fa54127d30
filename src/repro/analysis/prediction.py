"""Branch prediction study: branch cache vs static prediction.

The paper: "The branch cache was quickly discarded when we discovered that
it had to be fairly large (much greater than 16 entries) to get a high hit
rate ... Besides, it never did much better than static prediction and was
much more complex."

We reproduce that comparison over the workloads' dynamic branch traces:

* **static BTFN** -- backward taken / forward not-taken (no profile);
* **static profile** -- per-branch majority direction (what the shipped
  reorganizer uses);
* **branch cache** of N entries -- a fully-associative LRU cache of branch
  PCs, allocated when a branch takes, evicted on capacity; a branch is
  predicted taken iff present.  Swept over N.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.traces.capture import BranchEvent, TraceCollector
from repro.workloads import LISP_SUITE, PASCAL_SUITE

from repro.analysis.common import run_measured


@dataclasses.dataclass
class PredictorResult:
    name: str
    branches: int
    mispredictions: int

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredict_rate


def collect_branch_events(names: Sequence[str],
                          quantum: int = 0) -> List[BranchEvent]:
    """One combined dynamic branch trace over the given workloads.

    Branch PCs are disambiguated across workloads by tagging the high bits
    with the workload index (traces never reach those addresses).

    With ``quantum > 0`` the per-workload streams are *interleaved* every
    ``quantum`` events instead of concatenated -- the standard
    trace-driven stand-in for one large program whose working set of
    branch sites exceeds any single small benchmark (Smith's cache studies
    switched traces every Q references for exactly this reason).  A small
    branch cache thrashes under interleaving; static prediction does not.
    """
    streams: List[List[BranchEvent]] = []
    for offset, name in enumerate(names):
        collector = TraceCollector(fetches=False, data=False, branches=True)
        run_measured(name, trace=collector)
        tag = (offset + 1) << 24
        streams.append([BranchEvent(e.pc | tag, e.taken, e.target | tag)
                        for e in collector.branch_events])
    if quantum <= 0:
        return [event for stream in streams for event in stream]
    events: List[BranchEvent] = []
    cursors = [0] * len(streams)
    while any(cursors[k] < len(streams[k]) for k in range(len(streams))):
        for k, stream in enumerate(streams):
            take = stream[cursors[k]:cursors[k] + quantum]
            events.extend(take)
            cursors[k] += len(take)
    return events


def static_btfn(events: Sequence[BranchEvent]) -> PredictorResult:
    """Backward-taken / forward-not-taken static prediction."""
    wrong = sum(1 for e in events if (e.target <= e.pc) != e.taken)
    return PredictorResult("static BTFN", len(events), wrong)


def static_profile(events: Sequence[BranchEvent]) -> PredictorResult:
    """Per-branch majority direction (profile-guided static prediction).

    The profile is taken over the same trace, which is exactly what the
    paper's profiling workflow does (train = test was the practice)."""
    outcomes: Dict[int, List[int]] = collections.defaultdict(lambda: [0, 0])
    for event in events:
        outcomes[event.pc][0 if event.taken else 1] += 1
    majority = {pc: taken >= not_taken
                for pc, (taken, not_taken) in outcomes.items()}
    wrong = sum(1 for e in events if majority[e.pc] != e.taken)
    return PredictorResult("static profile", len(events), wrong)


def branch_cache(events: Sequence[BranchEvent],
                 entries: int) -> PredictorResult:
    """Fully-associative LRU branch cache: predict taken iff present."""
    cache: "collections.OrderedDict[int, bool]" = collections.OrderedDict()
    wrong = 0
    for event in events:
        predicted_taken = event.pc in cache
        if predicted_taken:
            cache.move_to_end(event.pc)
        if predicted_taken != event.taken:
            wrong += 1
        if event.taken:
            cache[event.pc] = True
            cache.move_to_end(event.pc)
            if len(cache) > entries:
                cache.popitem(last=False)
        elif event.pc in cache:
            del cache[event.pc]
    return PredictorResult(f"branch cache ({entries} entries)",
                           len(events), wrong)


@dataclasses.dataclass
class PredictionStudy:
    static_btfn: PredictorResult
    static_profile: PredictorResult
    caches: List[PredictorResult]


def run_study(names: Optional[Sequence[str]] = None,
              sizes: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
              quantum: int = 200) -> PredictionStudy:
    names = list(names) if names is not None else (
        list(PASCAL_SUITE) + list(LISP_SUITE))
    events = collect_branch_events(names, quantum=quantum)
    return PredictionStudy(
        static_btfn=static_btfn(events),
        static_profile=static_profile(events),
        caches=[branch_cache(events, size) for size in sizes],
    )

"""The two control finite state machines (Figures 3 and 4 of the paper).

The paper eliminated a global controller: each datapath section has local
decode, and the only two FSMs live in the PC unit.  One sequences
instruction-cache misses; the other performs instruction squashing, and is
*shared* between squashed branches and exceptions -- the paper's key
control insight ("squashing two branch slots only requires a single extra
input to the squashing finite state machine that is used to handle
exceptions").

Both FSMs here are load-bearing: the pipeline in
:mod:`repro.core.pipeline` drives every stall and squash through them,
``tests/test_experiments_doc.py`` holds their states to EXPERIMENTS.md,
and the bench report's ``control/fsm-live`` row exercises both live.
"""

from __future__ import annotations

import enum
from typing import List, Tuple


class SquashState(enum.Enum):
    NORMAL = "NORMAL"
    #: One-cycle assertion of the Squash line after a branch went the
    #: wrong way: no-ops the two delay-slot instructions in IF and RF.
    BRANCH_SQUASH = "BRANCH_SQUASH"
    #: One-cycle assertion of both Exception and Squash: no-ops everything
    #: in flight (ALU/MEM via Exception, IF/RF via Squash) and vectors to 0.
    EXCEPTION = "EXCEPTION"


class SquashFsm:
    """Figure 3: the squash FSM.

    Inputs (sampled each cycle):

    * ``exception`` -- an exception is being taken this cycle;
    * ``branch_wrong`` -- a squashing branch in ALU resolved against its
      prediction, so its delay slots must be converted to no-ops.

    Outputs:

    * ``squash_line`` -- no-op the instructions in IF and RF;
    * ``exception_line`` -- no-op the instructions in ALU and MEM (and
      block writes to the MD register and the PSW).
    """

    def __init__(self):
        self.state = SquashState.NORMAL
        self.squash_line = False
        self.exception_line = False
        self.transitions = 0

    def step(self, exception: bool, branch_wrong: bool) -> None:
        if exception:
            next_state = SquashState.EXCEPTION
        elif branch_wrong:
            next_state = SquashState.BRANCH_SQUASH
        else:
            next_state = SquashState.NORMAL
        if next_state is not self.state:
            self.transitions += 1
        self.state = next_state
        self.squash_line = next_state is not SquashState.NORMAL
        self.exception_line = next_state is SquashState.EXCEPTION

    @staticmethod
    def transition_table() -> List[Tuple[str, str, str, str]]:
        """(state, input, next state, asserted outputs) rows for Figure 3."""
        rows = []
        for state in SquashState:
            rows.append((state.value, "exception", "EXCEPTION",
                         "Exception+Squash"))
            rows.append((state.value, "branch wrong way", "BRANCH_SQUASH",
                         "Squash"))
            rows.append((state.value, "otherwise", "NORMAL", "-"))
        return rows


class MissState(enum.Enum):
    IDLE = "IDLE"
    #: Fetching the word that missed from the external cache.
    FETCH_MISS = "FETCH_MISS"
    #: Fetching the next sequential word (the paper's double fetch-back).
    FETCH_NEXT = "FETCH_NEXT"
    #: Looping on phase 2 while the external memory system is busy -- the
    #: qualified w1 clock is withheld, so control state does not advance.
    WAIT_EXTERNAL = "WAIT_EXTERNAL"


class CacheMissFsm:
    """Figure 4: the instruction-cache miss FSM.

    A miss takes ``FETCH_MISS`` then ``FETCH_NEXT`` (two cycles of stall,
    one fetched word each).  If a fetched word also misses in the external
    cache, the FSM sits in ``WAIT_EXTERNAL`` for the main-memory latency
    before the fetch cycle completes -- the late-miss retry loop.
    """

    def __init__(self):
        self.state = MissState.IDLE
        self._plan: List[MissState] = []
        self.miss_sequences = 0
        self.stall_cycles = 0

    @property
    def stalled(self) -> bool:
        return self.state is not MissState.IDLE

    def begin_miss(self, fetch_cycles: int, external_cycles: int = 0) -> None:
        """Start servicing a miss.

        ``fetch_cycles`` is the number of fetch-back cycles (the Icache
        miss service time, 2 on the paper's machine); ``external_cycles``
        is any additional main-memory wait because a fetch-back word also
        missed in the external cache.
        """
        if self.stalled:
            raise RuntimeError("miss started while already servicing a miss")
        if fetch_cycles <= 0 and external_cycles <= 0:
            return
        self.miss_sequences += 1
        plan = [MissState.FETCH_MISS] if fetch_cycles > 0 else []
        plan.extend([MissState.WAIT_EXTERNAL] * external_cycles)
        plan.extend([MissState.FETCH_NEXT] * max(0, fetch_cycles - 1))
        self._plan = plan
        self.state = plan[0]

    def tick(self) -> bool:
        """Consume one stall cycle; returns True while still stalled."""
        if not self.stalled:
            return False
        self.stall_cycles += 1
        self._plan.pop(0)
        self.state = self._plan[0] if self._plan else MissState.IDLE
        return self.stalled

    def tick_many(self, cycles: int) -> None:
        """Consume ``cycles`` stall cycles at once.

        Exactly equivalent to calling :meth:`tick` ``cycles`` times; the
        pipeline's stall fast path uses it to burn a whole miss service
        without re-entering the per-cycle machinery.
        """
        if cycles <= 0 or not self.stalled:
            return
        consumed = min(cycles, len(self._plan))
        self.stall_cycles += consumed
        del self._plan[:consumed]
        self.state = self._plan[0] if self._plan else MissState.IDLE

    @staticmethod
    def transition_table() -> List[Tuple[str, str, str]]:
        """(state, input, next state) rows for Figure 4."""
        return [
            ("IDLE", "icache miss", "FETCH_MISS"),
            ("IDLE", "icache hit", "IDLE"),
            ("FETCH_MISS", "ecache hit", "FETCH_NEXT"),
            ("FETCH_MISS", "ecache miss (late miss)", "WAIT_EXTERNAL"),
            ("FETCH_NEXT", "ecache hit", "IDLE"),
            ("FETCH_NEXT", "ecache miss (late miss)", "WAIT_EXTERNAL"),
            ("WAIT_EXTERNAL", "memory busy", "WAIT_EXTERNAL"),
            ("WAIT_EXTERNAL", "data returned", "FETCH_NEXT or IDLE"),
        ]

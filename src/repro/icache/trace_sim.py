"""Vectorized trace-driven Icache replay.

The paper's cache study captured instruction traces once and swept every
organization against them; :func:`replay` is that second phase.  It is an
*exact* re-implementation of :class:`repro.icache.cache.Icache` semantics
-- sub-block placement (per-word valid bits), tag allocation vs sub-block
miss, cross-block fetch-back fills, LRU/FIFO order bookkeeping and the
deterministic xorshift random policy -- so replayed counters equal the
live cache's bit for bit (pinned by tests/test_trace_replay.py).

Why it is fast: instruction streams are long stride-1 bursts, so the
trace is decomposed once (config-independently, in numpy) into maximal
stride-1 runs, and each run is walked *portion* by portion -- a portion
is the run's stretch inside one block -- with integer valid-bit masks.
The work is per portion, not per access or per miss:

* a resident portion is one recency touch (every access in it uses the
  same way, and nothing else interleaves), its hits one mask compare and
  its sub-block misses filled by mask;
* a fresh portion (block not resident) resolves every miss at once: with
  fetch-back ``F``, words ``w..w_hi`` miss at ``w, w+F, ...`` --
  ``(w_hi - w) // F + 1`` misses -- and leave one contiguous valid span.
  Only the last miss can fetch past the block end, so the touch order is
  the block, then that spill, then the block again if words remain;
* with one-word blocks the ``F-1`` words a miss fetched back are resident
  and most recent in their sets (they lie in distinct sets, or ``F <= 2``),
  so their accesses are no-op hits the walk steps over;
* a spill that evicts the walked block (a one-line set) sends the words
  after the last miss back through the fresh path;
* replacement state lives in one ``OrderedDict`` per set whose key order
  *is* the live cache's per-set order list (head == victim,
  ``move_to_end`` == touch), so victim selection is O(1).

Fetch-back breaks LRU inclusion -- a small cache that misses on a block's
last word fills the next block's first word, which a larger cache that
hits there never fills -- so the one-pass all-associativity method
(Mattson et al. 1970) would be exact only without it; every organization
is replayed on its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Union

import numpy as np

from repro.core.config import IcacheConfig
from repro.icache.cache import Icache, IcacheStats

_XORSHIFT_SEED = 0x2545F491


def replay(config: IcacheConfig,
           addresses: Union[Sequence[int], np.ndarray],
           system_mode: bool = True) -> IcacheStats:
    """Replay a fetch-address trace against one organization.

    Exact equivalent of ``Icache(config).simulate_trace(addresses)`` for
    power-of-two geometries; other geometries fall back to the live model.
    """
    trace = np.ascontiguousarray(np.asarray(addresses, dtype=np.int64))
    block, sets = config.block_words, config.sets
    pow2 = (block & (block - 1) == 0) and (sets & (sets - 1) == 0)
    if not pow2:
        return Icache(config).simulate_trace(trace.tolist(), system_mode)
    if trace.size == 0:
        return IcacheStats()
    # The mode bit only disambiguates system vs user tags; a single-mode
    # trace yields identical stats either way, so replay keys by block.
    return _replay_runs(config, trace)


def _run_starts(trace: np.ndarray) -> np.ndarray:
    """Start indices of the maximal stride-1 runs of ``trace``."""
    breaks = np.flatnonzero(trace[1:] != trace[:-1] + 1) + 1
    return np.concatenate(([0], breaks))


def _replay_runs(config: IcacheConfig, trace: np.ndarray) -> IcacheStats:
    block, sets, ways = config.block_words, config.sets, config.ways
    fetchback = max(1, config.fetchback)
    bshift = block.bit_length() - 1
    bmask = block - 1
    smask = sets - 1
    full = (1 << block) - 1  # every valid bit of a block
    lru = config.replacement == "lru"
    random = config.replacement == "random"
    rand_state = _XORSHIFT_SEED
    # one-word blocks: a miss's fetched-back words are resident and MRU
    # in their sets (distinct sets, or the last fill of a one-set cache),
    # so accessing them next is a no-op hit the walk can step over
    skip = fetchback - 1 if block == 1 and (fetchback <= 2
                                            or fetchback <= sets) else 0

    starts = _run_starts(trace)
    a0s = trace[starts]
    lens = np.diff(np.concatenate((starts, [trace.size])))
    # Loop trips re-issue the identical stride-1 run back to back.  A
    # repeat of a run that just completed without a single miss can be
    # skipped outright: it would only repeat the same LRU touches in the
    # same order (idempotent -- nothing else interleaves between two
    # consecutive runs), so counters and final state are untouched.
    repeat = np.empty(a0s.size, dtype=bool)
    repeat[0] = False
    repeat[1:] = (a0s[1:] == a0s[:-1]) & (lens[1:] == lens[:-1])

    # Per set, an OrderedDict from block number to its valid-bit mask,
    # in the live cache's replacement order (head == victim, most recent
    # last).  Keying by block is exact: at a fixed mode bit, block <->
    # tag is a bijection within a set.  Which way a block occupies only
    # matters to the random policy's victim index, so only it keeps
    # ``way_block``.
    tags = [OrderedDict() for _ in range(sets)]
    way_block = [[None] * ways for _ in range(sets)]
    misses = 0
    filled = 0
    allocs = 0

    def place_random(blk: int, od: OrderedDict) -> None:
        """Put ``blk`` in the way the xorshift picks, as the live cache
        does, evicting the block that held it."""
        nonlocal rand_state
        x = rand_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        rand_state = x
        row = way_block[blk & smask]
        old = row[x % ways]
        if old is not None:
            del od[old]
        row[x % ways] = blk

    def fill(blk: int, mask: int) -> None:
        """Fill the words of ``mask`` into block ``blk``, allocating a
        way on a tag miss."""
        nonlocal filled, allocs
        od = tags[blk & smask]
        v = od.get(blk)
        if v is None:
            if random:
                place_random(blk, od)
            elif len(od) == ways:
                od.popitem(last=False)
            v = 0
            allocs += 1
        elif lru:
            od.move_to_end(blk)  # a fill into a live way is a use
        od[blk] = v | mask  # a new key is the most recent, and FIFO's tail
        filled += (mask & ~v).bit_count()

    clean = False  # previous run completed without a miss
    for a0, length, is_repeat in zip(a0s.tolist(), lens.tolist(),
                                     repeat.tolist()):
        if is_repeat and clean:
            continue
        run_misses = misses
        a_end = a0 + length - 1
        blk_end = a_end >> bshift
        w = a0 & bmask
        resume = 0
        for blk in range(a0 >> bshift, blk_end + 1):
            # one portion: words w..w_hi of block blk, accessed in order
            if blk < resume:
                continue
            od = tags[blk & smask]
            v = od.get(blk)
            if v is not None:
                if lru:  # every access of the portion touches this way
                    od.move_to_end(blk)
                if v == full:
                    w = 0
                    continue
            w_hi = bmask if blk != blk_end else a_end & bmask
            while True:
                if v is None:
                    # fresh block: allocate it; misses at w, w+F, ...
                    # each fill F words, and only the last (at j) can
                    # fetch past the block end
                    m = (w_hi - w) // fetchback + 1
                    misses += m
                    j = w + (m - 1) * fetchback
                    v = ((1 << (j + fetchback)) - (1 << w)) & full
                    if random:
                        place_random(blk, od)
                    elif len(od) == ways:
                        od.popitem(last=False)
                    od[blk] = v
                    allocs += 1
                    filled += v.bit_count()
                else:
                    inv = ((2 << w_hi) - (1 << w)) & ~v
                    if not inv:
                        break
                    old = v
                    while inv:  # sub-block misses, filled by mask
                        j = (inv & -inv).bit_length() - 1
                        misses += 1
                        v |= ((1 << fetchback) - 1) << j
                        inv &= ~v
                    v &= full
                    od[blk] = v
                    filled += v.bit_count() - old.bit_count()
                rest = j + fetchback - block  # words fetched past the end
                if rest > 0:
                    spill = blk
                    while rest > 0:
                        spill += 1
                        fill(spill, ((1 << rest) - 1) & full)
                        rest -= block
                    if blk not in od:
                        # a fill evicted the walked block (a one-line
                        # set): the words after j miss again
                        w = j + 1
                        if w <= w_hi:
                            v = None
                            continue
                    elif lru and j < w_hi:
                        od.move_to_end(blk)  # the hits after the last miss
                    resume = blk + 1 + skip
                break
            w = 0
        clean = misses == run_misses

    return IcacheStats(accesses=int(trace.size), misses=misses,
                       words_filled=filled, tag_allocations=allocs)

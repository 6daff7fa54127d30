"""The on-chip instruction cache (Icache).

The paper's organization: 512 words total, 8-way set-associative with 4
sets (rows) and 16-word blocks, *sub-block placement* (one valid bit per
word, 512 valid bits, 32 tags), and a two-word fetch-back on each miss.
The double fetch-back is the paper's key cache result: the two miss-service
cycles are used to fetch both the missed word and the next sequential word,
which "almost halves the miss ratio" without touching the critical path.

The class is configuration-driven so the organization explorer can sweep
sets/ways/block size/fetch-back, and it serves both the live pipeline and
trace-driven simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import IcacheConfig


@dataclasses.dataclass
class IcacheStats:
    accesses: int = 0
    misses: int = 0
    words_filled: int = 0
    tag_allocations: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def average_fetch_cost(self, miss_cycles: int) -> float:
        """Average cycles per instruction fetch (1 + miss rate x service)."""
        return 1.0 + self.miss_rate * miss_cycles

    def as_metrics(self) -> "dict[str, int]":
        """Counter values under canonical telemetry catalog names."""
        return {
            "icache.accesses": self.accesses,
            "icache.misses": self.misses,
            "icache.words_filled": self.words_filled,
            "icache.tag_allocations": self.tag_allocations,
        }


@dataclasses.dataclass
class FetchResult:
    """Outcome of one instruction fetch probe."""

    hit: bool
    #: word addresses fetched back from the external cache on a miss
    fill_addresses: List[int] = dataclasses.field(default_factory=list)


class _Way:
    __slots__ = ("tag", "valid")

    def __init__(self, block_words: int):
        self.tag: Optional[int] = None
        self.valid = [False] * block_words


#: Shared result for every hit: the hot path allocates nothing.  Callers
#: treat :class:`FetchResult` as read-only (the pipeline and the explorer
#: only inspect it), so sharing one instance is safe.
_HIT = FetchResult(hit=True)


class Icache:
    """Set-associative sub-block instruction cache.

    System and user mode are separate address spaces, so the mode bit is
    part of the tag.  Replacement applies on *tag allocation* only; a miss
    whose tag already matches (sub-block miss) just fills valid bits.

    Sequential fetch stays inside one block for most cycles, so on
    power-of-two geometries :meth:`fetch` keeps a one-entry *same-block
    memo*: the ``block << 1 | mode`` key of the most recent hit and that
    way's ``valid`` list.  A probe with that key and its word valid
    counts the access and hits without the tag lookup or the LRU touch.
    Invariant: while the memo is set, its block is resident and the most
    recently used way of its set, so skipping the touch leaves the
    replacement order exactly as the full probe would.  A hit on another
    block replaces the memo, and every other writer of cache state
    clears it: :meth:`_fill` (hence every miss), :meth:`flush`,
    :meth:`inject_valid_flips`, :meth:`inject_tag_corruption`,
    :meth:`bulk_touch`, and checkpoint restore.  The memo is derived
    state: no signature or snapshot includes it.
    """

    def __init__(self, config: IcacheConfig):
        self.config = config
        self.stats = IcacheStats()
        self._sets: List[List[_Way]] = [
            [_Way(config.block_words) for _ in range(config.ways)]
            for _ in range(config.sets)
        ]
        # replacement bookkeeping, per set
        self._order: List[List[int]] = [list(range(config.ways))
                                        for _ in range(config.sets)]
        self._rand_state = 0x2545F491
        # tag -> way index per set: tags are unique within a set (a
        # structural invariant), so the associative search is a dict probe
        self._tag_maps: List[Dict[int, int]] = [{} for _ in range(config.sets)]
        # power-of-two geometries (every organization in the paper's
        # design space) index with shifts and masks instead of divisions
        block, sets = config.block_words, config.sets
        self._pow2 = (block & (block - 1) == 0) and (sets & (sets - 1) == 0)
        self._block_shift = block.bit_length() - 1
        self._block_mask = block - 1
        self._set_shift = sets.bit_length() - 1
        self._set_mask = sets - 1
        self._lru = config.replacement == "lru"
        # the same-block memo (see the class docstring); -1 is no block
        self._memo_key = -1
        self._memo_valid: Optional[List[bool]] = None

    # ------------------------------------------------------------ indexing
    def _locate(self, address: int, system_mode: bool) -> Tuple[int, int, int]:
        if self._pow2:
            block = address >> self._block_shift
            tag = ((block >> self._set_shift) << 1) | (1 if system_mode else 0)
            return block & self._set_mask, tag, address & self._block_mask
        block = address // self.config.block_words
        index = block % self.config.sets
        tag = (block // self.config.sets) * 2 + (1 if system_mode else 0)
        word = address % self.config.block_words
        return index, tag, word

    def _find_way(self, index: int, tag: int) -> Optional[int]:
        return self._tag_maps[index].get(tag)

    # ------------------------------------------------ translator support
    def locate(self, address: int, system_mode: bool) -> Tuple[int, int, int]:
        """Public ``(set_index, tag, word_offset)`` mapping for an
        address -- the geometry the translated fast path compiles its
        line tables against."""
        return self._locate(address, system_mode)

    def residency(self, index: int, tag: int
                  ) -> Optional[Tuple[int, List[bool]]]:
        """Non-observing residency probe: ``(way, valid_bits)`` when the
        tag is allocated in the set, else ``None``.  Touches no stats
        and no replacement state -- entry guards use it to prove a
        block's fetches will all hit before committing to the fast
        path."""
        way = self._tag_maps[index].get(tag)
        if way is None:
            return None
        return way, self._sets[index][way].valid

    def bulk_touch(self, ways, count: int) -> None:
        """Apply ``count`` deferred LRU touches, one ``(set_index,
        way)`` pair each, in fetch order -- the batched equivalent of
        the MRU promotion each individual hit performs.  A full pass's
        touch sequence is idempotent (it leaves each set's order with
        the pass's ways as the MRU suffix), which is what lets a
        translated block collapse many passes into one application."""
        self._memo_key = -1
        order_table = self._order
        for j in range(count):
            index, way = ways[j]
            order = order_table[index]
            if order[-1] != way:
                order.remove(way)
                order.append(way)

    def _victim(self, index: int) -> int:
        policy = self.config.replacement
        if policy == "random":
            # xorshift: deterministic, seedless runs are reproducible
            state = self._rand_state
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            self._rand_state = state
            return state % self.config.ways
        # both LRU and FIFO evict the head of the per-set order list
        return self._order[index][0]

    def _touch(self, index: int, way_index: int, allocation: bool) -> None:
        if self._lru or allocation:
            order = self._order[index]
            if order[-1] != way_index:  # already most recent: nothing to move
                order.remove(way_index)
                order.append(way_index)

    # -------------------------------------------------------------- access
    def lookup(self, address: int, system_mode: bool = True) -> bool:
        """Probe without side effects (no fill, no stats)."""
        index, tag, word = self._locate(address, system_mode)
        way_index = self._find_way(index, tag)
        return way_index is not None and self._sets[index][way_index].valid[word]

    def fetch(self, address: int, system_mode: bool = True) -> FetchResult:
        """One instruction fetch: probe, and on a miss fill
        ``config.fetchback`` sequential words."""
        self.stats.accesses += 1
        if self._pow2:  # inlined _locate: this probe runs once per cycle
            block = address >> self._block_shift
            word = address & self._block_mask
            mode = 1 if system_mode else 0
            key = (block << 1) | mode
            if key == self._memo_key and self._memo_valid[word]:
                return _HIT  # same block as the last hit: already MRU
            index = block & self._set_mask
            tag = ((block >> self._set_shift) << 1) | mode
            way_index = self._tag_maps[index].get(tag)
            if way_index is not None:
                valid = self._sets[index][way_index].valid
                if valid[word]:
                    self._touch(index, way_index, allocation=False)
                    self._memo_key = key
                    self._memo_valid = valid
                    return _HIT
        else:
            index, tag, word = self._locate(address, system_mode)
            way_index = self._tag_maps[index].get(tag)
            if (way_index is not None
                    and self._sets[index][way_index].valid[word]):
                self._touch(index, way_index, allocation=False)
                return _HIT  # hits share one immutable-by-convention result
        self.stats.misses += 1
        fills = [address + k for k in range(max(1, self.config.fetchback))]
        for fill_address in fills:
            self._fill(fill_address, system_mode)
        return FetchResult(hit=False, fill_addresses=fills)

    def _fill(self, address: int, system_mode: bool) -> None:
        self._memo_key = -1
        index, tag, word = self._locate(address, system_mode)
        way_index = self._tag_maps[index].get(tag)
        if way_index is None:
            way_index = self._victim(index)
            way = self._sets[index][way_index]
            tag_map = self._tag_maps[index]
            if way.tag is not None:
                del tag_map[way.tag]
            tag_map[tag] = way_index
            way.tag = tag
            way.valid = [False] * self.config.block_words
            self.stats.tag_allocations += 1
            self._touch(index, way_index, allocation=True)
        else:
            # a fill into a live way (sub-block miss, or a fetch-back word
            # landing in a resident block) is a use of that block: under
            # LRU it must refresh recency, exactly as a hit does --
            # otherwise a block serving a long streak of sub-block misses
            # looks idle and gets evicted over genuinely cold ways
            self._touch(index, way_index, allocation=False)
        way = self._sets[index][way_index]
        if not way.valid[word]:
            way.valid[word] = True
            self.stats.words_filled += 1

    # ------------------------------------------------------ fault injection
    def inject_valid_flips(self, rng, count: int = 1) -> int:
        """Flip up to ``count`` randomly-chosen *set* sub-block valid bits.

        Models single-event upsets in the 512-valid-bit array.  Clearing a
        valid bit is always safe for correctness (the word refetches from
        the Ecache; purely a timing fault), which is why only set bits are
        targeted -- setting a stale bit would be a *functional* cache, and
        this Icache is timing-only by design.  Returns the number of bits
        actually flipped (0 when the cache holds no valid words).
        """
        self._memo_key = -1
        candidates = [
            (index, way_index, word)
            for index, cache_set in enumerate(self._sets)
            for way_index, way in enumerate(cache_set)
            if way.tag is not None
            for word, valid in enumerate(way.valid) if valid
        ]
        if not candidates:
            return 0
        flipped = 0
        for _ in range(count):
            index, way_index, word = candidates[rng.randrange(len(candidates))]
            way = self._sets[index][way_index]
            if way.valid[word]:
                way.valid[word] = False
                flipped += 1
        return flipped

    def inject_tag_corruption(self, rng, count: int = 1) -> int:
        """Corrupt up to ``count`` tags by flipping one random tag bit.

        Preserves the unique-tags-per-set structural invariant the rest of
        the cache relies on: if the corrupted value collides with another
        live way in the set, that way is invalidated first (on hardware the
        duplicate would make the associative match undefined; the model
        resolves it the conservative way).  All valid bits of the corrupted
        way are cleared -- its contents now describe the wrong block, and a
        stale "valid" word under a wrong tag would be a functional fault a
        timing-only cache cannot express.  Returns tags corrupted.
        """
        self._memo_key = -1
        live = [
            (index, way_index)
            for index, cache_set in enumerate(self._sets)
            for way_index, way in enumerate(cache_set)
            if way.tag is not None
        ]
        if not live:
            return 0
        corrupted = 0
        for _ in range(count):
            index, way_index = live[rng.randrange(len(live))]
            way = self._sets[index][way_index]
            if way.tag is None:      # already victimized by a collision
                continue
            tag_map = self._tag_maps[index]
            new_tag = way.tag ^ (1 << rng.randrange(8))
            del tag_map[way.tag]
            collider = tag_map.pop(new_tag, None)
            if collider is not None:
                other = self._sets[index][collider]
                other.tag = None
                other.valid = [False] * self.config.block_words
            way.tag = new_tag
            way.valid = [False] * self.config.block_words
            tag_map[new_tag] = way_index
            corrupted += 1
        return corrupted

    def flush(self) -> None:
        self._memo_key = -1
        for cache_set in self._sets:
            for way in cache_set:
                way.tag = None
                way.valid = [False] * self.config.block_words
        self._order = [list(range(self.config.ways))
                       for _ in range(self.config.sets)]
        self._tag_maps = [{} for _ in range(self.config.sets)]

    # ------------------------------------------------------ trace interface
    def simulate_trace(self, addresses: Iterable[int],
                       system_mode: bool = True) -> IcacheStats:
        """Run a stream of fetch addresses through the cache (trace-driven
        simulation, as the paper's cache studies were done)."""
        for address in addresses:
            self.fetch(address, system_mode)
        return self.stats


def simulate(config: IcacheConfig, addresses: Iterable[int]) -> IcacheStats:
    """Trace-driven simulation of one organization (fresh cache)."""
    return Icache(config).simulate_trace(addresses)


def contents_invariants(cache: Icache) -> Dict[str, bool]:
    """Structural invariants used by the property-based tests."""
    tags_ok = True
    orders_ok = True
    for index, cache_set in enumerate(cache._sets):
        live_tags = [way.tag for way in cache_set if way.tag is not None]
        tags_ok &= len(live_tags) == len(set(live_tags))
        orders_ok &= sorted(cache._order[index]) == list(range(cache.config.ways))
    return {"unique_tags_per_set": tags_ok, "replacement_order_complete": orders_ok}

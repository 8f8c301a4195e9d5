"""Faithful set-associative cache simulator.

Simulates a cache at the granularity of individual line addresses, with a
pluggable replacement policy.  This is the substrate behind the
McSimA+-style replay service (:mod:`repro.mcsim`) and the micro-benchmark
validation experiments; the full-machine simulation uses the much cheaper
occupancy model (:mod:`repro.cachesim.occupancy`) instead.

Addresses are byte addresses; the cache maps them to ``(set, tag)`` using
the line size and number of sets from its :class:`~repro.hardware.specs.
CacheSpec`.  Every access is tagged with an *owner* id (a vCPU) so that
per-VM attribution — Kyoto's central measurement problem — can be studied
directly.

The layout is flat: one list of resident line numbers and one of their
owners, each indexed by ``set_index * associativity + way`` (``None``
marks a free way), plus one line→way dict, so a lookup is a single dict
probe.  A line number determines its set (``line % num_sets``) and tag
(``line // num_sets``), so the dict needs no per-set split.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.specs import CacheSpec

from .replacement import LruPolicy, ReplacementPolicy, SetState
from .stats import CacheStats

#: Owner id used for lines whose owner is unknown/irrelevant.
NO_OWNER = -1


class AccessResult:
    """Outcome of one cache access."""

    __slots__ = ("hit", "evicted_tag", "evicted_owner", "set_index")

    def __init__(
        self,
        hit: bool,
        set_index: int,
        evicted_tag: Optional[int] = None,
        evicted_owner: int = NO_OWNER,
    ) -> None:
        self.hit = hit
        self.set_index = set_index
        self.evicted_tag = evicted_tag
        self.evicted_owner = evicted_owner


class SetAssociativeCache:
    """A single-level set-associative cache with owner attribution."""

    def __init__(
        self,
        spec: CacheSpec,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.spec = spec
        self.policy = policy if policy is not None else LruPolicy()
        self.num_sets = spec.num_sets
        self.assoc = spec.associativity
        self.line_bytes = spec.line_bytes
        self.stats = CacheStats()
        self._reset_contents()
        self.policy.assign_set_roles(self.num_sets)
        #: Line and owner of the last eviction :meth:`lookup` made (read by
        #: :meth:`access`, which clears them first).
        self._victim_line: Optional[int] = None
        self._victim_owner = NO_OWNER

    def _reset_contents(self) -> None:
        slots = self.num_sets * self.assoc
        self._lines: List[Optional[int]] = [None] * slots
        self._owners: List[Optional[int]] = [None] * slots
        self._way_of: Dict[int, int] = {}
        self._states: List[SetState] = [
            self.policy.make_set_state(self.assoc) for _ in range(self.num_sets)
        ]

    # -- address mapping ---------------------------------------------------

    def index_of(self, address: int) -> Tuple[int, int]:
        """Map a byte address to ``(set_index, tag)``."""
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    # -- lookup / access ---------------------------------------------------

    def probe(self, address: int) -> bool:
        """Check residency without touching stats or recency state."""
        return address // self.line_bytes in self._way_of

    def lookup(self, address: int, owner: int = NO_OWNER) -> bool:
        """Perform one access; fill on miss; return whether it hit.

        The replay hot path: a hit allocates nothing.
        """
        line = address // self.line_bytes
        set_index = line % self.num_sets
        stats = self.stats
        total = stats.total
        mine = stats.by_owner[owner]
        total.accesses += 1
        mine.accesses += 1
        way = self._way_of.get(line)
        if way is not None:
            total.hits += 1
            mine.hits += 1
            self.policy.on_hit(self._states[set_index], way, set_index)
            return True

        total.misses += 1
        mine.misses += 1
        policy = self.policy
        policy.record_miss(set_index)
        assoc = self.assoc
        base = set_index * assoc
        lines = self._lines
        owners = self._owners
        state = self._states[set_index]
        # recency lists exactly the valid ways, so it also counts them.
        if len(state.recency) < assoc:
            way = lines.index(None, base, base + assoc) - base
        else:
            way = policy.victim(state, assoc, set_index)
            victim_line = lines[base + way]
            victim_owner = owners[base + way]
            del self._way_of[victim_line]
            state.recency.remove(way)
            total.evictions_suffered += 1
            stats.by_owner[victim_owner].evictions_suffered += 1
            mine.evictions_caused += 1
            self._victim_line = victim_line
            self._victim_owner = victim_owner
        lines[base + way] = line
        owners[base + way] = owner
        self._way_of[line] = way
        policy.on_fill(state, way, set_index)
        return False

    def access(self, address: int, owner: int = NO_OWNER) -> AccessResult:
        """Perform one access; fill on miss; return hit/eviction info."""
        self._victim_line = None
        self._victim_owner = NO_OWNER
        hit = self.lookup(address, owner)
        set_index, _ = self.index_of(address)
        victim_line = self._victim_line
        return AccessResult(
            hit=hit,
            set_index=set_index,
            evicted_tag=(
                None if victim_line is None else victim_line // self.num_sets
            ),
            evicted_owner=self._victim_owner,
        )

    # -- owner queries -----------------------------------------------------

    def occupancy_of(self, owner: int) -> int:
        """Number of lines currently owned by ``owner``."""
        return self._owners.count(owner)

    def occupancy_by_owner(self) -> Dict[int, int]:
        """Mapping owner -> resident line count."""
        counts: Dict[int, int] = {}
        for owner in self._owners:
            if owner is not None:
                counts[owner] = counts.get(owner, 0) + 1
        return counts

    def resident_lines(self) -> int:
        """Total number of valid lines."""
        return len(self._way_of)

    def flush(self) -> None:
        """Invalidate every line (stats are preserved)."""
        self._reset_contents()

    def flush_owner(self, owner: int) -> int:
        """Invalidate all lines of one owner; returns how many were dropped."""
        lines, owners = self._lines, self._owners
        dropped = 0
        for slot, line_owner in enumerate(owners):
            if line_owner == owner:
                set_index, way = divmod(slot, self.assoc)
                del self._way_of[lines[slot]]
                lines[slot] = None
                owners[slot] = None
                self._states[set_index].recency.remove(way)
                dropped += 1
        return dropped

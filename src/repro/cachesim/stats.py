"""Cache statistics containers.

Counters are kept both globally per cache and per *owner* (the vCPU or VM
id tagged on each access), because the whole point of Kyoto's monitoring
problem is attributing shared-LLC activity to individual VMs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class AccessStats:
    """Hit/miss/eviction counters for one owner (or the whole cache)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions_suffered: int = 0
    evictions_caused: int = 0

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions_suffered = 0
        self.evictions_caused = 0


class CacheStats:
    """Global plus per-owner statistics of one cache."""

    def __init__(self) -> None:
        self.total = AccessStats()
        self.by_owner: Dict[int, AccessStats] = defaultdict(AccessStats)

    def owner(self, owner_id: int) -> AccessStats:
        """Stats for one owner (created empty if never seen)."""
        return self.by_owner[owner_id]

    def reset(self) -> None:
        self.total.reset()
        for stats in self.by_owner.values():
            stats.reset()

"""Multi-level cache hierarchy.

Chains private L1/L2 caches with the (possibly shared) LLC and accounts
which level services each access, translating that into access cycles with
the machine's :class:`~repro.hardware.latency.LatencyModel`.  Used by the
trace-replay path (mcsim drives ``replay_block``, one trace record at a
time) and by hierarchy-level validation tests; the machine-scale
contention simulation uses the occupancy model instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

from repro.hardware.latency import LatencyModel
from repro.hardware.specs import SocketSpec

from .replacement import make_policy
from .setassoc import NO_OWNER, SetAssociativeCache


class ServiceLevel(Enum):
    """Which level of the hierarchy serviced an access."""

    L1 = "L1"
    L2 = "L2"
    LLC = "LLC"
    MEMORY = "MEMORY"


#: Service levels in walk order; :meth:`CacheHierarchy._walk` returns an
#: index into this tuple.
_LEVELS = (ServiceLevel.L1, ServiceLevel.L2, ServiceLevel.LLC, ServiceLevel.MEMORY)


@dataclass
class HierarchyAccess:
    """Outcome of one access through the full hierarchy."""

    level: ServiceLevel
    cycles: int
    llc_miss: bool


class CacheHierarchy:
    """Private L1D + L2 in front of a shared LLC.

    Several hierarchies (one per core) may share the same ``llc`` object,
    which is exactly how LLC contention arises.
    """

    def __init__(
        self,
        socket_spec: SocketSpec,
        latency: LatencyModel,
        llc: Optional[SetAssociativeCache] = None,
        llc_policy: str = "lru",
    ) -> None:
        self.latency = latency
        self.l1 = SetAssociativeCache(socket_spec.l1d)
        self.l2 = SetAssociativeCache(socket_spec.l2)
        self.llc = (
            llc
            if llc is not None
            else SetAssociativeCache(socket_spec.llc, make_policy(llc_policy))
        )
        self.level_counts: Dict[ServiceLevel, int] = {
            level: 0 for level in ServiceLevel
        }
        #: Latency of the cache levels, indexed like :data:`_LEVELS`.
        self._cache_cycles = (
            latency.l1_cycles,
            latency.l2_cycles,
            latency.llc_cycles,
        )

    def _walk(self, address: int, owner: int) -> int:
        """Send one load through L1 → L2 → LLC → memory.

        Returns the index in :data:`_LEVELS` of the level that serviced
        it.  All levels are filled on the way back (inclusive hierarchy).
        """
        if self.l1.lookup(address, owner):
            return 0
        if self.l2.lookup(address, owner):
            return 1
        if self.llc.lookup(address, owner):
            return 2
        return 3

    def access(
        self, address: int, owner: int = NO_OWNER, remote_memory: bool = False
    ) -> HierarchyAccess:
        """Send one load through the hierarchy and report where it hit."""
        index = self._walk(address, owner)
        level = _LEVELS[index]
        if level is ServiceLevel.MEMORY:
            cycles = self.latency.memory_cycles_for(remote_memory)
        else:
            cycles = self._cache_cycles[index]
        self.level_counts[level] += 1
        return HierarchyAccess(
            level=level, cycles=cycles, llc_miss=level is ServiceLevel.MEMORY
        )

    def replay_block(
        self, addresses: Sequence[int], owner: int, cycles: float
    ) -> Tuple[float, int, int]:
        """Send a block of local-memory loads through the hierarchy, in order.

        Equivalent to calling :meth:`access` per address, but returns
        only the block's totals: ``(cycles, llc_accesses, llc_misses)``.
        ``cycles`` is the running total each access's latency is added
        to, one access at a time, so a caller's float base accumulates
        exactly as a per-access loop would round it.  ``level_counts``
        is updated once per block.
        """
        walk = self._walk
        latencies = self._cache_cycles + (self.latency.memory_cycles_for(False),)
        served = [0, 0, 0, 0]
        for address in addresses:
            index = walk(address, owner)
            cycles += latencies[index]
            served[index] += 1
        counts = self.level_counts
        for level, count in zip(_LEVELS, served):
            counts[level] += count
        return cycles, served[2] + served[3], served[3]

    @property
    def llc_misses(self) -> int:
        """Number of accesses that had to go to memory."""
        return self.level_counts[ServiceLevel.MEMORY]

    def reset_counts(self) -> None:
        """Zero the per-level service counters (cache contents preserved)."""
        self.level_counts = {level: 0 for level in ServiceLevel}

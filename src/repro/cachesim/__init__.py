"""Cache simulation: faithful set-associative caches and the analytical
shared-LLC occupancy/contention model."""

from .hierarchy import CacheHierarchy, HierarchyAccess, ServiceLevel
from .occupancy import InsertionOutcome, LlcOccupancyDomain
from .prefetch import (
    NextLinePrefetcher,
    PrefetchStats,
    Prefetcher,
    PrefetchingCache,
    StridePrefetcher,
)
from .perfmodel import (
    CacheBehavior,
    StepResult,
    cycles_per_instruction,
    execute_step,
    hit_probability,
    solo_ipc,
)
from .replacement import (
    BipPolicy,
    DipPolicy,
    LruPolicy,
    ProtectingDistancePolicy,
    RandomPolicy,
    ReplacementPolicy,
    SetState,
    make_policy,
)
from .setassoc import AccessResult, NO_OWNER, SetAssociativeCache
from .stats import AccessStats, CacheStats

__all__ = [
    "AccessResult",
    "AccessStats",
    "BipPolicy",
    "CacheBehavior",
    "CacheHierarchy",
    "CacheStats",
    "DipPolicy",
    "HierarchyAccess",
    "InsertionOutcome",
    "LlcOccupancyDomain",
    "LruPolicy",
    "NO_OWNER",
    "NextLinePrefetcher",
    "PrefetchStats",
    "Prefetcher",
    "PrefetchingCache",
    "StridePrefetcher",
    "ProtectingDistancePolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "ServiceLevel",
    "SetAssociativeCache",
    "SetState",
    "StepResult",
    "cycles_per_instruction",
    "execute_step",
    "hit_probability",
    "make_policy",
    "solo_ipc",
]

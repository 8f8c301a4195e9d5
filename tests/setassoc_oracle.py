"""Test-only oracle: the set-associative simulator before the flat rewrite.

A verbatim copy of the per-line ``CacheLine`` simulator, its statistics
counting rule, its replacement policies (with the DIP set-index shims),
the per-access hierarchy walk and the per-address replay loop, kept only
so property tests can check that the production simulator
(``repro.cachesim.setassoc``) stays bit-identical to it: same hits, same
victims, same statistics, same replay reports.
Nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cachesim.stats import CacheStats
from repro.hardware.latency import LatencyModel
from repro.hardware.specs import CacheSpec, SocketSpec
from repro.mcsim.multicore import CoRunReport
from repro.mcsim.replay import ReplayReport
from repro.simulation.rng import seeded_stream


class OracleCacheStats(CacheStats):
    """The per-access counting rule of the old simulator.

    Kept here rather than in ``repro.cachesim.stats`` so an edit to the
    production counters cannot also change the reference they are checked
    against.
    """

    def record_access(self, owner: int, hit: bool) -> None:
        self.total.accesses += 1
        self.by_owner[owner].accesses += 1
        if hit:
            self.total.hits += 1
            self.by_owner[owner].hits += 1
        else:
            self.total.misses += 1
            self.by_owner[owner].misses += 1

    def record_eviction(self, victim_owner: int, cause_owner: int) -> None:
        self.total.evictions_suffered += 1
        self.by_owner[victim_owner].evictions_suffered += 1
        self.by_owner[cause_owner].evictions_caused += 1


class SetState:
    """Replacement metadata for one cache set.

    ``recency`` lists way indices from MRU (front) to LRU (back); only the
    ways that currently hold a valid line appear in it.  ``extra`` is a
    per-way scratch list for policies that need more than recency (e.g.
    protecting distances).
    """

    __slots__ = ("recency", "extra")

    def __init__(self, associativity: int) -> None:
        self.recency: List[int] = []
        self.extra: List[int] = [0] * associativity


class ReplacementPolicy(ABC):
    """Interface implemented by every replacement policy."""

    name: str = "abstract"

    @abstractmethod
    def on_hit(self, state: SetState, way: int) -> None:
        """Update metadata after a hit on ``way``."""

    @abstractmethod
    def on_fill(self, state: SetState, way: int) -> None:
        """Update metadata after filling ``way`` with a new line."""

    @abstractmethod
    def victim(self, state: SetState, associativity: int) -> int:
        """Pick the way to evict from a full set."""

    def make_set_state(self, associativity: int) -> SetState:
        """Create fresh per-set metadata."""
        return SetState(associativity)


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement."""

    name = "lru"

    def on_hit(self, state: SetState, way: int) -> None:
        state.recency.remove(way)
        state.recency.insert(0, way)

    def on_fill(self, state: SetState, way: int) -> None:
        if way in state.recency:
            state.recency.remove(way)
        state.recency.insert(0, way)

    def victim(self, state: SetState, associativity: int) -> int:
        return state.recency[-1]


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded, reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0, rng: Optional[random.Random] = None) -> None:
        # Nameless stream is deliberate: the golden sha256 pins derive from
        # the seed-global stream; naming it now would reseed every golden.
        self._rng = rng if rng is not None else seeded_stream(seed)  # kyotolint: disable=S002

    def on_hit(self, state: SetState, way: int) -> None:
        # Random replacement keeps no recency order beyond occupancy.
        pass

    def on_fill(self, state: SetState, way: int) -> None:
        if way not in state.recency:
            state.recency.append(way)

    def victim(self, state: SetState, associativity: int) -> int:
        return self._rng.choice(state.recency)


class BipPolicy(ReplacementPolicy):
    """Bimodal insertion policy (Qureshi et al., ISCA 2007).

    Evicts LRU like plain LRU, but inserts new lines at the *LRU* position
    except with small probability ``epsilon``, which protects the cache
    from thrashing/streaming workloads: a line only migrates toward MRU if
    it is actually reused.
    """

    name = "bip"

    def __init__(
        self,
        epsilon: float = 1 / 32,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
        self.epsilon = epsilon
        # Nameless stream is deliberate: golden-pinned, see RandomPolicy.
        self._rng = rng if rng is not None else seeded_stream(seed)  # kyotolint: disable=S002

    def on_hit(self, state: SetState, way: int) -> None:
        state.recency.remove(way)
        state.recency.insert(0, way)

    def on_fill(self, state: SetState, way: int) -> None:
        if way in state.recency:
            state.recency.remove(way)
        if self._rng.random() < self.epsilon:
            state.recency.insert(0, way)  # rare MRU insertion
        else:
            state.recency.append(way)  # common LRU insertion

    def victim(self, state: SetState, associativity: int) -> int:
        return state.recency[-1]


class DipPolicy(ReplacementPolicy):
    """Dynamic insertion policy: set-dueling between LRU and BIP.

    A handful of *leader sets* always use LRU, another handful always use
    BIP; a saturating counter (PSEL) tracks which leader group misses less
    and all *follower sets* adopt the winner.  This is the mechanism of
    refs [17, 19] in the paper.

    The cache simulator calls :meth:`assign_set_roles` once it knows the
    number of sets, then routes each set's operations here with the set
    index recorded in the state.
    """

    name = "dip"

    LEADER_LRU = 1
    LEADER_BIP = 2
    FOLLOWER = 0

    def __init__(
        self,
        epsilon: float = 1 / 32,
        psel_bits: int = 10,
        leaders_per_kind: int = 32,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._lru = LruPolicy()
        self._bip = BipPolicy(epsilon=epsilon, seed=seed, rng=rng)
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2
        self._leaders_per_kind = leaders_per_kind
        self._roles: List[int] = []

    def assign_set_roles(self, num_sets: int) -> None:
        """Statically pick leader sets (evenly spread) among ``num_sets``."""
        self._roles = [self.FOLLOWER] * num_sets
        if num_sets < 2 * self._leaders_per_kind:
            leaders = max(1, num_sets // 4)
        else:
            leaders = self._leaders_per_kind
        stride = max(1, num_sets // (2 * leaders))
        for i in range(leaders):
            lru_set = (2 * i) * stride % num_sets
            bip_set = (2 * i + 1) * stride % num_sets
            self._roles[lru_set] = self.LEADER_LRU
            self._roles[bip_set] = self.LEADER_BIP

    def _active_for(self, set_index: int) -> ReplacementPolicy:
        role = self._roles[set_index] if self._roles else self.FOLLOWER
        if role == self.LEADER_LRU:
            return self._lru
        if role == self.LEADER_BIP:
            return self._bip
        # Followers use the currently winning policy: PSEL above midpoint
        # means LRU leaders missed more, so BIP wins.
        midpoint = (self._psel_max + 1) // 2
        return self._bip if self._psel >= midpoint else self._lru

    def record_miss(self, set_index: int) -> None:
        """Called by the cache on every miss, drives the PSEL counter."""
        if not self._roles:
            return
        role = self._roles[set_index]
        if role == self.LEADER_LRU:
            self._psel = min(self._psel_max, self._psel + 1)
        elif role == self.LEADER_BIP:
            self._psel = max(0, self._psel - 1)

    # The cache stores the set index in state.extra[0] slot via subclass
    # hooks; simpler: DIP exposes per-set wrappers below.

    def on_hit_set(self, state: SetState, way: int, set_index: int) -> None:
        self._active_for(set_index).on_hit(state, way)

    def on_fill_set(self, state: SetState, way: int, set_index: int) -> None:
        self._active_for(set_index).on_fill(state, way)

    def victim_set(self, state: SetState, associativity: int, set_index: int) -> int:
        return self._active_for(set_index).victim(state, associativity)

    # ReplacementPolicy interface (used when no set index is available).
    def on_hit(self, state: SetState, way: int) -> None:
        self.on_hit_set(state, way, 0)

    def on_fill(self, state: SetState, way: int) -> None:
        self.on_fill_set(state, way, 0)

    def victim(self, state: SetState, associativity: int) -> int:
        return self.victim_set(state, associativity, 0)


class ProtectingDistancePolicy(ReplacementPolicy):
    """Simplified protecting-distance policy (PDP, Duong et al. MICRO'12).

    Each line gets a *protecting distance* counter on fill/hit; the counter
    decays on every access to the set.  Lines whose counter reached zero
    are preferred victims; protected lines are only evicted when no
    unprotected line exists.
    """

    name = "pdp"

    def __init__(self, protecting_distance: int = 16) -> None:
        if protecting_distance <= 0:
            raise ValueError(
                f"protecting distance must be positive, got {protecting_distance}"
            )
        self.protecting_distance = protecting_distance

    def _decay(self, state: SetState) -> None:
        for way in state.recency:
            if state.extra[way] > 0:
                state.extra[way] -= 1

    def on_hit(self, state: SetState, way: int) -> None:
        self._decay(state)
        state.extra[way] = self.protecting_distance
        state.recency.remove(way)
        state.recency.insert(0, way)

    def on_fill(self, state: SetState, way: int) -> None:
        self._decay(state)
        state.extra[way] = self.protecting_distance
        if way in state.recency:
            state.recency.remove(way)
        state.recency.insert(0, way)

    def victim(self, state: SetState, associativity: int) -> int:
        unprotected = [way for way in state.recency if state.extra[way] == 0]
        if unprotected:
            return unprotected[-1]
        return state.recency[-1]


_POLICY_FACTORIES = {
    "lru": LruPolicy,
    "random": RandomPolicy,
    "bip": BipPolicy,
    "dip": DipPolicy,
    "pdp": ProtectingDistancePolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Supported names: ``lru``, ``random``, ``bip``, ``dip``, ``pdp``.
    """
    try:
        factory = _POLICY_FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy '{name}'; "
            f"choose from {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory(**kwargs)


#: Owner id used for lines whose owner is unknown/irrelevant.
NO_OWNER = -1


@dataclass
class CacheLine:
    """One cache line: its tag and the owner that brought it in."""

    tag: int
    owner: int


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
        # ways[s][w] is the CacheLine in way w of set s, or None.
        self._ways: List[List[Optional[CacheLine]]] = [
            [None] * self.assoc for _ in range(self.num_sets)
        ]
        self._states: List[SetState] = [
            self.policy.make_set_state(self.assoc) for _ in range(self.num_sets)
        ]
        self.stats = OracleCacheStats()
        if isinstance(self.policy, DipPolicy):
            self.policy.assign_set_roles(self.num_sets)

    # -- address mapping ---------------------------------------------------

    def index_of(self, address: int) -> Tuple[int, int]:
        """Map a byte address to ``(set_index, tag)``."""
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    # -- lookup / access ---------------------------------------------------

    def probe(self, address: int) -> bool:
        """Check residency without touching stats or recency state."""
        set_index, tag = self.index_of(address)
        return any(
            line is not None and line.tag == tag
            for line in self._ways[set_index]
        )

    def access(self, address: int, owner: int = NO_OWNER) -> AccessResult:
        """Perform one access; fill on miss; return hit/eviction info."""
        set_index, tag = self.index_of(address)
        ways = self._ways[set_index]
        state = self._states[set_index]

        for way, line in enumerate(ways):
            if line is not None and line.tag == tag:
                self._policy_on_hit(state, way, set_index)
                self.stats.record_access(owner, hit=True)
                return AccessResult(hit=True, set_index=set_index)

        # Miss: find a free way or evict.
        self.stats.record_access(owner, hit=False)
        self._policy_record_miss(set_index)
        evicted_tag: Optional[int] = None
        evicted_owner = NO_OWNER
        fill_way = next((w for w, line in enumerate(ways) if line is None), None)
        if fill_way is None:
            fill_way = self._policy_victim(state, set_index)
            victim = ways[fill_way]
            assert victim is not None
            evicted_tag = victim.tag
            evicted_owner = victim.owner
            state.recency.remove(fill_way)
            self.stats.record_eviction(victim_owner=victim.owner, cause_owner=owner)
        ways[fill_way] = CacheLine(tag=tag, owner=owner)
        self._policy_on_fill(state, fill_way, set_index)
        return AccessResult(
            hit=False,
            set_index=set_index,
            evicted_tag=evicted_tag,
            evicted_owner=evicted_owner,
        )

    # -- owner queries -----------------------------------------------------

    def occupancy_of(self, owner: int) -> int:
        """Number of lines currently owned by ``owner``."""
        return sum(
            1
            for ways in self._ways
            for line in ways
            if line is not None and line.owner == owner
        )

    def occupancy_by_owner(self) -> Dict[int, int]:
        """Mapping owner -> resident line count."""
        counts: Dict[int, int] = {}
        for ways in self._ways:
            for line in ways:
                if line is not None:
                    counts[line.owner] = counts.get(line.owner, 0) + 1
        return counts

    def resident_lines(self) -> int:
        """Total number of valid lines."""
        return sum(
            1 for ways in self._ways for line in ways if line is not None
        )

    def flush(self) -> None:
        """Invalidate every line (stats are preserved)."""
        self._ways = [[None] * self.assoc for _ in range(self.num_sets)]
        self._states = [
            self.policy.make_set_state(self.assoc) for _ in range(self.num_sets)
        ]

    def flush_owner(self, owner: int) -> int:
        """Invalidate all lines of one owner; returns how many were dropped."""
        dropped = 0
        for set_index, ways in enumerate(self._ways):
            state = self._states[set_index]
            for way, line in enumerate(ways):
                if line is not None and line.owner == owner:
                    ways[way] = None
                    if way in state.recency:
                        state.recency.remove(way)
                    dropped += 1
        return dropped

    # -- policy dispatch (DIP needs the set index) --------------------------

    def _policy_on_hit(self, state: SetState, way: int, set_index: int) -> None:
        if isinstance(self.policy, DipPolicy):
            self.policy.on_hit_set(state, way, set_index)
        else:
            self.policy.on_hit(state, way)

    def _policy_on_fill(self, state: SetState, way: int, set_index: int) -> None:
        if isinstance(self.policy, DipPolicy):
            self.policy.on_fill_set(state, way, set_index)
        else:
            self.policy.on_fill(state, way)

    def _policy_victim(self, state: SetState, set_index: int) -> int:
        if isinstance(self.policy, DipPolicy):
            return self.policy.victim_set(state, self.assoc, set_index)
        return self.policy.victim(state, self.assoc)

    def _policy_record_miss(self, set_index: int) -> None:
        if isinstance(self.policy, DipPolicy):
            self.policy.record_miss(set_index)


class OracleHierarchy:
    """The per-access L1 → L2 → LLC → memory walk of the old
    ``CacheHierarchy.access``, with levels named by string."""

    def __init__(
        self,
        socket_spec: SocketSpec,
        latency: LatencyModel,
        llc: SetAssociativeCache,
    ) -> None:
        self.latency = latency
        self.l1 = SetAssociativeCache(socket_spec.l1d)
        self.l2 = SetAssociativeCache(socket_spec.l2)
        self.llc = llc
        self.level_counts: Dict[str, int] = {
            "L1": 0, "L2": 0, "LLC": 0, "MEMORY": 0,
        }

    def access(
        self, address: int, owner: int = NO_OWNER, remote_memory: bool = False
    ) -> Tuple[str, int]:
        """``(level, cycles)`` of one load, filling every level."""
        if self.l1.access(address, owner).hit:
            level, cycles = "L1", self.latency.l1_cycles
        elif self.l2.access(address, owner).hit:
            level, cycles = "L2", self.latency.l2_cycles
        elif self.llc.access(address, owner).hit:
            level, cycles = "LLC", self.latency.llc_cycles
        else:
            level = "MEMORY"
            cycles = self.latency.memory_cycles_for(remote_memory)
        self.level_counts[level] += 1
        return level, cycles


def oracle_replay(
    records,
    socket_spec: SocketSpec,
    latency: LatencyModel,
    llc_policy: str = "lru",
    base_cpi: float = 0.8,
    warmup_fraction: float = 0.5,
) -> ReplayReport:
    """The old ``McSimReplayer.replay`` loop: one hierarchy access per
    address, cycles accumulated per access."""
    records = list(records)
    hierarchy = OracleHierarchy(
        socket_spec,
        latency,
        SetAssociativeCache(socket_spec.llc, make_policy(llc_policy)),
    )
    warmup_count = int(len(records) * warmup_fraction)
    instructions = 0
    cycles = 0.0
    llc_accesses = 0
    llc_misses = 0
    for index, record in enumerate(records):
        measuring = index >= warmup_count
        record_cycles = record.instructions * base_cpi
        for address in record.addresses:
            level, access_cycles = hierarchy.access(address)
            record_cycles += access_cycles
            if measuring and level in ("LLC", "MEMORY"):
                llc_accesses += 1
                if level == "MEMORY":
                    llc_misses += 1
        if measuring:
            instructions += record.instructions
            cycles += record_cycles
    return ReplayReport(
        instructions=instructions,
        cycles=cycles,
        llc_accesses=llc_accesses,
        llc_misses=llc_misses,
    )


def oracle_co_run(
    captures,
    socket_spec: SocketSpec,
    latency: LatencyModel,
    llc_policy: str = "lru",
    base_cpi: float = 0.8,
    warmup_fraction: float = 0.5,
) -> Dict[str, CoRunReport]:
    """The old ``MultiCoreReplayer.co_run`` loop: round-robin records,
    one hierarchy access per address, through one shared LLC."""
    llc = SetAssociativeCache(socket_spec.llc, make_policy(llc_policy))
    hierarchies = {
        name: OracleHierarchy(socket_spec, latency, llc) for name in captures
    }
    owner_ids = {name: index for index, name in enumerate(captures)}
    reports = {name: CoRunReport(name=name) for name in captures}
    cursors = {name: 0 for name in captures}
    warmup_counts = {
        name: int(len(records) * warmup_fraction)
        for name, records in captures.items()
    }
    progressed = True
    while progressed:
        progressed = False
        for name, records in captures.items():
            cursor = cursors[name]
            if cursor >= len(records):
                continue
            progressed = True
            record = records[cursor]
            cursors[name] = cursor + 1
            measuring = cursor >= warmup_counts[name]
            report = reports[name]
            record_cycles = record.instructions * base_cpi
            for address in record.addresses:
                level, access_cycles = hierarchies[name].access(
                    address, owner=owner_ids[name]
                )
                record_cycles += access_cycles
                if measuring and level in ("LLC", "MEMORY"):
                    report.llc_accesses += 1
                    if level == "MEMORY":
                        report.llc_misses += 1
            if measuring:
                report.instructions += record.instructions
                report.cycles += record_cycles
    for name, report in reports.items():
        report.llc_occupancy_lines = llc.occupancy_of(owner_ids[name])
    return reports

"""Cache replacement policies.

The paper's related-work section discusses LRU, bimodal insertion (BIP),
dynamic insertion (DIP, set-dueling between LRU and BIP) and protecting
distances (PDP).  We implement all of them behind one interface so that
the set-associative simulator (:mod:`repro.cachesim.setassoc`) can be used
both as the McSimA+-style replay substrate and for ablation studies of how
the choice of policy changes contention.

A policy manages *per-set* recency state.  Way indices are positions in
the set's way array; the cache calls :meth:`on_hit`, :meth:`on_fill` and
:meth:`victim`, always with the index of the set involved, so set-dueling
policies (DIP) need no special treatment from the cache.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional

from repro.simulation.rng import seeded_stream


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
    """Interface implemented by every replacement policy.

    The cache calls :meth:`assign_set_roles` once at construction, then
    per access :meth:`on_hit`, or :meth:`record_miss` followed (when the
    set is full) by :meth:`victim` and then :meth:`on_fill`.  Before
    :meth:`on_fill` the cache has already dropped an evicted or flushed
    way from ``state.recency``, so a filled way is never in it.
    """

    name: str = "abstract"

    @abstractmethod
    def on_hit(self, state: SetState, way: int, set_index: int) -> None:
        """Update metadata after a hit on ``way`` of set ``set_index``."""

    @abstractmethod
    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        """Update metadata after filling the empty ``way`` with a new line."""

    @abstractmethod
    def victim(self, state: SetState, associativity: int, set_index: int) -> int:
        """Pick the way to evict from the full set ``set_index``."""

    def record_miss(self, set_index: int) -> None:
        """Called by the cache on every miss (before any eviction)."""

    def assign_set_roles(self, num_sets: int) -> None:
        """Called once by the cache with its number of sets."""

    def make_set_state(self, associativity: int) -> SetState:
        """Create fresh per-set metadata."""
        return SetState(associativity)


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement."""

    name = "lru"

    def on_hit(self, state: SetState, way: int, set_index: int) -> None:
        recency = state.recency
        if recency[0] != way:
            recency.remove(way)
            recency.insert(0, way)

    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        state.recency.insert(0, way)

    def victim(self, state: SetState, associativity: int, set_index: int) -> int:
        return state.recency[-1]


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded, reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0, rng: Optional[random.Random] = None) -> None:
        # Nameless stream is deliberate: the golden sha256 pins derive from
        # the seed-global stream; naming it now would reseed every golden.
        self._rng = rng if rng is not None else seeded_stream(seed)  # kyotolint: disable=S002

    def on_hit(self, state: SetState, way: int, set_index: int) -> None:
        # Random replacement keeps no recency order beyond occupancy.
        pass

    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        state.recency.append(way)

    def victim(self, state: SetState, associativity: int, set_index: int) -> int:
        return self._rng.choice(state.recency)


class BipPolicy(LruPolicy):
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

    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        if self._rng.random() < self.epsilon:
            state.recency.insert(0, way)  # rare MRU insertion
        else:
            state.recency.append(way)  # common LRU insertion


class DipPolicy(ReplacementPolicy):
    """Dynamic insertion policy: set-dueling between LRU and BIP.

    A handful of *leader sets* always use LRU, another handful always use
    BIP; a saturating counter (PSEL) tracks which leader group misses less
    and all *follower sets* adopt the winner.  This is the mechanism of
    refs [17, 19] in the paper.

    The cache calls :meth:`assign_set_roles` once it knows the number of
    sets; every later call carries the set index, which picks the
    delegate policy.
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
        # PSEL at or above the midpoint means LRU leaders missed more.
        self._psel_midpoint = (self._psel_max + 1) // 2
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
        role = self._roles[set_index]
        if role == self.LEADER_LRU:
            return self._lru
        if role == self.LEADER_BIP:
            return self._bip
        # Followers use the currently winning policy.
        return self._bip if self._psel >= self._psel_midpoint else self._lru

    def record_miss(self, set_index: int) -> None:
        """Leader-set misses drive the PSEL counter."""
        role = self._roles[set_index]
        if role == self.LEADER_LRU:
            self._psel = min(self._psel_max, self._psel + 1)
        elif role == self.LEADER_BIP:
            self._psel = max(0, self._psel - 1)

    def on_hit(self, state: SetState, way: int, set_index: int) -> None:
        self._active_for(set_index).on_hit(state, way, set_index)

    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        self._active_for(set_index).on_fill(state, way, set_index)

    def victim(self, state: SetState, associativity: int, set_index: int) -> int:
        return self._active_for(set_index).victim(state, associativity, set_index)


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
        extra = state.extra
        for way in state.recency:
            if extra[way] > 0:
                extra[way] -= 1

    def on_hit(self, state: SetState, way: int, set_index: int) -> None:
        self._decay(state)
        state.extra[way] = self.protecting_distance
        state.recency.remove(way)
        state.recency.insert(0, way)

    def on_fill(self, state: SetState, way: int, set_index: int) -> None:
        self._decay(state)
        state.extra[way] = self.protecting_distance
        state.recency.insert(0, way)

    def victim(self, state: SetState, associativity: int, set_index: int) -> int:
        # The least recent unprotected line, else the least recent line.
        extra = state.extra
        for way in reversed(state.recency):
            if extra[way] == 0:
                return way
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

"""Hardware performance-monitoring counters (PMCs).

Models the per-core counters Kyoto reads: ``LLC_MISSES``,
``UNHALTED_CORE_CYCLES`` and ``INSTRUCTIONS_RETIRED``.  Real counters are
fixed-width MSRs that wrap; we model 48-bit counters (the common width on
Intel parts) so that overflow handling — something perfctr-xen has to deal
with — can be exercised by tests.

Every bank, snapshot and sample shares one fixed slot order,
:data:`EVENTS` (``tuple(PmcEvent)``): a bank snapshot is a plain int
tuple and a sample is a :class:`PmcSample` record, so the monitoring path
indexes counters by position instead of hashing enum members.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Dict, NamedTuple, Tuple


class PmcEvent(Enum):
    """Counter events used by the Kyoto monitoring system."""

    LLC_MISSES = "llc_misses"
    UNHALTED_CORE_CYCLES = "unhalted_core_cycles"
    INSTRUCTIONS_RETIRED = "instructions_retired"
    LLC_REFERENCES = "llc_references"


#: The slot order of every bank, snapshot and :class:`PmcSample`.
EVENTS: Tuple[PmcEvent, ...] = tuple(PmcEvent)
#: Slot index of each event in :data:`EVENTS`.
SLOT: Dict[PmcEvent, int] = {event: slot for slot, event in enumerate(EVENTS)}


class PmcSample(NamedTuple):
    """Per-event counts in slot order; field names are the event values."""

    llc_misses: int
    unhalted_core_cycles: int
    instructions_retired: int
    llc_references: int


#: Width of the modelled counters, in bits (Intel architectural PMCs).
COUNTER_BITS = 48
COUNTER_MASK = (1 << COUNTER_BITS) - 1

#: A bank snapshot: raw counter values in slot order.
Snapshot = Tuple[int, ...]


@dataclass
class HardwareCounter:
    """One wrapping hardware counter."""

    event: PmcEvent
    raw: int = 0

    def add(self, amount: int) -> None:
        """Increment the counter, wrapping at 2**48.

        Contract relied on by the batched tick engine: integer addition
        modulo ``2**48`` is associative, so ``add(a); add(b)`` and
        ``add(a + b)`` leave the same raw value.  Per-sub-step deltas may
        therefore be coalesced into one flush — but only between reads:
        any code that can observe ``raw`` mid-batch (a context switch
        virtualising the bank, a sampling window) must be preceded by a
        flush of the pending deltas.
        """
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.raw = (self.raw + amount) & COUNTER_MASK

    def read(self) -> int:
        """Current raw value."""
        return self.raw

    def write(self, value: int) -> None:
        """Set the raw value (privileged operation, used on restore)."""
        self.raw = value & COUNTER_MASK


def delta(prev_raw: int, cur_raw: int) -> int:
    """Events counted between two raw readings, wrap-aware.

    ``prev_raw`` is the earlier reading, ``cur_raw`` the later one — the
    order the sampling loop produces them.  A single wrap between the two
    samples is handled correctly; more than one wrap is indistinguishable
    from fewer events (as on real hardware).  Wrap handling lives here and
    only here; callers must never subtract raw readings directly (bank
    snapshots are differenced slot by slot with ``map(delta, prev, cur)``).
    """
    return (cur_raw - prev_raw) & COUNTER_MASK


_raw = attrgetter("raw")


class CoreCounters:
    """The PMC bank of one physical core."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        #: The bank's counters in slot order (:data:`EVENTS`).
        self._slots: Tuple[HardwareCounter, ...] = tuple(
            HardwareCounter(event) for event in EVENTS
        )

    def add(self, event: PmcEvent, amount: int) -> None:
        """Count ``amount`` occurrences of ``event`` on this core."""
        self._slots[SLOT[event]].add(amount)

    def counter(self, event: PmcEvent) -> HardwareCounter:
        """The live counter object for ``event``.

        Counter objects are created once per bank and mutated in place
        (``write`` included), so hot paths may hold the reference and
        call :meth:`HardwareCounter.add` directly.
        """
        return self._slots[SLOT[event]]

    def read(self, event: PmcEvent) -> int:
        """Raw value of ``event``'s counter."""
        return self._slots[SLOT[event]].raw

    def write(self, event: PmcEvent, value: int) -> None:
        """Overwrite ``event``'s counter (context-switch restore)."""
        self._slots[SLOT[event]].write(value)

    def snapshot(self) -> Snapshot:
        """All raw counter values, in slot order."""
        return tuple(map(_raw, self._slots))

"""McSimA+-style micro-architectural replay.

Replays a captured trace through a faithful cache hierarchy configured to
"reflect a specific hardware" (Section 3.3) — here the machine spec of
Table 1 — and returns the PMC values the simulated hardware would report:
instructions, cycles, LLC accesses and misses.  From those, KS4Xen can
compute ``llc_cap_act`` without touching the production machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.replacement import make_policy
from repro.cachesim.setassoc import NO_OWNER, SetAssociativeCache
from repro.hardware.specs import MachineSpec, paper_machine

from .pin import TraceRecord


@dataclass(frozen=True)
class ReplayReport:
    """PMCs produced by one replay run (immutable: the replay service
    shares one report between every VM with the same behaviour)."""

    instructions: int
    cycles: float
    llc_accesses: int
    llc_misses: int

    @property
    def miss_ratio(self) -> float:
        """LLC misses / LLC accesses (0.0 when there were no accesses)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.llc_misses / self.llc_accesses

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misses_per_kinst(self) -> float:
        """LLC misses per kilo-instruction (0.0 with no instructions)."""
        if self.instructions == 0:
            return 0.0
        return self.llc_misses * 1000.0 / self.instructions


class McSimReplayer:
    """Replays traces through a configurable simulated hierarchy."""

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        llc_policy: str = "lru",
        base_cpi: float = 0.8,
        warmup_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0,1), got {warmup_fraction}"
            )
        self.spec = machine_spec if machine_spec is not None else paper_machine()
        self.llc_policy = llc_policy
        self.base_cpi = base_cpi
        self.warmup_fraction = warmup_fraction

    def replay(self, records: Iterable[TraceRecord]) -> ReplayReport:
        """Replay a capture and report the PMCs of the measured portion.

        The first ``warmup_fraction`` of the records only warms the
        simulated caches (their events are not counted), mimicking how a
        sampling simulator discards cold-start transients.
        """
        records = list(records)
        socket = self.spec.sockets[0]
        hierarchy = CacheHierarchy(
            socket,
            self.spec.latency,
            llc=SetAssociativeCache(socket.llc, make_policy(self.llc_policy)),
        )
        warmup_count = int(len(records) * self.warmup_fraction)

        instructions = 0
        cycles = 0.0
        llc_accesses = 0
        llc_misses = 0
        for index, record in enumerate(records):
            record_cycles, accesses, misses = hierarchy.replay_block(
                record.addresses, NO_OWNER, record.instructions * self.base_cpi
            )
            if index >= warmup_count:
                instructions += record.instructions
                cycles += record_cycles
                llc_accesses += accesses
                llc_misses += misses
        return ReplayReport(
            instructions=instructions,
            cycles=cycles,
            llc_accesses=llc_accesses,
            llc_misses=llc_misses,
        )

"""perfctr-xen-style counter virtualisation.

The physical PMCs of a core count whatever runs there; to attribute events
to a *vCPU*, the hypervisor must sample the counters at every context
switch and accumulate the deltas into per-vCPU accounts.  That is what
perfctr-xen [18] does and what KS4Xen builds upon; this module reproduces
the mechanism, including wrap-aware deltas.

Usage from the hypervisor::

    virt = PerfctrVirtualizer(core_counters_by_id)
    virt.context_switch_in(vcpu_id, core_id)      # remember baseline
    ... core counters advance while the vCPU runs ...
    virt.context_switch_out(vcpu_id)              # bank the deltas

``account(vcpu_id)`` then exposes cumulative per-vCPU counts, and
``sample(vcpu_id)`` returns deltas since the previous sample — exactly the
quantities equation 1 needs — as one slot-ordered
:class:`~repro.pmc.counters.PmcSample` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import Dict, List, Tuple

from .counters import (
    EVENTS,
    SLOT,
    CoreCounters,
    PmcEvent,
    PmcSample,
    Snapshot,
    delta,
)


@dataclass
class VcpuPmcAccount:
    """Cumulative virtualised counters of one vCPU, in slot order."""

    vcpu_id: int
    totals: List[int] = field(default_factory=lambda: [0] * len(EVENTS))
    #: ``totals`` at the previous monitoring sample.
    last_sample: Snapshot = (0,) * len(EVENTS)

    def read(self, event: PmcEvent) -> int:
        return self.totals[SLOT[event]]


class PerfctrError(Exception):
    """Raised on context-switch protocol violations."""


class PerfctrVirtualizer:
    """Per-vCPU virtualisation of per-core hardware counters."""

    def __init__(self, core_counters: Dict[int, CoreCounters]) -> None:
        self._cores = core_counters
        self._accounts: Dict[int, VcpuPmcAccount] = {}
        # vcpu_id -> (bank it runs on, bank snapshot at the last banking)
        self._active: Dict[int, Tuple[CoreCounters, Snapshot]] = {}

    def account(self, vcpu_id: int) -> VcpuPmcAccount:
        """The cumulative account of ``vcpu_id`` (created on first use)."""
        account = self._accounts.get(vcpu_id)
        if account is None:
            account = self._accounts[vcpu_id] = VcpuPmcAccount(vcpu_id)
        return account

    def retire_account(self, vcpu_id: int) -> None:
        """Drop a retired vCPU's cumulative account.

        The vCPU must already be switched out (the hypervisor deschedules
        it before retiring): retiring a still-active vCPU would silently
        lose its un-banked deltas.
        """
        if vcpu_id in self._active:
            raise PerfctrError(
                f"vCPU {vcpu_id} is still switched in; deschedule it "
                f"before retiring its account"
            )
        self._accounts.pop(vcpu_id, None)

    def context_switch_in(self, vcpu_id: int, core_id: int) -> None:
        """Record counter baselines when ``vcpu_id`` starts on ``core_id``."""
        if vcpu_id in self._active:
            raise PerfctrError(
                f"vCPU {vcpu_id} switched in twice without switching out"
            )
        bank = self._cores[core_id]
        self._active[vcpu_id] = (bank, bank.snapshot())

    def context_switch_out(self, vcpu_id: int) -> PmcSample:
        """Bank counter deltas when ``vcpu_id`` leaves its core."""
        try:
            bank, baseline = self._active.pop(vcpu_id)
        except KeyError:
            raise PerfctrError(
                f"vCPU {vcpu_id} switched out but was never switched in"
            ) from None
        deltas = PmcSample._make(map(delta, baseline, bank.snapshot()))
        totals = self.account(vcpu_id).totals
        totals[:] = map(add, totals, deltas)
        return deltas

    def is_running(self, vcpu_id: int) -> bool:
        """True if the vCPU is currently switched in."""
        return vcpu_id in self._active

    def flush_running(self, vcpu_id: int) -> None:
        """Bank deltas for a running vCPU without switching it out.

        Same totals as an out+in pair, done in place: the bank snapshot
        that closes the banked window is the new window's baseline.  Used
        by the periodic monitor so it can sample a vCPU mid-quantum.
        """
        active = self._active.get(vcpu_id)
        if active is None:
            return
        bank, baseline = active
        current = bank.snapshot()
        totals = self.account(vcpu_id).totals
        totals[:] = map(add, totals, map(delta, baseline, current))
        self._active[vcpu_id] = (bank, current)

    def sample(self, vcpu_id: int) -> PmcSample:
        """Deltas of the cumulative account since the previous sample.

        This is the monitoring primitive: KS4Xen calls it once per
        monitoring period and feeds ``llc_misses`` and
        ``unhalted_core_cycles`` into equation 1.
        """
        self.flush_running(vcpu_id)
        account = self.account(vcpu_id)
        totals = account.totals
        deltas = PmcSample._make(map(sub, totals, account.last_sample))
        account.last_sample = tuple(totals)
        return deltas

"""Test-only oracle: perfctr virtualisation with event-keyed dicts.

A verbatim copy of ``PerfctrVirtualizer`` before the slot-indexed
rewrite: per-vCPU totals and sample baselines are ``{PmcEvent: int}``
dicts, every bank read is a dict comprehension over ``PmcEvent``, and
``flush_running`` is a switch-out/switch-in round trip.  Property tests
drive it and the production virtualizer (``repro.pmc.perfctr``) through
the same random protocol and check that totals, sample deltas and
protocol errors stay identical.
Nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.pmc.counters import COUNTER_MASK, CoreCounters, PmcEvent
from repro.pmc.perfctr import PerfctrError


def delta(prev_raw: int, cur_raw: int) -> int:
    """The wrap-aware delta, copied so a broken production one shows."""
    return (cur_raw - prev_raw) & COUNTER_MASK


def read_all(bank: CoreCounters) -> Dict[PmcEvent, int]:
    """Snapshot all counters of a bank (the old ``CoreCounters.read_all``)."""
    return {event: bank.read(event) for event in PmcEvent}


@dataclass
class OracleVcpuPmcAccount:
    """Cumulative virtualised counters of one vCPU."""

    vcpu_id: int
    totals: Dict[PmcEvent, int] = field(
        default_factory=lambda: {event: 0 for event in PmcEvent}
    )
    #: Values of ``totals`` at the previous monitoring sample.
    last_sample: Dict[PmcEvent, int] = field(
        default_factory=lambda: {event: 0 for event in PmcEvent}
    )

    def read(self, event: PmcEvent) -> int:
        return self.totals[event]


class OraclePerfctrVirtualizer:
    """Per-vCPU virtualisation of per-core hardware counters."""

    def __init__(self, core_counters: Dict[int, CoreCounters]) -> None:
        self._cores = core_counters
        self._accounts: Dict[int, OracleVcpuPmcAccount] = {}
        # vcpu_id -> (core_id, {event: baseline_raw})
        self._active: Dict[int, tuple] = {}

    def account(self, vcpu_id: int) -> OracleVcpuPmcAccount:
        """The cumulative account of ``vcpu_id`` (created on first use)."""
        if vcpu_id not in self._accounts:
            self._accounts[vcpu_id] = OracleVcpuPmcAccount(vcpu_id)
        return self._accounts[vcpu_id]

    def retire_account(self, vcpu_id: int) -> None:
        """Drop a retired vCPU's cumulative account."""
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
        baselines = read_all(self._cores[core_id])
        self._active[vcpu_id] = (core_id, baselines)

    def context_switch_out(self, vcpu_id: int) -> Dict[PmcEvent, int]:
        """Bank counter deltas when ``vcpu_id`` leaves its core."""
        try:
            core_id, baselines = self._active.pop(vcpu_id)
        except KeyError:
            raise PerfctrError(
                f"vCPU {vcpu_id} switched out but was never switched in"
            ) from None
        current = read_all(self._cores[core_id])
        account = self.account(vcpu_id)
        deltas: Dict[PmcEvent, int] = {}
        for event in PmcEvent:
            d = delta(baselines[event], current[event])
            deltas[event] = d
            account.totals[event] += d
        return deltas

    def is_running(self, vcpu_id: int) -> bool:
        """True if the vCPU is currently switched in."""
        return vcpu_id in self._active

    def flush_running(self, vcpu_id: int) -> None:
        """Bank deltas for a running vCPU without switching it out."""
        if vcpu_id not in self._active:
            return
        core_id, __ = self._active[vcpu_id]
        self.context_switch_out(vcpu_id)
        self.context_switch_in(vcpu_id, core_id)

    def sample(self, vcpu_id: int) -> Dict[PmcEvent, int]:
        """Deltas of the cumulative account since the previous sample."""
        self.flush_running(vcpu_id)
        account = self.account(vcpu_id)
        deltas = {
            event: account.totals[event] - account.last_sample[event]
            for event in PmcEvent
        }
        account.last_sample = dict(account.totals)
        return deltas

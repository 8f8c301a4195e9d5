"""The replay service: McSimA+ on a "dedicated machine".

Section 3.3's protocol:

1. KS4Xen asks the simulator to start the pin tool for a sampling period,
2. the simulator replays instructions and sends PMCs back to KS4Xen,
3. KS4Xen computes llc_cap_act from the collected PMCs.

:class:`ReplayService` models that dedicated side machine: it owns a pin
tool and a replayer, caches reports per VM (a sampling period is about a
billion cycles, so reports are reused between refreshes), and keeps
simple request accounting so the zero-overhead claim — all replay cost is
off the production machine — can be audited in tests.

Below the per-VM refresh logic sits an exact replay memo.  A replay is a
pure function of the workload's :class:`~repro.cachesim.perfmodel.
CacheBehavior`, the capture config and the replayer parameters: the
trace generator reseeds on every capture and the replayer builds a
fresh, seeded replacement policy for every replay.  The last two are
fixed for the service's lifetime, so a refresh for a behaviour already
replayed — another VM running the same application, or the same VM
after its report expired — returns the memoized (immutable) report,
bit-identical to what a fresh capture and replay would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from repro.cachesim.perfmodel import CacheBehavior

from .pin import CaptureConfig, PinTool
from .replay import McSimReplayer, ReplayReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vm import VirtualMachine


@dataclass
class ServiceStats:
    """Request accounting of the replay service."""

    requests: int = 0
    replays: int = 0
    cache_hits: int = 0
    #: Requests whose cached report exceeded the staleness bound: forced
    #: refreshes on the normal path, stale reports actually *served* when
    #: fault injection bypasses the bound (repro.faults.injectors).
    stale_hits: int = 0
    #: Replays answered from the behaviour memo instead of a fresh
    #: capture + replay (each is also counted in ``replays``).
    memo_hits: int = 0


class ReplayService:
    """McSimA+-style replay running off-host.

    Report freshness is bounded two ways: ``refresh_every`` re-replays
    after that many served requests (the sampling cadence), and
    ``max_report_age`` — when set — is a hard staleness bound: a cached
    report older than that many requests is never served, no matter what
    ``refresh_every`` would allow.  Every bound trigger counts a
    ``stale_hits``.
    """

    def __init__(
        self,
        replayer: Optional[McSimReplayer] = None,
        capture_config: Optional[CaptureConfig] = None,
        refresh_every: int = 50,
        max_report_age: Optional[int] = None,
    ) -> None:
        if refresh_every <= 0:
            raise ValueError(f"refresh_every must be positive, got {refresh_every}")
        if max_report_age is not None and max_report_age <= 0:
            raise ValueError(
                f"max_report_age must be positive, got {max_report_age}"
            )
        # The pin tool and replayer are fixed for the service's lifetime:
        # the memo below is keyed by behaviour alone.
        self.pin = PinTool(capture_config)
        self.replayer = replayer if replayer is not None else McSimReplayer()
        self.refresh_every = refresh_every
        self.max_report_age = max_report_age
        self.stats = ServiceStats()
        self._cache: Dict[int, ReplayReport] = {}
        self._age: Dict[int, int] = {}
        self._memo: Dict[CacheBehavior, ReplayReport] = {}

    def report_age(self, vm: "VirtualMachine") -> Optional[int]:
        """Requests served since ``vm``'s report was produced (None if
        uncached)."""
        if vm.vm_id not in self._cache:
            return None
        return self._age.get(vm.vm_id, 0)

    def cached_report(
        self, vm: "VirtualMachine"
    ) -> Optional[Tuple[ReplayReport, int]]:
        """The cached ``(report, age)`` of ``vm``, bypassing all freshness
        checks — inspection and fault injection only, no accounting."""
        report = self._cache.get(vm.vm_id)
        if report is None:
            return None
        return report, self._age.get(vm.vm_id, 0)

    def replay_vm(self, vm: "VirtualMachine") -> ReplayReport:
        """Return (possibly cached) replay PMCs for ``vm``."""
        self.stats.requests += 1
        age = self._age.get(vm.vm_id, self.refresh_every)
        fresh_enough = vm.vm_id in self._cache and age + 1 < self.refresh_every
        if (
            vm.vm_id in self._cache
            and self.max_report_age is not None
            and age + 1 > self.max_report_age
        ):
            # The staleness bound overrides the request-count cadence.
            self.stats.stale_hits += 1
            fresh_enough = False
        if fresh_enough:
            self._age[vm.vm_id] = age + 1
            self.stats.cache_hits += 1
            return self._cache[vm.vm_id]
        workload = vm.config.workload
        report = self._memo.get(workload.behavior)
        if report is None:
            report = self.replayer.replay(self.pin.capture(workload))
            self._memo[workload.behavior] = report
        else:
            self.stats.memo_hits += 1
        self._cache[vm.vm_id] = report
        self._age[vm.vm_id] = 0
        self.stats.replays += 1
        return report

    def invalidate(self, vm: "VirtualMachine") -> None:
        """Drop the cached report of a VM (e.g. after a phase change)."""
        self._cache.pop(vm.vm_id, None)
        self._age.pop(vm.vm_id, None)

"""Test-only oracle: XCS work stealing as a full runqueue scan.

A verbatim copy of ``CreditScheduler._steal`` before the steal index:
every idle core walks every other core's candidate list, same socket
first, and steals the first waiting, unpinned UNDER vCPU.  Property tests
mix :class:`FullScanSteal` into the production schedulers and check that
the indexed steal picks the same victims, tick for tick.
Nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.ks4xen import KS4Xen
from repro.schedulers.credit import CreditScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vcpu import VCpu


class FullScanSteal:
    """Mixin: replaces the indexed steal with the full scan.

    The scan never builds a steal index, so the production pass's index
    bookkeeping stays switched off under it.
    """

    def _steal(self, core_id: int) -> Optional["VCpu"]:
        machine = self.system.machine
        my_socket = machine.core(core_id).socket_id
        accounts = self.accounts

        def steal_from(other_core_id: int):
            for vcpu in self._candidates(other_core_id):
                if (
                    vcpu.pinned_core is None
                    and not vcpu.is_running
                    and accounts[vcpu.gid].credits > 0  # UNDER
                ):
                    self.reassign_vcpu(vcpu, core_id)
                    self.system.recorder.inc("credit.steals")
                    return vcpu
            return None

        for want_same_socket in (True, False):
            for other in machine.cores:
                if other.core_id == core_id:
                    continue
                if (other.socket_id == my_socket) is not want_same_socket:
                    continue
                vcpu = steal_from(other.core_id)
                if vcpu is not None:
                    return vcpu
        return None


class OracleCreditScheduler(FullScanSteal, CreditScheduler):
    """XCS with the full-scan steal."""


class OracleKS4Xen(FullScanSteal, KS4Xen):
    """KS4Xen with the full-scan steal."""

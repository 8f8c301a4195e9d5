"""Ablation — the pollution-quota bank size (quota_max_factor).

DESIGN.md calls out the banked-quota bound as a design choice: a larger
bank lets a bursty VM prepay longer pollution bursts; a smaller bank
punishes sooner and more often.  This ablation sweeps the factor and
reports the disruptor's punishment count, its duty cycle and the victim's
performance.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.ks4xen import KS4Xen
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.workloads.profiles import application_workload

FACTORS = (1.0, 2.0, 3.0, 6.0, 12.0)


def run_factor(factor: float):
    scheduler = KS4Xen(quota_max_factor=factor)
    system = VirtualizedSystem(scheduler)
    sen = system.create_vm(
        VmConfig(name="sen", workload=application_workload("gcc"),
                 llc_cap=250_000.0, pinned_cores=[0])
    )
    dis = system.create_vm(
        VmConfig(name="dis", workload=application_workload("lbm"),
                 llc_cap=250_000.0, pinned_cores=[1])
    )
    ran = [0]
    gid = dis.vcpus[0].gid
    system.add_tick_observer(
        lambda s, t: ran.__setitem__(0, ran[0] + (gid in s.last_tick_cycles))
    )
    system.run_ticks(30)
    sen.reset_metrics()
    system.run_ticks(200)
    return {
        "punishments": scheduler.kyoto.punishments(dis),
        "duty": ran[0] / 230,
        "victim_ipc": sen.vcpus[0].ipc,
    }


def run_ablation():
    return {factor: run_factor(factor) for factor in FACTORS}


def test_ablation_quota_factor():
    results = run_ablation()
    print(
        format_table(
            ["quota_max_factor", "# punishments", "disruptor duty",
             "victim IPC"],
            [
                [f, results[f]["punishments"], results[f]["duty"],
                 results[f]["victim_ipc"]]
                for f in FACTORS
            ],
            title="Ablation: pollution-quota bank size",
        )
    )
    # Smaller banks punish at least as often...
    assert results[1.0]["punishments"] >= results[12.0]["punishments"]
    # ...and are stricter: refill clipping at a small bank lowers the
    # polluter's achievable duty cycle.
    assert results[1.0]["duty"] <= results[12.0]["duty"] + 0.02
    # The victim is protected at every factor.
    assert all(results[f]["victim_ipc"] > 0.3 for f in FACTORS)

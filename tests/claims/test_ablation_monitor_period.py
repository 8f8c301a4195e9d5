"""Ablation — the monitoring period.

Section 3.3 computes llc_cap_act "periodically (e.g. each 100 million
instructions)".  This ablation sweeps how often KS4Xen samples the PMCs
and debits the quota (in ticks) and reports enforcement quality: a slower
monitor reacts later, letting pollution bursts through, but costs fewer
samples.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.ks4xen import KS4Xen
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.workloads.profiles import application_workload

PERIODS = (1, 2, 3, 6, 12)


def run_period(period: int):
    scheduler = KS4Xen(monitor_period_ticks=period)
    system = VirtualizedSystem(scheduler)
    sen = system.create_vm(
        VmConfig(name="sen", workload=application_workload("gcc"),
                 llc_cap=250_000.0, pinned_cores=[0])
    )
    dis = system.create_vm(
        VmConfig(name="dis", workload=application_workload("blockie"),
                 llc_cap=250_000.0, pinned_cores=[1])
    )
    system.run_ticks(30)
    sen.reset_metrics()
    system.run_ticks(240)
    account = scheduler.kyoto.account_of(dis)
    return {
        "victim_ipc": sen.vcpus[0].ipc,
        "samples": account.samples,
        "punishments": account.punishments,
    }


def run_ablation():
    return {period: run_period(period) for period in PERIODS}


def test_ablation_monitor_period():
    results = run_ablation()
    print(
        format_table(
            ["monitor period (ticks)", "victim IPC", "# samples",
             "# punishments"],
            [
                [p, results[p]["victim_ipc"], results[p]["samples"],
                 results[p]["punishments"]]
                for p in PERIODS
            ],
            title="Ablation: monitoring period",
        )
    )
    # Sampling cost scales down with the period...
    assert results[12]["samples"] < results[1]["samples"] / 8
    # ...while enforcement keeps working at every period.
    assert all(results[p]["punishments"] > 0 for p in PERIODS)
    ipcs = [results[p]["victim_ipc"] for p in PERIODS]
    assert max(ipcs) - min(ipcs) < 0.15 * max(ipcs)

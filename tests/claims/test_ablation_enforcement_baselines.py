"""Ablation — Kyoto vs the related-work alternatives.

The paper's positioning (Section 6): cache partitioning needs hardware or
rigid colouring; placement is NP-hard and needs application knowledge;
Kyoto is pay-per-use.  This ablation runs the same sensitive-vs-disruptor
colocation under every approach implemented in this repository and
reports the victim's protection and the approach's cost dimension.
"""

import pytest

from repro.analysis.metrics import normalized_performance
from repro.analysis.reporting import format_table
from repro.core.ks4xen import KS4Xen
from repro.core.memguard import MemGuardScheduler
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.partitioning.static import apply_page_coloring
from repro.partitioning.ucp import UcpController
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_workload

VICTIM_APP = "omnetpp"
DISRUPTOR_APP = "lbm"


def run_setup(label):
    if label == "kyoto (KS4Xen)":
        scheduler = KS4Xen()
    elif label == "memguard":
        scheduler = MemGuardScheduler()
    else:
        scheduler = CreditScheduler()
    system = VirtualizedSystem(scheduler)
    llc_cap = 250_000.0 if label in ("kyoto (KS4Xen)", "memguard") else None
    victim = system.create_vm(
        VmConfig(name="victim", workload=application_workload(VICTIM_APP),
                 llc_cap=llc_cap, pinned_cores=[0])
    )
    disruptor = system.create_vm(
        VmConfig(name="disruptor",
                 workload=application_workload(DISRUPTOR_APP),
                 llc_cap=llc_cap, pinned_cores=[1])
    )
    if label == "page coloring":
        apply_page_coloring(system, {victim: 110_000})
    elif label == "ucp":
        UcpController(system, period_ticks=6)
    system.run_ticks(30)
    victim.reset_metrics()
    disruptor.reset_metrics()
    system.run_ticks(150)
    # The disruptor's cost metric is throughput (instructions retired in
    # the window), not IPC: Kyoto's lever parks it, so it retires less
    # even though its IPC-while-running barely moves.
    return victim.vcpus[0].ipc, disruptor.instructions_retired


def run_ablation():
    # Victim solo baseline.
    solo_system = VirtualizedSystem(CreditScheduler())
    solo = solo_system.create_vm(
        VmConfig(name="solo", workload=application_workload(VICTIM_APP),
                 pinned_cores=[0])
    )
    solo_system.run_ticks(30)
    solo.reset_metrics()
    solo_system.run_ticks(150)
    baseline = solo.vcpus[0].ipc

    labels = ["none (XCS)", "page coloring", "ucp", "memguard",
              "kyoto (KS4Xen)"]
    results = {}
    for label in labels:
        victim_ipc, disruptor_throughput = run_setup(label)
        results[label] = {
            "victim": normalized_performance(baseline, victim_ipc),
            "disruptor_throughput": disruptor_throughput,
        }
    return results


def test_ablation_enforcement_baselines():
    results = run_ablation()
    print(
        format_table(
            ["approach", "victim normalized perf",
             "disruptor throughput (instr)"],
            [
                [label, data["victim"], data["disruptor_throughput"]]
                for label, data in results.items()
            ],
            title="Ablation: enforcement approaches vs the same colocation",
        )
    )
    unprotected = results["none (XCS)"]["victim"]
    # Every protection mechanism beats doing nothing...
    for label in ("page coloring", "ucp", "memguard", "kyoto (KS4Xen)"):
        assert results[label]["victim"] > unprotected, label
    # ...and the partitioning schemes protect without slowing the
    # disruptor's CPU, while Kyoto charges the polluter the CPU lever.
    assert (
        results["kyoto (KS4Xen)"]["disruptor_throughput"]
        < 0.9 * results["page coloring"]["disruptor_throughput"]
    )

"""Tests for XCS work stealing (SMP load balancing)."""

import dataclasses
import random

import pytest

from repro.core.ks4xen import KS4Xen
from repro.hardware.specs import MachineSpec, numa_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.lint.contracts import ContractViolation
from repro.schedulers.credit import CreditScheduler
from repro.service import ChurnGenerator, NaiveAdmission, ServiceLoop, VmTemplate
from repro.telemetry import MetricsRecorder
from repro.workloads.interactive import web_tier_workload
from repro.workloads.profiles import application_workload

from steal_oracle import OracleCreditScheduler, OracleKS4Xen


def unpinned_vm(system, name, app="povray"):
    return system.create_vm(
        VmConfig(name=name, workload=application_workload(app))
    )


class TestWorkStealing:
    def test_idle_cores_steal_queued_work(self):
        """Five unpinned CPU hogs on four cores: stealing keeps every
        core busy, so aggregate throughput approaches 4 cores' worth."""
        system = VirtualizedSystem(CreditScheduler())
        vms = [unpinned_vm(system, f"v{i}") for i in range(5)]
        system.run_ticks(90)
        total = sum(vm.instructions_retired for vm in vms)

        solo = VirtualizedSystem(CreditScheduler())
        ref = unpinned_vm(solo, "ref")
        solo.run_ticks(90)
        one_core = ref.instructions_retired
        assert total > 3.7 * one_core

    def test_pinned_vcpus_never_stolen(self):
        system = VirtualizedSystem(CreditScheduler())
        pinned_a = system.create_vm(
            VmConfig(name="a", workload=application_workload("povray"),
                     pinned_cores=[0])
        )
        system.create_vm(
            VmConfig(name="b", workload=application_workload("povray"),
                     pinned_cores=[0])
        )
        system.run_ticks(60)
        # Both share core 0 at ~50% despite three idle cores.
        assert pinned_a.vcpus[0].current_core in (0, None)
        half_core = 0.5 * 60 * system.cycles_per_tick()
        assert pinned_a.cycles_run == pytest.approx(half_core, rel=0.2)

    def test_stolen_vcpu_reassigned(self):
        system = VirtualizedSystem(CreditScheduler())
        # Two unpinned VMs land on cores 0 and 1 at admission; a third
        # initially queues behind one of them, then gets stolen.
        vms = [unpinned_vm(system, f"v{i}") for i in range(3)]
        system.run_ticks(10)
        cores = {
            system.scheduler.assigned_core[vm.vcpus[0].gid] for vm in vms
        }
        assert len(cores) == 3  # all on distinct cores after stealing

    def test_stealing_prefers_same_socket(self):
        from repro.hardware.specs import numa_machine

        system = VirtualizedSystem(CreditScheduler(), numa_machine())
        # Fill socket 0's core 0 with two unpinned VMs; socket-0 cores
        # should pick up the spare before socket-1 cores do.
        vms = [unpinned_vm(system, f"v{i}") for i in range(2)]
        system.run_ticks(5)
        for vm in vms:
            core = vm.vcpus[0].current_core
            assert core is not None
            assert system.machine.core(core).socket_id == 0


# -- the steal index against the full-scan oracle ---------------------------


class StealLog:
    """Mixin: logs every steal with the call that made it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steal_log = []
        self._phase = None

    def on_tick_start(self, tick_index):
        self._phase = "tick_start"
        super().on_tick_start(tick_index)
        self._phase = None

    def refill_core(self, core):
        self._phase = "refill"
        super().refill_core(core)
        self._phase = None

    def reassign_vcpu(self, vcpu, core_id):
        self.steal_log.append(
            (self.system.tick_index, self._phase, vcpu.gid, core_id)
        )
        super().reassign_vcpu(vcpu, core_id)


class LoggedCredit(StealLog, CreditScheduler):
    pass


class LoggedKS4Xen(StealLog, KS4Xen):
    pass


class LoggedOracleCredit(StealLog, OracleCreditScheduler):
    pass


class LoggedOracleKS4Xen(StealLog, OracleKS4Xen):
    pass


def _churn_templates():
    """Unpinned CPU hogs, tight-permit polluters (parked under KS4Xen),
    capped VMs and blocking web tiers (their mid-tick blocks make
    refill_core steal)."""
    return [
        VmTemplate("gcc", lambda: application_workload("gcc")),
        VmTemplate(
            "lbm", lambda: application_workload("lbm"), llc_cap=2_000.0,
            memory_node=1,
        ),
        VmTemplate("mcf", lambda: application_workload("mcf"), llc_cap=20_000.0),
        VmTemplate(
            "povray", lambda: application_workload("povray"), cap_percent=50.0
        ),
        VmTemplate(
            "web",
            lambda: web_tier_workload(burst_instructions=3e6, think_usec=5_000),
            num_vcpus=2,
        ),
    ]


def _machine(sockets, cores):
    base = numa_machine()
    socket = dataclasses.replace(base.sockets[0], cores=cores)
    return MachineSpec(
        name=f"{sockets}s{sockets * cores}c",
        sockets=(socket,) * sockets,
        memory_bytes=sockets * base.memory_bytes // 2,
        latency=base.latency,
    )


def _soak(scheduler, seed, machine_spec, ticks=400):
    """Seeded churn; returns everything a placement decision can reach."""
    recorder = MetricsRecorder()
    system = VirtualizedSystem(
        scheduler, machine_spec, seed=seed, recorder=recorder
    )
    # Pinned residents on both sockets: never stealable.
    for name, core in (("pin0", 0), ("pin5", 5)):
        system.create_vm(
            VmConfig(
                name=name,
                workload=application_workload("soplex"),
                pinned_cores=[core],
                llc_cap=5_000.0,
            )
        )
    placements = []
    parked_ticks = []

    def observe(sys_, tick):
        cores = sys_.machine.cores
        placements.append(
            tuple(c.running.gid if c.running else None for c in cores)
        )
        parked_ticks.append(
            sum(1 for v in sys_.vcpus if scheduler.is_parked(v))
        )

    system.add_tick_observer(observe)
    churn = ChurnGenerator(
        random.Random(seed),
        random.Random(seed + 1),
        rate_per_tick=0.2,
        lifetime_kind="exponential",
        lifetime_mean_ticks=60.0,
    )
    loop = ServiceLoop(
        system, churn, NaiveAdmission(), _churn_templates(),
        random.Random(seed + 2),
    )
    summary = loop.run(ticks)
    return {
        "summary": summary,
        "placements": placements,
        "steal_log": scheduler.steal_log,
        "steals": recorder.counters.get("credit.steals", 0.0),
        "parked_ticks": parked_ticks,
    }


@pytest.mark.parametrize(
    "sockets, cores, seed",
    # The 2-socket machine of Fig 9, and four small sockets so the
    # remote pass has more than one socket to order.
    [(2, 4, 0), (2, 4, 1), (2, 4, 2), (2, 4, 3), (4, 2, 0), (4, 2, 1)],
)
@pytest.mark.parametrize(
    "production, oracle",
    [(LoggedCredit, LoggedOracleCredit), (LoggedKS4Xen, LoggedOracleKS4Xen)],
    ids=["xcs", "ks4xen"],
)
def test_indexed_steal_matches_full_scan(production, oracle, sockets, cores, seed):
    """Same seeded churn, same victims: per-tick placements, the steal
    log (tick, call, vCPU, thief), credit.steals and the service summary
    are identical under the steal index and the full runqueue scan."""
    got = _soak(production(), seed, _machine(sockets, cores))
    want = _soak(oracle(), seed, _machine(sockets, cores))
    assert got == want
    phases = {phase for __, phase, __, __ in got["steal_log"]}
    assert phases == {"tick_start", "refill"}
    if production is LoggedKS4Xen:
        assert max(got["parked_ticks"]) > 0


class CorruptingCredit(CreditScheduler):
    """Miscounts the waiting vCPUs once the index exists."""

    def _steal(self, core_id):
        if self._steal_index is not None:
            self._steal_index.waiting[0] += 1
        return super()._steal(core_id)


def test_corrupted_steal_index_raises():
    """With contracts on (pytest), every steal decision after the first
    recounts the index from scratch and rejects a mismatch."""
    system = VirtualizedSystem(CorruptingCredit())
    for i in range(2):
        unpinned_vm(system, f"v{i}")
    with pytest.raises(ContractViolation, match="credit.steal_index"):
        system.run_ticks(1)


def test_idle_cores_probe_nothing_when_nothing_waits():
    """62 idle cores beside 2 busy vCPUs: every idle core's steal
    decision finds both sockets' waiting counts at zero and examines no
    runqueue, however many idle cores there are."""
    recorder = MetricsRecorder()
    system = VirtualizedSystem(
        CreditScheduler(), _machine(4, 16), recorder=recorder
    )
    for i in range(2):
        unpinned_vm(system, f"v{i}")
    system.run_ticks(50)
    assert recorder.counters.get("credit.steal_probes", 0.0) == 0.0
    assert recorder.counters.get("credit.steals", 0.0) == 0.0


def test_steal_probes_count_examined_runqueues():
    """Three VMs queued on core 0 of four: the first idle core probes
    core 0 and steals; the next probes it again and steals the last."""
    recorder = MetricsRecorder()
    system = VirtualizedSystem(CreditScheduler(), recorder=recorder)
    for i in range(3):
        system.create_vm(
            VmConfig(name=f"v{i}", workload=application_workload("povray"))
        )
    scheduler = system.scheduler
    for vm in system.vms:
        scheduler.reassign_vcpu(vm.vcpus[0], 0)
    system.run_ticks(1)
    assert recorder.counters["credit.steals"] == 2.0
    assert recorder.counters["credit.steal_probes"] == 2.0

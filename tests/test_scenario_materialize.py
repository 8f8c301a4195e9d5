"""Materializer: specs build the same systems the drivers used to."""

import pytest

from repro import CreditScheduler, KS4Pisces, KS4Xen, PiscesCoKernel
from repro.core.resilient import ResilientMonitor
from repro.scenario import (
    FaultsSpec,
    MachineSpecChoice,
    MigrationSpec,
    MonitorSpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    SchedulerChoice,
    VmSpec,
    WorkloadSpec,
    materialize,
    run_spec,
    solo_baseline_ipc,
)


def _vm(name="v", app="gcc", **kwargs):
    return VmSpec(name=name, workload=WorkloadSpec(app=app), **kwargs)


class TestMaterialize:
    def test_scheduler_kinds(self):
        for kind, cls in (
            ("xcs", CreditScheduler),
            ("ks4xen", KS4Xen),
            ("pisces", PiscesCoKernel),
            ("ks4pisces", KS4Pisces),
        ):
            built = materialize(
                ScenarioSpec(
                    name="s", scheduler=SchedulerChoice(kind=kind), vms=(_vm(),)
                )
            )
            assert isinstance(built.scheduler, cls), kind

    def test_kyoto_property_none_without_engine(self):
        built = materialize(ScenarioSpec(name="s", vms=(_vm(),)))
        assert built.kyoto is None

    def test_counted_vm_expands_with_round_robin_pinning(self):
        built = materialize(
            ScenarioSpec(
                name="s",
                vms=(_vm("d", count=3, pinned_cores=(1,)),),
            )
        )
        assert list(built.vms) == ["d-0", "d-1", "d-2"]
        total = built.system.machine.total_cores
        pins = [vm.vcpus[0].pinned_core for vm in built.vms.values()]
        assert pins == [(1 + i) % total for i in range(3)]

    def test_target_follows_protocol(self):
        built = materialize(
            ScenarioSpec(
                name="s",
                vms=(_vm("a"), _vm("b", pinned_cores=(1,))),
                protocol=ProtocolSpec(target_vm="b"),
            )
        )
        assert built.target.name == "b"

    def test_unknown_vm_lookup_is_an_error(self):
        built = materialize(ScenarioSpec(name="s", vms=(_vm("a"),)))
        with pytest.raises(KeyError):
            built.vm("ghost")

    def test_resilient_monitor_and_faults_wired_to_engine(self):
        built = materialize(
            ScenarioSpec(
                name="s",
                machine=MachineSpecChoice(preset="numa"),
                scheduler=SchedulerChoice(kind="ks4xen"),
                monitor=MonitorSpec(strategy="resilient", retries=2),
                faults=FaultsSpec(uniform_rate=0.5),
                vms=(_vm(llc_cap=250000.0),),
            )
        )
        try:
            assert isinstance(built.monitor, ResilientMonitor)
            assert built.kyoto is not None
            assert built.kyoto.monitor is built.monitor
            assert built.fault_plan is not None
        finally:
            built.uninstall_faults()

    def test_migration_spec_builds_migrator(self):
        built = materialize(
            ScenarioSpec(
                name="s",
                machine=MachineSpecChoice(preset="numa"),
                vms=(_vm(memory_node=0, pinned_cores=(0,)),),
                migration=MigrationSpec(remote_core=4, period_ticks=5),
            )
        )
        assert built.migrator is not None
        built.system.run_ticks(30)
        assert built.migrator.migrations > 0

    def test_validation_runs_before_building(self):
        with pytest.raises(ScenarioError):
            materialize(ScenarioSpec(name="", vms=()))

    def test_fresh_materializations_agree(self):
        spec = ScenarioSpec(
            name="s",
            vms=(
                _vm("sen", llc_cap=250_000),
                _vm("noisy", app="lbm", llc_cap=250_000, count=4),
            ),
        )

        def shape(built):
            built.system.run_ticks(20)
            return (
                built.system.machine.total_cores,
                list(built.vms),
                [vcpu.pinned_core for vcpu in built.system.vcpus],
                [vm.vcpus[0].ipc for vm in built.vms.values()],
            )

        assert shape(materialize(spec)) == shape(materialize(spec))


class TestRunSpec:
    def test_measure_report_mentions_target_ipc(self):
        report = run_spec(
            ScenarioSpec(
                name="s",
                vms=(_vm(),),
                protocol=ProtocolSpec(warmup_ticks=2, measure_ticks=4),
            )
        )
        assert "ipc" in report
        assert "v" in report

    def test_solo_baseline_footer(self):
        report = run_spec(
            ScenarioSpec(
                name="s",
                vms=(_vm("a"), _vm("b", app="lbm", pinned_cores=(1,))),
                protocol=ProtocolSpec(
                    warmup_ticks=2,
                    measure_ticks=4,
                    target_vm="a",
                    solo_baseline=True,
                ),
            )
        )
        assert "solo ipc" in report
        assert "normalized perf" in report

    def test_execution_time_requires_finite_target(self):
        with pytest.raises(ScenarioError, match="total_instructions"):
            run_spec(
                ScenarioSpec(
                    name="s",
                    vms=(_vm(),),
                    protocol=ProtocolSpec(mode="execution_time"),
                )
            )

    def test_execution_time_report(self):
        report = run_spec(
            ScenarioSpec(
                name="s",
                vms=(
                    VmSpec(
                        name="w",
                        workload=WorkloadSpec(
                            app="povray", total_instructions=1e8
                        ),
                        pinned_cores=(0,),
                    ),
                ),
                protocol=ProtocolSpec(mode="execution_time"),
            )
        )
        assert "execution_time_sec" in report

    def test_solo_baseline_ipc_strips_the_fleet(self):
        spec = ScenarioSpec(
            name="s",
            scheduler=SchedulerChoice(kind="ks4xen"),
            vms=(_vm("a", llc_cap=250000.0), _vm("b", app="lbm", pinned_cores=(1,))),
            faults=FaultsSpec(uniform_rate=1.0),
            protocol=ProtocolSpec(warmup_ticks=2, measure_ticks=4, target_vm="a"),
        )
        solo = solo_baseline_ipc(spec)
        assert solo > 0

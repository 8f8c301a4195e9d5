"""Direct tests of the KyotoEngine (shared by all three scheduler ports)."""

import pytest

from repro.core.engine import KyotoEngine
from repro.core.monitor import DirectPmcMonitor
from repro.hypervisor.system import VirtualizedSystem
from repro.lint.contracts import set_contracts_enabled
from repro.schedulers.credit import CreditScheduler

from conftest import make_vm


def plain_system():
    return VirtualizedSystem(CreditScheduler())


class TestRegistration:
    def test_register_managed_vm(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100_000.0)
        account = engine.register_vm(vm)
        assert account is not None
        assert account.llc_cap == 100_000.0

    def test_register_unmanaged_vm_returns_none(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system)
        assert engine.register_vm(vm) is None
        assert engine.account_of(vm) is None

    def test_register_idempotent(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100_000.0)
        first = engine.register_vm(vm)
        first.debit(50.0)
        second = engine.register_vm(vm)
        assert second is first  # re-registration keeps state

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            KyotoEngine(plain_system(), monitor_period_ticks=0)


class TestAccounting:
    def test_unmanaged_vm_never_parked(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system)
        assert engine.is_parked(vm) is False
        assert engine.punishments(vm) == 0
        assert engine.quota(vm) is None

    def test_monitor_period_gating(self):
        system = plain_system()
        engine = KyotoEngine(system, monitor_period_ticks=3)
        vm = make_vm(system, app="lbm", llc_cap=1.0)
        engine.register_vm(vm)
        system.run_ticks(1)
        engine.on_tick_end(0)  # (0+1) % 3 != 0 -> no sample
        assert engine.account_of(vm).samples == 0
        engine.on_tick_end(2)  # (2+1) % 3 == 0 -> samples
        assert engine.account_of(vm).samples == 1

    def test_debit_scales_with_period(self):
        """Two engines at different periods must charge the same total
        pollution for the same execution."""
        def total_debited(period):
            system = plain_system()
            engine = KyotoEngine(system, monitor_period_ticks=period)
            vm = make_vm(system, app="lbm", llc_cap=1.0)
            engine.register_vm(vm)
            for tick in range(12):
                system.run_ticks(1)
                engine.on_tick_end(tick)
            return engine.account_of(vm).total_debited

        assert total_debited(3) == pytest.approx(total_debited(1), rel=0.1)

    def test_refill_restores_quota(self):
        system = plain_system()
        engine = KyotoEngine(system)
        vm = make_vm(system, llc_cap=100.0)
        account = engine.register_vm(vm)
        account.debit(500.0)
        assert engine.is_parked(vm)
        engine.on_accounting(0)  # one slice of refill: +300
        engine.on_accounting(1)
        assert not engine.is_parked(vm)

    def test_custom_monitor_used(self):
        class ConstantMonitor(DirectPmcMonitor):
            def sample(self, vm):
                return 42.0

        system = plain_system()
        engine = KyotoEngine(system, monitor=ConstantMonitor(system))
        vm = make_vm(system, app="lbm", llc_cap=1_000.0)
        engine.register_vm(vm)
        system.run_ticks(1)  # the VM must have executed to be sampled
        engine.on_tick_end(0)
        assert engine.account_of(vm).total_debited == 42.0

    def test_idle_periods_do_not_dilute_mean_measured(self):
        """A VM that sat out a monitoring period must not be sampled: idle
        periods used to contribute zero-rate samples that dragged
        mean_measured toward zero and under-punished bursty polluters."""

        from repro.telemetry import MetricsRecorder

        class ConstantMonitor(DirectPmcMonitor):
            def sample(self, vm):
                return 100.0

        recorder = MetricsRecorder()
        system = plain_system()
        engine = KyotoEngine(
            system, monitor=ConstantMonitor(system), recorder=recorder
        )
        vm = make_vm(system, app="lbm", llc_cap=1_000_000.0)
        engine.register_vm(vm)
        for tick in range(5):  # active half
            system.run_ticks(1)
            engine.on_tick_end(tick)
        for vcpu in vm.vcpus:  # idle half
            vcpu.paused = True
        for tick in range(5, 10):
            system.run_ticks(1)
            engine.on_tick_end(tick)
        account = engine.account_of(vm)
        assert account.samples == 5
        assert account.mean_measured == pytest.approx(100.0)
        assert recorder.counters["kyoto.idle_skips"] == 5.0


class TestContractEvaluations:
    @pytest.fixture(autouse=True)
    def _restore_contract_toggle(self):
        yield
        set_contracts_enabled(None)

    def _one_period(self):
        """Three VMs that run, one managed VM that sits out, one unmanaged."""
        system = plain_system()
        engine = KyotoEngine(system)
        managed = [
            make_vm(system, f"vm{core}", app="lbm", core=core, llc_cap=1e9)
            for core in range(3)
        ]
        idle = make_vm(system, "idle", core=3, llc_cap=1e9)
        idle.vcpus[0].paused = True
        make_vm(system, "free", core=3)
        for vm in managed + [idle]:
            engine.register_vm(vm)
        system.run_ticks(1)
        engine.on_tick_end(0)
        engine.on_accounting(0)
        sampled = sum(engine.account_of(vm).samples for vm in managed + [idle])
        return engine, sampled

    def test_one_evaluation_per_sampled_vm(self):
        engine, sampled = self._one_period()
        assert sampled == 3
        assert engine.invariants.evaluated("non-negative-sample") == sampled
        assert engine.invariants.evaluated("quota-cap") == len(engine.accounts)

    def test_no_evaluations_with_contracts_off(self):
        set_contracts_enabled(False)
        engine, sampled = self._one_period()
        assert sampled == 3
        assert engine.invariants.evaluated("non-negative-sample") == 0
        assert engine.invariants.evaluated("quota-cap") == 0

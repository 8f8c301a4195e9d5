"""Tests for the pin-style capture and McSimA+-style replay service."""

import pytest

from repro.mcsim.pin import CaptureConfig, PinTool
from repro.mcsim.replay import McSimReplayer
from repro.mcsim.service import ReplayService
from repro.workloads.micro import micro_workload
from repro.workloads.profiles import application_workload


class TestPinCapture:
    def test_capture_produces_records(self):
        records = PinTool().capture(application_workload("gcc"))
        assert len(records) > 1
        assert all(r.instructions > 0 for r in records)

    def test_access_volume_matches_lapki(self):
        config = CaptureConfig(sample_accesses=10_000)
        records = PinTool(config).capture(application_workload("gcc"))
        total = sum(len(r.addresses) for r in records)
        assert total == pytest.approx(10_000, rel=0.02)

    def test_cpu_bound_workload_one_empty_block(self):
        from repro.cachesim.perfmodel import CacheBehavior
        from repro.workloads.base import Workload

        silent = Workload(
            "silent", CacheBehavior(wss_lines=10, lapki=0.0, base_cpi=0.5)
        )
        records = PinTool().capture(silent)
        assert len(records) == 1
        assert records[0].addresses == ()

    def test_deterministic_capture(self):
        a = PinTool(CaptureConfig(seed=3)).capture(application_workload("gcc"))
        b = PinTool(CaptureConfig(seed=3)).capture(application_workload("gcc"))
        assert [r.addresses for r in a] == [r.addresses for r in b]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CaptureConfig(sample_accesses=0)
        with pytest.raises(ValueError):
            CaptureConfig(block_instructions=0)


class TestReplay:
    def test_streaming_app_high_miss_ratio(self):
        records = PinTool().capture(application_workload("lbm"))
        report = McSimReplayer().replay(records)
        assert report.miss_ratio > 0.6

    def test_small_reuse_set_low_miss_ratio(self):
        records = PinTool(CaptureConfig(sample_accesses=50_000)).capture(
            application_workload("hmmer")
        )
        report = McSimReplayer().replay(records)
        assert report.misses_per_kinst < 5.0

    def test_report_fields_consistent(self):
        records = PinTool().capture(application_workload("gcc"))
        report = McSimReplayer().replay(records)
        assert report.llc_misses <= report.llc_accesses
        assert report.instructions > 0
        assert report.cycles > report.instructions * 0.5
        assert 0 < report.ipc < 4

    def test_warmup_fraction_validation(self):
        with pytest.raises(ValueError):
            McSimReplayer(warmup_fraction=1.0)

    def test_intrinsic_ranking_preserved(self):
        """Replay reproduces the key profile distinction: disruptors miss
        far more per instruction than quiet apps."""

        def mpki(app):
            records = PinTool().capture(application_workload(app))
            return McSimReplayer().replay(records).misses_per_kinst

        assert mpki("lbm") > 10 * mpki("hmmer")

    def test_empty_records(self):
        report = McSimReplayer().replay([])
        assert report.instructions == 0
        assert report.miss_ratio == 0.0
        assert report.ipc == 0.0


class TestReplayService:
    def test_caches_reports(self):
        service = ReplayService(refresh_every=10)
        from repro.hypervisor.system import VirtualizedSystem
        from repro.schedulers.credit import CreditScheduler
        from conftest import make_vm

        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, app="gcc")
        first = service.replay_vm(vm)
        second = service.replay_vm(vm)
        assert second is first
        assert service.stats.replays == 1
        assert service.stats.cache_hits == 1

    def test_refresh_after_expiry(self):
        service = ReplayService(refresh_every=2)
        from repro.hypervisor.system import VirtualizedSystem
        from repro.schedulers.credit import CreditScheduler
        from conftest import make_vm

        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, app="gcc")
        service.replay_vm(vm)
        service.replay_vm(vm)
        service.replay_vm(vm)  # age reached refresh_every -> re-replay
        assert service.stats.replays == 2

    def test_invalidate_forces_replay(self):
        service = ReplayService()
        from repro.hypervisor.system import VirtualizedSystem
        from repro.schedulers.credit import CreditScheduler
        from conftest import make_vm

        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, app="gcc")
        service.replay_vm(vm)
        service.invalidate(vm)
        service.replay_vm(vm)
        assert service.stats.replays == 2

    def test_invalid_refresh(self):
        with pytest.raises(ValueError):
            ReplayService(refresh_every=0)


class TestStalenessBound:
    def _vm(self):
        from repro.hypervisor.system import VirtualizedSystem
        from repro.schedulers.credit import CreditScheduler
        from conftest import make_vm

        system = VirtualizedSystem(CreditScheduler())
        return make_vm(system, app="gcc")

    def test_report_age_tracks_requests(self):
        service = ReplayService(refresh_every=10)
        vm = self._vm()
        assert service.report_age(vm) is None
        service.replay_vm(vm)
        assert service.report_age(vm) == 0
        service.replay_vm(vm)
        service.replay_vm(vm)
        assert service.report_age(vm) == 2

    def test_max_report_age_forces_refresh_before_cadence(self):
        # refresh_every would keep serving the cache for 10 requests, but
        # the staleness bound caps the report age at 2.
        service = ReplayService(refresh_every=10, max_report_age=2)
        vm = self._vm()
        service.replay_vm(vm)
        service.replay_vm(vm)  # age 1
        service.replay_vm(vm)  # age 2
        assert service.stats.replays == 1
        assert service.stats.stale_hits == 0
        service.replay_vm(vm)  # age would become 3 -> refresh
        assert service.stats.replays == 2
        assert service.stats.stale_hits == 1
        assert service.report_age(vm) == 0

    def test_no_bound_keeps_seed_behaviour(self):
        bounded = ReplayService(refresh_every=3)
        vm = self._vm()
        for __ in range(6):
            bounded.replay_vm(vm)
        assert bounded.stats.stale_hits == 0
        assert bounded.stats.replays == 2

    def test_cached_report_bypasses_accounting(self):
        service = ReplayService(refresh_every=10)
        vm = self._vm()
        assert service.cached_report(vm) is None
        report = service.replay_vm(vm)
        requests_before = service.stats.requests
        cached = service.cached_report(vm)
        assert cached is not None
        assert cached[0] is report
        assert cached[1] == 0
        assert service.stats.requests == requests_before

    def test_invalid_max_report_age(self):
        with pytest.raises(ValueError):
            ReplayService(max_report_age=0)


class TestReplayMemo:
    """The service's behaviour memo is exact and invisible to the per-VM
    refresh accounting."""

    CONFIG = CaptureConfig(sample_accesses=4_000)

    def _system(self):
        from repro.hypervisor.system import VirtualizedSystem
        from repro.schedulers.credit import CreditScheduler

        return VirtualizedSystem(CreditScheduler())

    @pytest.mark.parametrize("policy", ["lru", "random", "bip", "dip", "pdp"])
    def test_memoized_report_equals_fresh_replay(self, policy):
        from conftest import make_vm

        system = self._system()
        first_vm = make_vm(system, name="a", app="gcc", core=0)
        twin_vm = make_vm(system, name="b", app="gcc", core=1)
        service = ReplayService(
            replayer=McSimReplayer(llc_policy=policy),
            capture_config=self.CONFIG,
        )
        service.replay_vm(first_vm)
        memoized = service.replay_vm(twin_vm)
        assert service.stats.memo_hits == 1
        fresh = McSimReplayer(llc_policy=policy).replay(
            PinTool(self.CONFIG).capture(application_workload("gcc"))
        )
        assert memoized == fresh

    def test_distinct_behaviours_replay_separately(self):
        from conftest import make_vm

        system = self._system()
        gcc = make_vm(system, name="gcc", app="gcc", core=0)
        lbm = make_vm(system, name="lbm", app="lbm", core=1)
        service = ReplayService(capture_config=self.CONFIG)
        assert service.replay_vm(gcc) != service.replay_vm(lbm)
        assert service.stats.memo_hits == 0

    def test_refresh_accounting_unchanged(self):
        from conftest import make_vm

        system = self._system()
        vms = [
            make_vm(system, name=f"vm{i}", app="gcc", core=i) for i in range(2)
        ]
        service = ReplayService(refresh_every=3, capture_config=self.CONFIG)
        for __ in range(6):
            for vm in vms:
                service.replay_vm(vm)
        # Per VM: replay, hit, hit, replay, hit, hit — as without a memo.
        assert service.stats.requests == 12
        assert service.stats.replays == 4
        assert service.stats.cache_hits == 8
        assert service.stats.stale_hits == 0
        # Only the very first replay captured and simulated.
        assert service.stats.memo_hits == 3

    def test_report_is_immutable(self):
        import dataclasses

        report = McSimReplayer().replay([])
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.llc_misses = 1

    def test_memo_is_per_instance(self):
        from conftest import make_vm

        vm = make_vm(self._system(), app="gcc")
        for __ in range(2):
            service = ReplayService(capture_config=self.CONFIG)
            service.replay_vm(vm)
            assert service.stats.memo_hits == 0

    def test_stale_fault_serves_the_per_vm_report(self):
        from conftest import make_vm
        from repro.faults import (
            SITE_REPLAY_STALE,
            FaultPlan,
            FaultSpec,
            FaultyReplayService,
        )
        from repro.simulation.rng import seeded_stream

        system = self._system()
        first_vm = make_vm(system, name="a", app="gcc", core=0)
        twin_vm = make_vm(system, name="b", app="gcc", core=1)
        plan = FaultPlan(
            [FaultSpec(site=SITE_REPLAY_STALE, probability=1.0)],
            rng=seeded_stream(0),
        )
        service = FaultyReplayService(
            ReplayService(capture_config=self.CONFIG), plan, system
        )
        first = service.replay_vm(first_vm)  # nothing cached: real replay
        twin = service.replay_vm(twin_vm)  # nothing cached: memo answers
        assert service.stats.replays == 2
        assert service.stats.memo_hits == 1
        assert service.replay_vm(first_vm) is first
        assert service.replay_vm(twin_vm) is twin
        assert service.stats.stale_hits == 2
        assert service.stats.replays == 2

"""Tests for the PMC model and the perfctr-style virtualisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmc.counters import (
    COUNTER_MASK,
    EVENTS,
    SLOT,
    CoreCounters,
    HardwareCounter,
    PmcEvent,
    PmcSample,
    delta,
)
from repro.pmc.perfctr import PerfctrError, PerfctrVirtualizer

from pmc_oracle import OraclePerfctrVirtualizer


class TestHardwareCounter:
    def test_starts_at_zero(self):
        assert HardwareCounter(PmcEvent.LLC_MISSES).read() == 0

    def test_add(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.add(5)
        counter.add(7)
        assert counter.read() == 12

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            HardwareCounter(PmcEvent.LLC_MISSES).add(-1)

    def test_wraps_at_48_bits(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.write(COUNTER_MASK)
        counter.add(2)
        assert counter.read() == 1

    def test_write_masks(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.write(COUNTER_MASK + 10)
        assert counter.read() == 9


class TestDelta:
    def test_simple(self):
        assert delta(40, 100) == 60

    def test_wrap_aware(self):
        assert delta(COUNTER_MASK - 4, 5) == 10

    def test_zero(self):
        assert delta(7, 7) == 0


class TestCoreCounters:
    def test_independent_events(self):
        bank = CoreCounters(0)
        bank.add(PmcEvent.LLC_MISSES, 3)
        bank.add(PmcEvent.INSTRUCTIONS_RETIRED, 100)
        assert bank.read(PmcEvent.LLC_MISSES) == 3
        assert bank.read(PmcEvent.INSTRUCTIONS_RETIRED) == 100
        assert bank.read(PmcEvent.UNHALTED_CORE_CYCLES) == 0

    def test_snapshot_is_slot_ordered(self):
        bank = CoreCounters(0)
        bank.add(PmcEvent.LLC_MISSES, 3)
        bank.add(PmcEvent.LLC_REFERENCES, 9)
        snapshot = bank.snapshot()
        assert snapshot == tuple(bank.read(event) for event in EVENTS)
        assert snapshot[SLOT[PmcEvent.LLC_MISSES]] == 3
        assert snapshot[SLOT[PmcEvent.LLC_REFERENCES]] == 9


class TestPerfctr:
    def setup_method(self):
        self.cores = {0: CoreCounters(0), 1: CoreCounters(1)}
        self.virt = PerfctrVirtualizer(self.cores)

    def test_attributes_deltas_to_vcpu(self):
        self.virt.context_switch_in(7, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 50)
        deltas = self.virt.context_switch_out(7)
        assert deltas.llc_misses == 50
        assert self.virt.account(7).read(PmcEvent.LLC_MISSES) == 50

    def test_only_own_window_counted(self):
        self.cores[0].add(PmcEvent.LLC_MISSES, 999)  # before switch-in
        self.virt.context_switch_in(7, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        deltas = self.virt.context_switch_out(7)
        assert deltas.llc_misses == 10

    def test_two_vcpus_interleaved_on_one_core(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 5)
        self.virt.context_switch_out(1)
        self.virt.context_switch_in(2, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 7)
        self.virt.context_switch_out(2)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 5
        assert self.virt.account(2).read(PmcEvent.LLC_MISSES) == 7

    def test_double_switch_in_rejected(self):
        self.virt.context_switch_in(1, 0)
        with pytest.raises(PerfctrError):
            self.virt.context_switch_in(1, 1)

    def test_switch_out_without_in_rejected(self):
        with pytest.raises(PerfctrError):
            self.virt.context_switch_out(1)

    def test_accumulates_across_stints(self):
        for i in range(3):
            self.virt.context_switch_in(1, 0)
            self.cores[0].add(PmcEvent.LLC_MISSES, 10)
            self.virt.context_switch_out(1)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 30

    def test_counter_wrap_handled(self):
        self.cores[0].add(PmcEvent.LLC_MISSES, COUNTER_MASK - 3)
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)  # wraps
        deltas = self.virt.context_switch_out(1)
        assert deltas.llc_misses == 10

    def test_sample_returns_delta_since_last_sample(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        first = self.virt.sample(1)
        self.cores[0].add(PmcEvent.LLC_MISSES, 4)
        second = self.virt.sample(1)
        assert first.llc_misses == 10
        assert second.llc_misses == 4

    def test_sample_of_descheduled_vcpu(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        self.virt.context_switch_out(1)
        assert self.virt.sample(1).llc_misses == 10
        assert self.virt.sample(1).llc_misses == 0

    def test_flush_running_keeps_vcpu_switched_in(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 3)
        self.virt.flush_running(1)
        assert self.virt.is_running(1)
        self.cores[0].add(PmcEvent.LLC_MISSES, 2)
        self.virt.context_switch_out(1)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 5

    def test_flush_running_noop_when_descheduled(self):
        self.virt.flush_running(42)  # must not raise


class TestSampleRecord:
    def test_fields_follow_the_slot_order(self):
        assert PmcSample._fields == tuple(event.value for event in EVENTS)
        assert EVENTS == tuple(PmcEvent)

    def test_switch_out_record_is_slotwise_wrap_aware(self):
        cores = {0: CoreCounters(0)}
        virt = PerfctrVirtualizer(cores)
        cores[0].write(PmcEvent.LLC_MISSES, COUNTER_MASK - 4)
        cores[0].add(PmcEvent.UNHALTED_CORE_CYCLES, 10)
        virt.context_switch_in(1, 0)
        cores[0].add(PmcEvent.LLC_MISSES, 10)  # wraps
        cores[0].add(PmcEvent.UNHALTED_CORE_CYCLES, 20)
        assert virt.context_switch_out(1) == PmcSample(10, 20, 0, 0)

    def test_sample_record_carries_every_event(self):
        cores = {0: CoreCounters(0)}
        virt = PerfctrVirtualizer(cores)
        virt.context_switch_in(1, 0)
        for slot, event in enumerate(EVENTS):
            cores[0].add(event, slot + 1)
        sample = virt.sample(1)
        assert sample == PmcSample(1, 2, 3, 4)
        assert sample.unhalted_core_cycles == 2
        assert sample.instructions_retired == 3
        assert sample.llc_references == 4

    def test_flush_running_does_not_switch(self, monkeypatch):
        """The in-place flush re-uses its snapshot as the new baseline
        instead of a switch-out/switch-in round trip."""
        virt = PerfctrVirtualizer({0: CoreCounters(0)})
        virt.context_switch_in(1, 0)

        def forbidden(*args):
            raise AssertionError("flush_running must not switch")

        monkeypatch.setattr(virt, "context_switch_out", forbidden)
        monkeypatch.setattr(virt, "context_switch_in", forbidden)
        virt.flush_running(1)
        virt.sample(1)
        assert virt.is_running(1)


# -- equivalence with the dict-keyed virtualizer ------------------------------

NUM_CORES = 2
VCPUS = st.integers(min_value=0, max_value=3)

protocol_ops = st.one_of(
    st.tuples(st.just("in"), VCPUS, st.integers(0, NUM_CORES - 1)),
    st.tuples(st.sampled_from(["out", "flush", "sample", "retire"]), VCPUS),
    # Increments up to 2**49 wrap the 48-bit counters, some more than once.
    st.tuples(
        st.just("add"),
        st.integers(0, NUM_CORES - 1),
        st.sampled_from(EVENTS),
        st.one_of(st.integers(0, 1_000), st.integers(0, 1 << 49)),
    ),
    # Park a counter just below the wrap point.
    st.tuples(
        st.just("write"),
        st.integers(0, NUM_CORES - 1),
        st.sampled_from(EVENTS),
        st.integers(COUNTER_MASK - 1_000, COUNTER_MASK),
    ),
)


def _outcome(call):
    """``call()``'s result, or the type and message of its PerfctrError."""
    try:
        return ("ok", call())
    except PerfctrError as exc:
        return ("error", type(exc), str(exc))


class TestOracleEquivalence:
    @given(ops=st.lists(protocol_ops, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_keyed_virtualizer(self, ops):
        cores = {core_id: CoreCounters(core_id) for core_id in range(NUM_CORES)}
        virt = PerfctrVirtualizer(cores)
        oracle = OraclePerfctrVirtualizer(cores)

        def as_slots(result):
            return None if result is None else tuple(result[e] for e in EVENTS)

        for op in ops:
            kind = op[0]
            if kind == "add":
                cores[op[1]].add(op[2], op[3])
                continue
            if kind == "write":
                cores[op[1]].write(op[2], op[3])
                continue
            vcpu = op[1]
            if kind == "in":
                calls = (
                    lambda: virt.context_switch_in(vcpu, op[2]),
                    lambda: oracle.context_switch_in(vcpu, op[2]),
                )
            else:
                name = {
                    "out": "context_switch_out",
                    "flush": "flush_running",
                    "sample": "sample",
                    "retire": "retire_account",
                }[kind]
                calls = (
                    lambda: getattr(virt, name)(vcpu),
                    lambda: getattr(oracle, name)(vcpu),
                )
            got = _outcome(calls[0])
            want = _outcome(calls[1])
            if got[0] == want[0] == "ok":
                assert got[1] == as_slots(want[1]), op
                if got[1] is not None:
                    assert isinstance(got[1], PmcSample)
            else:
                assert got == want, op
            for other in range(4):
                assert virt.is_running(other) == oracle.is_running(other)
                assert virt.account(other).totals == list(
                    as_slots(oracle.account(other).totals)
                ), op

"""Bit-identity of the flat set-associative simulator against its oracle.

``setassoc_oracle`` is a frozen copy of the per-line simulator the flat
``SetAssociativeCache`` replaced (with its own copy of the replacement
policies and the per-address replay loops).  These properties drive both
with the same operations, for every policy, and require identical
outcomes access by access, identical statistics at the end, and equal
replay / co-run reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setassoc_oracle as oracle
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.replacement import make_policy
from repro.cachesim.setassoc import SetAssociativeCache
from repro.hardware.specs import CacheSpec, paper_machine
from repro.mcsim.multicore import MultiCoreReplayer
from repro.mcsim.pin import CaptureConfig, PinTool, TraceRecord
from repro.mcsim.replay import McSimReplayer
from repro.workloads.profiles import application_workload

POLICIES = ("lru", "random", "bip", "dip", "pdp")

LINE = 64

#: One operation: ``(kind, line, byte offset, owner)``.  Kind 0 is a full
#: flush, kinds 1-3 flush ``owner``'s lines, anything else is an access;
#: flushes stay rare so sets fill and evict.  96 lines overflow even the
#: largest geometry drawn (8 sets x 8 ways).
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=95),
        st.integers(min_value=0, max_value=LINE - 1),
        st.sampled_from([-1, 0, 1, 2]),
    ),
    max_size=400,
)


def cache_pair(policy, num_sets, assoc):
    spec = CacheSpec("T", num_sets * assoc * LINE, assoc, line_bytes=LINE)
    return (
        SetAssociativeCache(spec, make_policy(policy)),
        oracle.SetAssociativeCache(spec, oracle.make_policy(policy)),
    )


def assert_same_contents(cache, reference):
    assert cache.stats.total == reference.stats.total
    assert dict(cache.stats.by_owner) == dict(reference.stats.by_owner)
    assert cache.occupancy_by_owner() == reference.occupancy_by_owner()
    assert cache.resident_lines() == reference.resident_lines()


class TestCacheMatchesOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        ops=operations,
        num_sets=st.sampled_from([1, 2, 4, 8]),
        assoc=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_access_and_final_stats(self, policy, ops, num_sets, assoc):
        cache, reference = cache_pair(policy, num_sets, assoc)
        for kind, line, offset, owner in ops:
            if kind == 0:
                cache.flush()
                reference.flush()
            elif kind <= 3:
                assert cache.flush_owner(owner) == reference.flush_owner(owner)
            else:
                address = line * LINE + offset
                got = cache.access(address, owner)
                want = reference.access(address, owner)
                assert (got.hit, got.set_index, got.evicted_tag, got.evicted_owner) == (
                    want.hit, want.set_index, want.evicted_tag, want.evicted_owner
                )
        assert_same_contents(cache, reference)
        for owner in (-1, 0, 1, 2):
            assert cache.occupancy_of(owner) == reference.occupancy_of(owner)
        for line in range(96):
            assert cache.probe(line * LINE) == reference.probe(line * LINE)


#: Lines colliding in a few sets of every level of the paper machine
#: (8192 LLC sets, 512 L2 sets, 64 L1 sets): up to 48 tags per set, more
#: than any level's associativity, so every level evicts.
colliding_lines = st.builds(
    lambda tag, set_index: (tag * 8192 + set_index) * LINE,
    st.integers(min_value=0, max_value=47),
    st.integers(min_value=0, max_value=3),
)

records = st.lists(
    st.builds(
        TraceRecord,
        instructions=st.integers(min_value=1, max_value=3000),
        addresses=st.lists(colliding_lines, max_size=40).map(tuple),
    ),
    max_size=30,
)


class TestReplayMatchesOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_captured_workloads(self, policy):
        machine = paper_machine()
        socket = machine.sockets[0]
        pin = PinTool(CaptureConfig(sample_accesses=4_000))
        for app in ("gcc", "lbm", "mcf"):
            captured = pin.capture(application_workload(app))
            got = McSimReplayer(llc_policy=policy).replay(captured)
            want = oracle.oracle_replay(
                captured, socket, machine.latency, llc_policy=policy
            )
            assert got == want

    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        trace=records,
        base_cpi=st.floats(min_value=0.1, max_value=3.0),
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_drawn_traces(self, policy, trace, base_cpi, warmup_fraction):
        # A non-integral base CPI makes the per-access float accumulation
        # order observable in the cycle count.
        machine = paper_machine()
        got = McSimReplayer(
            llc_policy=policy,
            base_cpi=base_cpi,
            warmup_fraction=warmup_fraction,
        ).replay(trace)
        want = oracle.oracle_replay(
            trace,
            machine.sockets[0],
            machine.latency,
            llc_policy=policy,
            base_cpi=base_cpi,
            warmup_fraction=warmup_fraction,
        )
        assert got == want

    @given(trace=records)
    @settings(max_examples=20, deadline=None)
    def test_replay_block_level_counts(self, trace):
        machine = paper_machine()
        socket = machine.sockets[0]
        hierarchy = CacheHierarchy(socket, machine.latency)
        reference = oracle.OracleHierarchy(
            socket,
            machine.latency,
            oracle.SetAssociativeCache(socket.llc, oracle.make_policy("lru")),
        )
        for owner, record in enumerate(trace):
            got = hierarchy.replay_block(record.addresses, owner % 3, 0)
            cycles = llc_accesses = llc_misses = 0
            for address in record.addresses:
                level, access_cycles = reference.access(address, owner % 3)
                cycles += access_cycles
                llc_accesses += level in ("LLC", "MEMORY")
                llc_misses += level == "MEMORY"
            assert got == (cycles, llc_accesses, llc_misses)
        assert {
            level.value: count for level, count in hierarchy.level_counts.items()
        } == reference.level_counts
        assert_same_contents(hierarchy.llc, reference.llc)

    @pytest.mark.parametrize("policy", ["lru", "dip"])
    def test_co_run(self, policy):
        machine = paper_machine()
        pin = PinTool(CaptureConfig(sample_accesses=4_000))
        captures = {
            app: pin.capture(application_workload(app))
            for app in ("gcc", "lbm", "hmmer")
        }
        got = MultiCoreReplayer(llc_policy=policy).co_run(captures)
        want = oracle.oracle_co_run(
            captures, machine.sockets[0], machine.latency, llc_policy=policy
        )
        assert got == want

"""Ablation — occupancy model vs the faithful set-associative simulator.

The machine simulation runs on the analytical mean-field occupancy model;
the McSim replay path runs on the faithful line-by-line simulator.  This
ablation cross-validates them: two synthetic applications with different
working sets share a small LLC in *both* substrates, and their
steady-state occupancy shares must agree.
"""

import itertools

import pytest

from repro.analysis.reporting import format_table
from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.cachesim.perfmodel import CacheBehavior, hit_probability
from repro.cachesim.setassoc import SetAssociativeCache
from repro.hardware.specs import CacheSpec, KIB
from repro.workloads.tracegen import TraceConfig, generate_trace

#: A small LLC keeps the faithful simulation fast: 64 KiB = 1024 lines.
CACHE = CacheSpec("LLC", 64 * KIB, 8, shared=True)


def behaviors():
    a = CacheBehavior(wss_lines=700, lapki=100, base_cpi=0.8,
                      locality_theta=1.0)
    b = CacheBehavior(wss_lines=900, lapki=100, base_cpi=0.8,
                      locality_theta=1.0)
    return a, b


def faithful_shares(num_accesses=120_000):
    """Interleave two synthetic traces through the real simulator."""
    a, b = behaviors()
    cache = SetAssociativeCache(CACHE)
    trace_a = generate_trace(a, num_accesses,
                             TraceConfig(seed=1, base_address=0))
    trace_b = generate_trace(b, num_accesses,
                             TraceConfig(seed=2, base_address=1 << 28))
    for addr_a, addr_b in zip(trace_a, trace_b):
        cache.access(addr_a, owner=1)
        cache.access(addr_b, owner=2)
    total = cache.spec.num_lines
    return (
        cache.occupancy_of(1) / total,
        cache.occupancy_of(2) / total,
    )


def analytical_shares(iterations=400):
    """Iterate the occupancy model's relax to its fixed point."""
    a, b = behaviors()
    domain = LlcOccupancyDomain(CACHE.num_lines)
    for _ in range(iterations):
        miss_a = 100 * (1 - hit_probability(a, domain.occupancy_of(1)))
        miss_b = 100 * (1 - hit_probability(b, domain.occupancy_of(2)))
        domain.relax(
            {1: miss_a, 2: miss_b},
            {1: a.footprint_cap_lines, 2: b.footprint_cap_lines},
        )
    total = domain.total_lines
    return domain.occupancy_of(1) / total, domain.occupancy_of(2) / total


def run_ablation():
    return {"faithful": faithful_shares(), "analytical": analytical_shares()}


def test_ablation_model_crossvalidation():
    results = run_ablation()
    rows = [
        [name, share_a, share_b]
        for name, (share_a, share_b) in results.items()
    ]
    print(
        format_table(
            ["substrate", "owner A share", "owner B share"],
            rows,
            title="Ablation: occupancy model vs set-associative simulator",
        )
    )
    fa, fb = results["faithful"]
    aa, ab = results["analytical"]
    # Both substrates agree on the qualitative split (B's bigger working
    # set wins more cache) and on the shares within a coarse tolerance.
    assert fb > fa and ab > aa
    assert aa == pytest.approx(fa, abs=0.12)
    assert ab == pytest.approx(fb, abs=0.12)

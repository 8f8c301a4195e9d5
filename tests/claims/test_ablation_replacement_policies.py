"""Ablation — LLC replacement policies under a scan attack.

The related-work policies (BIP/DIP/PDP) exist precisely to keep a reusable
hot set resident while a streaming scan flows through.  This ablation runs
the same hot-set+scan interleaving through the faithful set-associative
simulator under each policy and reports the hot set's hit ratio —
quantifying how much of Kyoto's problem better hardware policies could
absorb (and how much remains for the scheduler).
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cachesim.replacement import make_policy
from repro.cachesim.setassoc import SetAssociativeCache
from repro.hardware.specs import CacheSpec, KIB

POLICIES = ("lru", "random", "bip", "dip", "pdp")


def hot_set_survival(policy_name: str) -> float:
    """Hit ratio of a 64-line hot set interleaved with a long scan."""
    cache = SetAssociativeCache(
        CacheSpec("LLC", 32 * KIB, 8), make_policy(policy_name)
    )
    hot = [i * 64 for i in range(64)]
    scan_base = 1 << 24
    for _ in range(20):  # warm the hot set
        for address in hot:
            cache.access(address, owner=1)
    hits = 0
    accesses = 0
    scan_cursor = 0
    for _ in range(60):
        for address in hot:
            hits += cache.access(address, owner=1).hit
            accesses += 1
        for _ in range(1024):  # the scan: 2x the cache per round
            cache.access(scan_base + scan_cursor * 64, owner=2)
            scan_cursor += 1
    return hits / accesses


def run_ablation():
    return {policy: hot_set_survival(policy) for policy in POLICIES}


def test_ablation_replacement_policies():
    results = run_ablation()
    print(
        format_table(
            ["policy", "hot-set hit ratio under scan"],
            [[p, results[p]] for p in POLICIES],
            title="Ablation: replacement policies vs a streaming scan",
        )
    )
    # Scan-resistant insertion policies protect the hot set better than
    # LRU (the thrashing-prone baseline the paper's clouds run on).
    assert results["bip"] > results["lru"]
    assert results["dip"] > results["lru"]
    assert results["pdp"] >= results["lru"]
    # And every policy keeps the ratio in a sane range.
    assert all(0.0 <= r <= 1.0 for r in results.values())

"""Fig 4 — equation 1 vs LLCM as the llc_cap indicator (o1/o2/o3)."""

from repro.experiments import fig04
from repro.workloads.profiles import (
    PAPER_ORDER_EQUATION1,
    PAPER_ORDER_LLCM,
    PAPER_ORDER_REAL,
)


def test_fig04_indicator():
    result = fig04.run(warmup_ticks=20, measure_ticks=60)
    print(fig04.format_report(result))
    cmp = result.comparison
    # The three published orderings are reproduced exactly.
    assert cmp.real_order == PAPER_ORDER_REAL
    assert cmp.llcm_order == PAPER_ORDER_LLCM
    assert cmp.equation1_order == PAPER_ORDER_EQUATION1
    # And the paper's conclusion holds: equation 1 tracks reality better.
    assert cmp.equation1_wins
    assert cmp.tau_equation1 > cmp.tau_llcm

"""Fig 6 — KS4Xen scalability with 1..15 colocated disturbers."""

from repro.experiments import fig06


def test_fig06_scalability():
    result = fig06.run(
        counts=(1, 2, 4, 6, 8, 10, 13, 14, 15), warmup_ticks=25, measure_ticks=120
    )
    print(fig06.format_report(result))
    # vsen1's performance is kept whatever the number of disturbers.
    assert all(p > 0.8 for p in result.normalized_perf)
    # No collapse as the count grows.
    assert result.normalized_perf[-1] > result.normalized_perf[0] - 0.2

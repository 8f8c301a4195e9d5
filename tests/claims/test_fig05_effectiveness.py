"""Fig 5 — KS4Xen effectiveness: predictability, punishments, timelines."""

from repro.experiments import fig05


def test_fig05_effectiveness():
    result = fig05.run(warmup_ticks=30, measure_ticks=200)
    print(fig05.format_report(result))
    for vdis in result.normalized_perf:
        # vsen1's performance is almost kept, and better than under XCS.
        assert result.normalized_perf[vdis] > 0.85
        assert result.normalized_perf[vdis] > result.normalized_perf_xcs[vdis]
        pun_sen, pun_dis = result.punishments[vdis]
        assert pun_sen == 0 and pun_dis > 10
    # Bottom plots: the quota zigzag and the CPU deprivation.
    assert min(result.timeline.quota) < 0 < max(result.timeline.quota)
    ks_duty = sum(result.timeline.running_ks4xen) / len(
        result.timeline.running_ks4xen
    )
    assert ks_duty < 0.8

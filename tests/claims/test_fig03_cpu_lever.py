"""Fig 3 — degradation grows with the disruptor's computing capacity."""

from repro.experiments import fig03


def test_fig03_cpu_lever():
    result = fig03.run(
        caps=(0, 20, 40, 60, 80, 100), warmup_ticks=25, measure_ticks=90
    )
    print(fig03.format_report(result))
    for vsen, series in result.degradation.items():
        assert series[0] < 1.0, vsen
        assert fig03.is_monotone_increasing(series), (vsen, series)
        assert series[-1] > 10.0, vsen
        # The paper's linearity claim, quantified.
        assert fig03.linearity_r_squared(result, vsen) > 0.95, vsen

"""Fig 11 — equation-1 values with vs without socket dedication."""

from repro.experiments import fig11


def test_fig11_no_dedication():
    result = fig11.run(warmup_ticks=25, measure_ticks=90)
    print(fig11.format_report(result))
    # The two orderings agree strongly: dedication can often be avoided.
    assert result.tau > 0.7
    # Quiet applications measure identically either way.
    for app in ("astar", "bzip", "xalan"):
        assert abs(result.shared[app] - result.dedicated[app]) < (
            0.05 * result.dedicated[app] + 1000
        )

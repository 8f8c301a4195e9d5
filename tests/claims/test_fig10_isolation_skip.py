"""Fig 10 — llc_cap_act isolated vs not, for the skip-isolation cases."""

from repro.experiments import fig10


def test_fig10_isolation_skip():
    result = fig10.run(warmup_ticks=30, sample_ticks=6)
    print(fig10.format_report(result))
    # Low-miss vCPU: difference almost nil.
    assert result.case("hmmer").absolute_gap < 10_000
    # Quiet co-runners: difference almost nil.
    assert result.case("bzip").absolute_gap < 5_000
    # Disruptive co-runners: isolation genuinely matters.
    assert result.case("bzip-vs-disruptors").relative_gap_percent > 50.0

"""Fig 8 — Kyoto vs Pisces: execution time alone vs colocated."""

from repro.experiments import fig08


def test_fig08_pisces():
    result = fig08.run(work_instructions=2.0e9)
    print(fig08.format_report(result))
    # Pisces alone does not ensure predictability under LLC sharing
    # (paper: ~24% difference)...
    assert result.pisces_interference_percent > 10.0
    # ...while KS4Pisces restores most of it.
    assert (
        result.ks4pisces_interference_percent
        < result.pisces_interference_percent * 0.7
    )

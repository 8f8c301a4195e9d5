"""Fig 7 — Pisces architecture audit (dedicated cores, shared LLC)."""

from repro.experiments import fig07


def test_fig07_pisces_arch():
    result = fig07.run(num_ticks=60)
    print(fig07.format_report(result))
    assert result.cores_disjoint
    assert all(d == 1.0 for d in result.duty_cycle.values())
    assert result.llc_shared

"""Fig 1 — LLC contention impact matrix (3 rep x 3 dis x 3 situations)."""

from repro.experiments import fig01


def test_fig01_contention_matrix():
    result = fig01.run(warmup_ticks=25, measure_ticks=90)
    print(fig01.format_report(result))
    # Paper claims: C1 agnostic; C2/C3 severely hit; parallel >> alternative.
    assert result.of(1, 3, "parallel") < 2.0
    assert result.of(2, 2, "parallel") > 50.0
    assert result.of(2, 2, "parallel") > result.of(2, 2, "alternative")
    assert result.of(3, 3, "parallel") > 15.0

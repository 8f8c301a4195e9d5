"""Fig 2 — LLC misses per tick of v2_rep (alone / alt / parallel / both)."""

from repro.experiments import fig02


def test_fig02_llcm_timeline():
    result = fig02.run(num_ticks=21)
    print(fig02.format_report(result))
    alone = result.misses["alone"]
    alt = result.misses["alternative"]
    par = result.misses["parallel"]
    # Alone: data loading only in the first tick.
    assert alone[0] > 10_000 and max(alone[3:]) < alone[0] * 0.05
    # Alternative: the zigzag (reload at the first tick of each slice).
    assert any(m > 10_000 for m in alt[3:]) and any(m < 1_000 for m in alt[3:])
    # Parallel: persistently high miss rate.
    assert min(par) > 50_000

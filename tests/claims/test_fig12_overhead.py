"""Fig 12 — KS4Xen vs XCS execution time across scheduling periods."""

from repro.experiments import fig12


def test_fig12_overhead():
    result = fig12.run(
        slices_ms=(1, 3, 5, 10, 15, 20, 30), work_instructions=2.0e9
    )
    print(fig12.format_report(result))
    # Both schedulers lead the VMs to the same performance level: the
    # monitoring system introduces no measurable overhead.
    assert result.max_overhead_percent < 2.0

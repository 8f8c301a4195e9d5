"""Fig 9 — cost of the socket-dedication vCPU migrations per application."""

from repro.experiments import fig09


def test_fig09_migration_overhead():
    result = fig09.run(work_instructions=1.0e9)
    print(fig09.format_report(result))
    # Not all VMs are impacted equally; the memory-intensive applications
    # (milc, lbm) suffer the most, up to ~12% in the paper.
    assert result.degradation["milc"] > result.degradation["bzip"]
    assert result.degradation["lbm"] > result.degradation["bzip"]
    assert all(0 <= d < 15 for d in result.degradation.values())

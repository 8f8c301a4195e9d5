"""Table 1 — experimental machine (regenerated from the model)."""

from repro.experiments import tables


def test_table1_machine():
    result = tables.run_table1()
    report = tables.format_table1(result)
    print(report)
    assert "8096 MB" in report
    assert "10 MB, 20-way" in report
    assert "4 Cores/socket" in report

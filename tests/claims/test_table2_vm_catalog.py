"""Table 2 — experiment VM catalog (vsen1..3 / vdis1..3)."""

from repro.experiments import tables


def test_table2_vm_catalog():
    result = tables.run_table2()
    report = tables.format_table2(result)
    print(report)
    assert result.mapping["vsen1"] == "gcc"
    assert result.mapping["vdis2"] == "blockie"
    assert len(result.mapping) == 6

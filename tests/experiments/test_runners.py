"""Tests for the per-table / per-figure experiment runners (small parameters)."""


from repro.experiments import (
    advantage_summary,
    fig8_report,
    fig9_report,
    fig10_report,
    fig11_report,
    fig12_report,
    k_versus_m_decay,
    optimization_savings,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    run_table2,
    table1_report,
    table2_report,
)
from repro.experiments.common import format_table, random_memory, records_to_rows
from repro.experiments.fig12 import HardwareConfiguration


class TestCommonHelpers:
    def test_random_memory_is_reproducible(self):
        assert random_memory(4, seed=1).values == random_memory(4, seed=1).values

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.34567], [10, 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_records_to_rows(self):
        records = [{"x": 1, "y": 2}, {"x": 3}]
        assert records_to_rows(records, ["x", "y"]) == [[1, 2], [3, ""]]


class TestTableRunners:
    def test_table1_records_cover_all_columns(self):
        records = run_table1(m=3, k=1)
        columns = {record["column"] for record in records}
        assert columns == {"RAW", "OPT1", "OPT2", "OPT3", "ALL"}
        assert all(record["measured"] >= 0 for record in records)

    def test_table1_report_contains_metrics(self):
        text = table1_report(m=2, k=1)
        assert "qubits" in text and "classical_controlled_gates" in text

    def test_optimization_savings_trends(self):
        savings = optimization_savings(m=4, k=2)
        assert savings["qubit_ratio"] < 1.0
        assert savings["depth_ratio"] < 1.0
        assert savings["classical_gate_ratio"] < 1.0

    def test_table2_records_and_report(self):
        records = run_table2([(2, 1)])
        architectures = {record["architecture"] for record in records}
        assert architectures == {"SQC+BB", "SQC+SS", "Ours"}
        assert "Table 2" in table2_report([(2, 1)])

    def test_advantage_summary_favors_ours(self):
        summary = advantage_summary(m=3, k=2)
        assert summary["t_count_vs_bb"] > 1.0
        assert summary["clifford_depth_vs_ss"] > 1.0


class TestFigureRunners:
    def test_fig8_records(self):
        records = run_fig8(widths=(1, 2, 3, 4))
        assert [record["m"] for record in records] == [1, 2, 3, 4]
        assert all(record["topological_minor"] for record in records)
        assert "Figure 8" in fig8_report(widths=(1, 2))

    def test_fig8_swap_worse_than_teleport_at_scale(self):
        records = run_fig8(widths=(6,))
        assert records[0]["swap_extra_depth"] > records[0]["teleport_extra_depth"]

    def test_fig9_records_and_report(self):
        records = run_fig9(widths=(1, 2), shots=16, architectures=("ours", "ss"))
        assert len(records) == 2 * 2 * 2
        assert all(0.0 <= record["fidelity"] <= 1.0 for record in records)
        assert "Figure 9" in fig9_report(widths=(1,), shots=8)

    def test_fig10_records_include_bound(self):
        records = run_fig10(widths=(2,), reduction_factors=(1.0, 100.0), shots=16)
        assert all("analytic_bound" in record for record in records)
        by_factor = {r["error_reduction_factor"]: r for r in records if r["error"] == "Z"}
        assert by_factor[100.0]["analytic_bound"] >= by_factor[1.0]["analytic_bound"]
        assert "Figure 10" in fig10_report(widths=(1,), reduction_factors=(1.0,), shots=8)

    def test_fig11_records_and_decay_summary(self):
        records = run_fig11(
            qram_widths=(1, 2),
            sqc_widths=(0, 1),
            reduction_factors=(1.0,),
            shots=32,
        )
        assert len(records) == 2 * 2 * 2
        decay = k_versus_m_decay(records, error="Z", factor=1.0)
        assert set(decay) == {"average_drop_per_k", "average_drop_per_m"}
        assert "Figure 11" in fig11_report(
            qram_widths=(1,), sqc_widths=(0,), reduction_factors=(1.0,), shots=8
        )

    def test_fig12_records_and_report(self):
        configurations = (HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),)
        records = run_fig12(configurations, reduction_factors=(1.0, 100.0), shots=20)
        assert len(records) == 2
        assert records[0]["extra_swaps"] == records[1]["extra_swaps"]
        assert records[1]["fidelity"] >= records[0]["fidelity"] - 0.05
        report = fig12_report(configurations, reduction_factors=(1.0,), shots=10)
        assert "Figure 12" in report and "SWAP=" in report


class TestFigureReportsFollowTheirRecords:
    """Reports render the channels and configurations the records hold."""

    def test_fig10_report_with_one_channel(self):
        records = run_fig10(
            widths=(1,), reduction_factors=(1.0,), shots=8, errors=("X",)
        )
        report = fig10_report(
            widths=(1,), reduction_factors=(1.0,), shots=8, records=records
        )
        assert "right panel: bit flip" in report
        assert "left panel" not in report

    def test_fig11_report_with_one_channel(self):
        records = run_fig11(
            qram_widths=(1,),
            sqc_widths=(0,),
            reduction_factors=(1.0,),
            shots=8,
            errors=("Z",),
        )
        report = fig11_report(
            qram_widths=(1,),
            sqc_widths=(0,),
            reduction_factors=(1.0,),
            shots=8,
            records=records,
        )
        assert "Z error" in report and "X error" not in report

    def test_fig12_report_keys_columns_on_the_whole_configuration(self):
        configurations = (
            HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),
            HardwareConfiguration(m=1, k=0, device_name="ibmq_guadalupe"),
        )
        records = run_fig12(configurations, reduction_factors=(1.0,), shots=8)
        assert [r["device"] for r in records] == [
            "ibm_perth-like",
            "ibmq_guadalupe-like",
        ]
        perth, guadalupe = records
        assert perth["extra_swaps"] != guadalupe["extra_swaps"]
        report = fig12_report(
            configurations, reduction_factors=(1.0,), shots=8, records=records
        )
        header, _, row = report.splitlines()[1:]
        assert f"m=1,k=0,ibm_perth (SWAP={perth['extra_swaps']})" in header
        assert (
            f"m=1,k=0,ibmq_guadalupe (SWAP={guadalupe['extra_swaps']})" in header
        )
        assert row.split()[1:] == [f"{r['fidelity']:.4g}" for r in records]

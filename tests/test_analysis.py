"""Tests of the per-table/figure experiment drivers (analysis package)."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.figure1 import figure1_data, render_figure1, scaling_trends
from repro.analysis.figures23 import MISMATCH_PANEL_APPS, figure_data, figure_rows, mismatch_rows, render_figure
from repro.analysis.render import render_stacked_bars, render_table
from repro.analysis.section42 import masking_summary, render_section42, section42_summary
from repro.analysis.table1 import instruction_ratio, render_table1, table1_rows
from repro.analysis.table2 import index_tracks_hangs, render_table2, table2_rows
from repro.analysis.tables34 import memory_ut_correlation, render_memory_table, table3_rows, table4_rows
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase

from test_orchestration import synthetic_report


def golden_report(app, mode, cores, isa, instructions, wall):
    """A report whose golden run executed ``instructions`` in ``wall`` seconds."""
    report = synthetic_report(app, mode, cores, isa, counts={"Vanished": 1})
    report.golden_summary.update(instructions=instructions, wall_time_seconds=wall)
    return report


#: sha256 of ``json.dumps(rows, sort_keys=True)`` on the synthetic
#: database.  The tables compute from the outcome percentages and
#: masking rates at the 3 decimals of the flat records; the pins hold
#: that rounding.
PINNED_ROWS = {
    "table2": "e2d18277fa2ec0511938b7e95b35003ba04890592df1f20ab35601a67a177f80",
    "table3": "b8375856cb0cd7db726ce08ade6bc36813a84e4923b636f9850cde83791b7276",
    "table4": "9b74a75ebe3ee117b1c6f51634f71022be4cb62875181f6ff26775648fa05cf9",
    "figure_armv7": "28d6641c69d687f0b1ea4f312087e026434d4d69cbfc6400da1dfcfdcc26e8b5",
    "figure_armv8": "435198d8948f9e2c65b8bc8e6fd6cff8e0757378fc831ef35ca79600a533a6af",
    "section42_masking": "c1b4787ed2143637830810f18d5c4b80d3f500abf022239898694d43a55f2071",
}

ROW_BUILDERS = {
    "table2": table2_rows,
    "table3": table3_rows,
    "table4": table4_rows,
    "figure_armv7": lambda database: figure_data(database, "armv7"),
    "figure_armv8": lambda database: figure_data(database, "armv8"),
    "section42_masking": lambda database: section42_summary(database)["masking"],
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_rows_are_pinned(synthetic_database, name):
    rows = ROW_BUILDERS[name](synthetic_database)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_ROWS[name]


class TestRenderers:
    def test_render_table_alignment_and_empty(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="t")
        assert text.splitlines()[0] == "t"
        assert "22" in text
        assert "(no data)" in render_table([])

    def test_render_stacked_bars(self):
        rows = [{"bar": "X", "Vanished": 50.0, "UT": 50.0}]
        text = render_stacked_bars(rows, "bar", ["Vanished", "UT"], width=10)
        assert "legend" in text
        assert "|" in text.splitlines()[-1]


class TestFigure1:
    def test_data_shape(self):
        data = figure1_data()
        assert len(data) >= 10
        years = [row["year"] for row in data]
        assert years == sorted(years)

    def test_trends(self):
        trends = scaling_trends()
        assert trends["transistor_growth"] > 1e5
        assert trends["max_cores"] >= 48
        assert trends["min_node_nm"] == 10

    def test_render(self):
        assert "Figure 1" in render_figure1()


class TestTable1:
    def test_rows_and_ratio(self):
        database = ResultsDatabase()
        database.add_reports([
            golden_report("CG", "serial", 1, "armv7", 200_000, 0.5),
            golden_report("EP", "serial", 1, "armv7", 100_000, 0.3),
            golden_report("CG", "serial", 1, "armv8", 10_000, 0.05),
            golden_report("EP", "serial", 1, "armv8", 5_000, 0.02),
        ])
        rows = table1_rows(database, faults_per_scenario=100)
        metrics = {(row["metric"], row["isa"]) for row in rows}
        assert ("executed_instructions", "armv7") in metrics
        assert ("total_fault_campaign_h", "armv8") in metrics
        instr_v7 = next(r for r in rows if r["metric"] == "executed_instructions" and r["isa"] == "armv7")
        assert instr_v7["smaller"] == 100_000 and instr_v7["larger"] == 200_000
        hours_v7 = next(r for r in rows if r["metric"] == "total_fault_campaign_h" and r["isa"] == "armv7")
        assert hours_v7["larger"] == round((0.5 + 0.3) * 100 / 3600.0, 3)
        # the paper's headline: ARMv7 executes far more instructions than ARMv8
        assert instruction_ratio(database) == pytest.approx(20.0)
        assert "Table 1" in render_table1(rows)


class TestBaselineVariant:
    """A store that also holds a cell's hardened and other-mix twins."""

    @staticmethod
    def _twins(baseline: ResultsDatabase) -> ResultsDatabase:
        """``baseline`` with a ``dwc+rec`` and a memory-mix twin of every
        report stored ahead of it, each with other counts and a longer
        golden run."""
        mixed = ResultsDatabase()
        for report in baseline.reports.values():
            twins = [
                replace(report, scenario=replace(report.scenario, hardening="dwc+rec")),
                replace(
                    report,
                    scenario=report.scenario.with_target_mix({"gpr": 0.7, "memory": 0.3}),
                    target_mix_label="gpr0.7+memory0.3",
                ),
            ]
            for twin in twins:
                twin.counts = {**twin.counts, "Vanished": 0, "UT": 100}
                twin.golden_summary = {**twin.golden_summary, "instructions": 62_829}
                twin.golden_stats = {**twin.golden_stats, "branches_total": 1.0}
                mixed.add_report(twin)
        mixed.add_reports(baseline.reports.values())
        return mixed

    def test_table1_reads_the_unhardened_default_mix_golden_run(self):
        baseline = ResultsDatabase()
        baseline.add_reports([
            golden_report("IS", "serial", 1, "armv8", 39_833, 0.1),
            golden_report("IS", "omp", 2, "armv8", 42_232, 0.1),
        ])
        mixed = self._twins(baseline)
        assert len(mixed) == 3 * len(baseline)
        rows = table1_rows(mixed, faults_per_scenario=100)
        assert rows == table1_rows(baseline, faults_per_scenario=100)
        instructions = next(
            r for r in rows if r["metric"] == "executed_instructions" and r["isa"] == "armv8"
        )
        assert instructions["larger"] == 42_232

    def test_every_paper_table_and_figure_reads_the_baseline(self, synthetic_database):
        mixed = self._twins(synthetic_database)
        for name, build in ROW_BUILDERS.items():
            assert build(mixed) == build(synthetic_database), name
        assert section42_summary(mixed) == section42_summary(synthetic_database)


class TestFigures23:
    def test_panel_rows(self, synthetic_database):
        rows = figure_rows(synthetic_database, isa="armv7", api="mpi")
        labels = {row["config"] for row in rows if row["app"] == "IS"}
        assert labels == {"SER-1", "MPI-1", "MPI-2", "MPI-4"}
        for row in rows:
            total = row["Vanished"] + row["ONA"] + row["OMM"] + row["UT"] + row["Hang"]
            assert total == pytest.approx(100.0, abs=0.5)

    def test_mismatch_rows_only_for_apps_with_both_apis(self, synthetic_database):
        rows = mismatch_rows(synthetic_database, isa="armv7")
        assert all(row["app"] in MISMATCH_PANEL_APPS for row in rows)
        assert all(row["total_mismatch"] >= 0 for row in rows)

    def test_figure_data_and_render(self, synthetic_database):
        data = figure_data(synthetic_database, "armv8")
        assert set(data) == {"isa", "mpi_panel", "omp_panel", "mismatch_panel"}
        text = render_figure(synthetic_database, "armv7")
        assert "Figure 2a" in text and "Figure 2c" in text
        assert "Figure 3a" in render_figure(synthetic_database, "armv8")


class TestTable2:
    def test_rows_and_tracking(self, synthetic_database):
        rows = table2_rows(synthetic_database)
        groups = {row["scenario_group"] for row in rows}
        assert "IS MPI V7" in groups and "IS OMP V8" in groups
        verdict = index_tracks_hangs(rows)
        assert all(verdict.values())
        assert "Table 2" in render_table2(rows)

    def test_single_core_is_baseline(self, synthetic_database):
        rows = [r for r in table2_rows(synthetic_database) if r["scenario_group"] == "IS MPI V7"]
        assert rows[0]["cores"] == 1 and rows[0]["fb_index"] == pytest.approx(1.0)


class TestTables34:
    def test_table3_shape(self, synthetic_database):
        rows = table3_rows(synthetic_database)
        assert [row["row"] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        # higher memory-instruction share goes with higher UT share
        assert memory_ut_correlation(rows) > 0.5
        assert "Table 3" in render_memory_table(rows, 3)

    def test_table4_shape(self, synthetic_database):
        rows = table4_rows(synthetic_database)
        labels = [row["row"] for row in rows]
        assert labels == list("ABCDEFGHI")
        lu = [row for row in rows if row["scenario"].startswith("LU")]
        assert lu[0]["ut_pct"] >= lu[-1]["ut_pct"]
        assert lu[0]["mem_inst_pct"] >= lu[-1]["mem_inst_pct"]


class TestSection42:
    def test_masking_summary(self, synthetic_database):
        summary = masking_summary(synthetic_database)
        assert summary["total_comparisons"] > 0
        assert 0 <= summary["total_mpi_wins"] <= summary["total_comparisons"]

    def test_full_summary_and_render(self, synthetic_database):
        # reports without golden statistics contribute no load balance
        synthetic_database.get("IS-MPI-4-armv8").golden_stats["load_balance_pct"] = 4.0
        synthetic_database.get("IS-OMP-4-armv8").golden_stats["load_balance_pct"] = 15.0
        summary = section42_summary(synthetic_database)
        assert summary["load_balance_pct"] == {"mpi": 4.0, "omp": 15.0}
        assert "vulnerability_window" not in summary
        text = render_section42(summary)
        assert "MPI masking wins" in text
        assert "imbalance: MPI 4.00% vs OMP 15.00%" in text

    def test_load_balance_is_the_golden_runs(self):
        """The database's load balance is the golden runs' own figure."""
        config = CampaignConfig(faults_per_scenario=2, seed=3)
        database = ResultsDatabase()
        golden_balance = {}
        for mode in ("omp", "mpi"):
            campaign = ScenarioCampaign(Scenario("IS", mode, 2, "armv8"), config)
            database.add_report(campaign.run())
            golden_balance[mode] = campaign.golden.load_balance_pct
        assert all(value > 0.0 for value in golden_balance.values())
        assert section42_summary(database)["load_balance_pct"] == golden_balance

"""Tests of the cross-layer data mining tool."""

import pytest
from hypothesis import given, strategies as st

from repro.mining.correlation import correlation_matrix, pearson, rank_correlations, spearman
from repro.mining.dataset import Dataset
from repro.mining.eda import build_analysis_dataset, outcome_by, scenario_summary_statistics
from repro.analysis.figures23 import mismatch_rows
from repro.analysis.section42 import masking_summary
from repro.analysis.table2 import table2_rows
from repro.analysis.tables34 import table3_rows
from repro.orchestration.database import ResultsDatabase

from test_orchestration import synthetic_report


@pytest.fixture
def dataset(synthetic_database):
    return Dataset(synthetic_database.scenario_records())


class TestDataset:
    def test_columns_and_selection(self, dataset):
        assert "scenario_id" in dataset.columns()
        armv7 = dataset.filter_equal(isa="armv7")
        assert len(armv7) > 0
        assert all(record["isa"] == "armv7" for record in armv7)

    def test_numeric_columns_and_describe(self, dataset):
        numeric = dataset.numeric_columns()
        assert "pct_UT" in numeric
        summary = dataset.describe(["pct_UT"])
        assert summary["pct_UT"]["count"] == len(dataset)
        assert summary["pct_UT"]["min"] <= summary["pct_UT"]["mean"] <= summary["pct_UT"]["max"]

    def test_group_by_and_mean(self, dataset):
        groups = dataset.group_by("isa")
        assert set(groups) == {"armv7", "armv8"}
        assert groups["armv7"].mean("pct_UT") > 0

    def test_sort_and_with_column(self, dataset):
        ordered = dataset.sort_by("pct_UT", reverse=True)
        values = ordered.numeric_column("pct_UT")
        assert values == sorted(values, reverse=True)
        extended = dataset.with_column("double_ut", lambda r: r["pct_UT"] * 2)
        assert extended.records[0]["double_ut"] == pytest.approx(extended.records[0]["pct_UT"] * 2)

    def test_join(self):
        left = Dataset([{"scenario_id": "a", "x": 1}, {"scenario_id": "b", "x": 2}])
        right = Dataset([{"scenario_id": "a", "y": 10}])
        joined = left.join(right, on="scenario_id")
        assert len(joined) == 1
        assert joined.records[0] == {"scenario_id": "a", "x": 1, "y": 10}

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50))
    def test_mean_matches_python(self, values):
        data = Dataset([{"v": value} for value in values])
        assert data.mean("v") == pytest.approx(sum(values) / len(values))

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=30))
    def test_min_max_bound_mean(self, values):
        data = Dataset([{"v": value} for value in values])
        assert data.min("v") - 1e-9 <= data.mean("v") <= data.max("v") + 1e-9


class TestCorrelation:
    def test_pearson_perfect_and_inverse(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
        assert pearson(xs, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson([1.0], [2.0]) == 0.0
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_spearman_monotonic(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [1.0, 8.0, 27.0, 64.0, 125.0]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_correlation_matrix_symmetric(self, dataset):
        matrix = correlation_matrix(dataset, ["pct_UT", "stat_memory_instruction_pct", "pct_Vanished"])
        assert matrix["pct_UT"]["pct_UT"] == 1.0
        assert matrix["pct_UT"]["pct_Vanished"] == pytest.approx(matrix["pct_Vanished"]["pct_UT"])

    def test_rank_correlations_surfaces_memory_ut_link(self, dataset):
        ranked = rank_correlations(dataset, target="pct_UT", candidates=["stat_memory_instruction_pct", "cores"])
        names = [name for name, _ in ranked]
        assert "stat_memory_instruction_pct" in names
        top_value = dict(ranked)["stat_memory_instruction_pct"]
        assert abs(top_value) > 0.3  # memory share correlates with UT share


class TestIndices:
    """The derived indices of the mining flow's step 3, checked on the
    tables that compute them from the campaign database."""

    def test_fb_index_normalisation(self):
        def group(single_core_branches):
            database = ResultsDatabase()
            for cores, branches in ((1, single_core_branches), (2, 20.0), (4, 40.0)):
                database.add_report(synthetic_report(
                    "IS", "mpi", cores, "armv7",
                    stats={"branches_total": branches, "function_calls_total": 5.0},
                ))
            return [row["fb_index"] for row in table2_rows(database)]

        assert group(10.0) == [1.0, 2.0, 4.0]
        # a zero single-core product is no baseline: the raw products stay
        assert group(0.0) == [0.0, 100.0, 200.0]

    def test_fb_index_table_monotonic_for_is_mpi(self, synthetic_database):
        rows = [row for row in table2_rows(synthetic_database) if row["scenario_group"] == "IS MPI V7"]
        assert [row["cores"] for row in rows] == [1, 2, 4]
        assert rows[0]["fb_index"] == pytest.approx(1.0)
        indices = [row["fb_index"] for row in rows]
        assert indices == sorted(indices)

    def test_mismatch_table(self, synthetic_database):
        rows = [row for row in mismatch_rows(synthetic_database, "armv7") if row["app"] == "IS"]
        assert len(rows) == 3
        for row in rows:
            assert row["total_mismatch"] >= 0.0
            assert row["total_mismatch"] == pytest.approx(
                sum(abs(row[f"diff_{k}"]) for k in ("Vanished", "ONA", "OMM", "UT", "Hang"))
            )

    def test_memory_transaction_table(self, synthetic_database):
        rows = {row["scenario"]: row for row in table3_rows(synthetic_database)}
        single, quad = rows["MG MPIx1"], rows["MG MPIx4"]
        assert quad["ut_pct"] > single["ut_pct"]
        assert quad["mem_inst_pct"] > single["mem_inst_pct"]

    def test_masking_comparison(self, synthetic_database):
        summary = masking_summary(synthetic_database)["armv8"]
        assert summary["comparisons"] >= 3
        assert 0 <= summary["mpi_wins"] <= summary["comparisons"]


class TestEda:
    def test_build_analysis_dataset(self, synthetic_database):
        dataset = build_analysis_dataset(synthetic_database)
        assert len(dataset) == len(synthetic_database)
        assert "pct_UT" in dataset.columns()

    def test_summary_statistics(self, synthetic_database):
        dataset = build_analysis_dataset(synthetic_database)
        summary = scenario_summary_statistics(dataset)
        assert "pct_UT" in summary and "masking_rate_pct" in summary

    def test_outcome_by_isa(self, synthetic_database):
        dataset = build_analysis_dataset(synthetic_database)
        grouped = outcome_by(dataset, "isa")
        assert set(grouped) == {"armv7", "armv8"}
        for stats in grouped.values():
            total = stats["Vanished"] + stats["ONA"] + stats["OMM"] + stats["UT"] + stats["Hang"]
            assert total == pytest.approx(100.0, abs=1.0)

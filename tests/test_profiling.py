"""Tests of the profiling layer: gem5-style statistics and the OVPsim-like profiler."""

import pytest

from repro.cpu.statistics import CoreStats, aggregate_stats, load_balance
from repro.injection.golden import GoldenRunner
from repro.npb.suite import Scenario
from repro.profiling.functional import FunctionalProfiler


class TestCoreStats:
    def test_derived_metrics(self):
        stats = CoreStats(instructions=1000, branches=200, branches_taken=150, loads=100, stores=50,
                          float_ops=30, calls=10)
        assert stats.memory_instructions == 150
        assert stats.memory_instruction_pct == pytest.approx(15.0)
        assert stats.branch_pct == pytest.approx(20.0)
        assert stats.read_write_ratio == pytest.approx(2.0)
        assert stats.branch_taken_ratio == pytest.approx(0.75)
        assert stats.float_pct == pytest.approx(3.0)

    def test_zero_division_guards(self):
        stats = CoreStats()
        assert stats.memory_instruction_pct == 0.0
        assert stats.branch_pct == 0.0
        assert stats.branch_taken_ratio == 0.0

    def test_merge_and_aggregate(self):
        a = CoreStats(instructions=10, loads=1)
        b = CoreStats(instructions=20, loads=2)
        total = aggregate_stats([a, b])
        assert total.instructions == 30 and total.loads == 3
        a.merge(b)
        assert a.instructions == 30

    def test_load_balance(self):
        balanced = [CoreStats(instructions=100), CoreStats(instructions=102)]
        skewed = [CoreStats(instructions=100), CoreStats(instructions=300)]
        assert load_balance(balanced) < load_balance(skewed)
        assert load_balance([CoreStats(instructions=100)]) == 0.0

    def test_as_dict_prefix(self):
        d = CoreStats(instructions=5).as_dict("core0_")
        assert d["core0_instructions"] == 5


class TestStatsCollector:
    @pytest.fixture(scope="class")
    def golden(self):
        return GoldenRunner(model_caches=True).run(Scenario("IS", "omp", 2, "armv8"))

    def test_families_of_parameters_present(self, golden):
        stats = golden.stats
        assert stats["total_instructions"] > 0
        assert any(key.startswith("core0_") for key in stats)
        assert any(key.startswith("core1_") for key in stats)
        assert any(key.startswith("syscall_") for key in stats)
        assert any(key.startswith("proc0_mem_") for key in stats)
        assert any(key.startswith("l2_") or "l1d" in key for key in stats)
        assert stats["program_instructions"] > 0
        assert stats["num_cores"] == 2

    def test_parameter_count_is_substantial(self, golden):
        # the paper aggregates hundreds of microarchitectural parameters
        assert len(golden.stats) > 100

    def test_fb_index_raw_consistency(self, golden):
        stats = golden.stats
        assert stats["fb_index_raw"] == pytest.approx(stats["branches_total"] * stats["function_calls_total"])


class TestFunctionalProfiler:
    @pytest.fixture(scope="class")
    def profile(self):
        return FunctionalProfiler().run(Scenario("IS", "omp", 2, "armv8"))

    def test_function_attribution_covers_run(self, profile):
        assert sum(profile.function_instructions.values()) == profile.total_instructions
        assert "kernel_chunk" in profile.function_instructions
        assert profile.function_instructions["kernel_chunk"] > 0

    def test_call_counts(self, profile):
        assert profile.function_calls.get("kernel_chunk", 0) >= 2  # one per worker chunk
        assert profile.function_calls.get("main", 0) == 1

    def test_vulnerability_window_is_bounded(self, profile):
        window = profile.vulnerability_window(api_prefixes=("omp_", "mpi_"))
        # Section 4.2.2: the parallelisation runtime occupies a limited share
        assert 0.0 < window < 0.5

    def test_function_share_sums_to_one(self, profile):
        share = profile.function_share()
        assert sum(share.values()) == pytest.approx(1.0)

    def test_line_coverage_recorded(self, profile):
        assert profile.line_coverage
        assert any(len(lines) > 1 for lines in profile.line_coverage.values())

    def test_top_functions(self, profile):
        top = profile.top_functions(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_instruction_counts_off_by_default(self, profile):
        assert profile.instruction_counts == {}


class TestInstructionCounts:
    def test_counts_cover_the_whole_run(self):
        profile = FunctionalProfiler(instruction_counts=True).run(
            Scenario("IS", "serial", 1, "armv8")
        )
        assert profile.instruction_counts
        assert sum(profile.instruction_counts.values()) == profile.total_instructions
        assert all(count > 0 for count in profile.instruction_counts.values())
        assert min(profile.instruction_counts) >= 0

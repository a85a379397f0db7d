"""Tests of the NPB-style workloads and the 130-scenario matrix."""

import pytest

from repro.npb import common
from repro.npb.suite import (
    APPLICATIONS,
    Scenario,
    build_program,
    build_scenario_suite,
    create_system,
    instruction_budget,
    launch_scenario,
    scenarios_for_isa,
)


def run_scenario(scenario: Scenario):
    program = build_program(scenario.app, scenario.mode, scenario.isa)
    system = create_system(scenario)
    launch_scenario(system, scenario, program)
    system.run(max_instructions=instruction_budget(scenario))
    return system


class TestScenarioMatrix:
    def test_total_scenario_count_matches_paper(self):
        suite = build_scenario_suite()
        assert len(suite) == 130

    def test_per_isa_breakdown(self):
        scenarios = scenarios_for_isa("armv7")
        assert len(scenarios) == 65
        serial = [s for s in scenarios if s.mode == "serial"]
        omp = [s for s in scenarios if s.mode == "omp"]
        mpi = [s for s in scenarios if s.mode == "mpi"]
        assert len(serial) == 10
        assert len(omp) == 30
        assert len(mpi) == 25

    def test_bt_and_sp_lack_mpi_dual_core(self):
        scenarios = scenarios_for_isa("armv8")
        assert not any(s.app == "BT" and s.mode == "mpi" and s.cores == 2 for s in scenarios)
        assert not any(s.app == "SP" and s.mode == "mpi" and s.cores == 2 for s in scenarios)
        assert any(s.app == "BT" and s.mode == "mpi" and s.cores == 4 for s in scenarios)

    def test_dc_ua_have_no_mpi_and_dt_is_mpi_only(self):
        scenarios = scenarios_for_isa("armv7")
        assert not any(s.app in ("DC", "UA") and s.mode == "mpi" for s in scenarios)
        dt_modes = {s.mode for s in scenarios if s.app == "DT"}
        assert dt_modes == {"mpi"}

    def test_application_counts_match_section_332(self):
        serial_apps = [a for a, spec in APPLICATIONS.items() if spec["serial"]]
        omp_apps = [a for a, spec in APPLICATIONS.items() if spec["omp"]]
        mpi_apps = [a for a, spec in APPLICATIONS.items() if spec["mpi"]]
        assert len(serial_apps) == 10
        assert len(omp_apps) == 10
        assert len(mpi_apps) == 9

    def test_scenario_labels(self):
        serial = Scenario("CG", "serial", 1, "armv7")
        omp = Scenario("CG", "omp", 4, "armv8")
        assert serial.api_label == "SER-1"
        assert omp.api_label == "OMP-4"
        assert omp.scenario_id == "CG-OMP-4-armv8"

    def test_suite_filtering(self):
        suite = build_scenario_suite()
        only_is = suite.filter(apps=["IS"], isas=["armv8"])
        assert all(s.app == "IS" and s.isa == "armv8" for s in only_is)
        assert len(only_is) == 7  # 1 serial + 3 omp + 3 mpi

    def test_unknown_application_rejected(self):
        with pytest.raises(KeyError):
            build_program("XX", "serial", "armv8")
        with pytest.raises(ValueError):
            build_program("DT", "serial", "armv8")


class TestProgramConstruction:
    @pytest.mark.parametrize("isa", ["armv7", "armv8"])
    def test_all_program_variants_link(self, isa):
        for app, spec in APPLICATIONS.items():
            for mode in ("serial", "omp", "mpi"):
                if not spec[mode]:
                    continue
                program = build_program(app, mode, isa)
                assert len(program.instructions) > 20
                assert "_start" in program.labels and "main" in program.labels

    def test_program_cache_returns_same_object(self):
        assert build_program("EP", "serial", "armv8") is build_program("EP", "serial", "armv8")

    def test_v7_programs_include_softfloat(self):
        v7 = build_program("CG", "serial", "armv7")
        v8 = build_program("CG", "serial", "armv8")
        assert "__sf_add" in v7.function_ranges
        assert "__sf_add" not in v8.function_ranges

    def test_parallel_variants_link_their_runtime(self):
        omp = build_program("CG", "omp", "armv8")
        mpi = build_program("CG", "mpi", "armv8")
        assert "omp_parallel_for" in omp.function_ranges
        assert "mpi_barrier" in mpi.function_ranges


class TestGoldenExecution:
    @pytest.mark.parametrize("app,mode,cores", [
        ("EP", "serial", 1),
        ("IS", "omp", 2),
        ("CG", "mpi", 2),
        ("DC", "omp", 4),
        ("DT", "mpi", 4),
        ("FT", "serial", 1),
    ])
    def test_armv8_scenarios_complete_cleanly(self, app, mode, cores):
        system = run_scenario(Scenario(app, mode, cores, "armv8"))
        assert system.processes_ok()
        assert system.combined_output().strip() != ""

    @pytest.mark.parametrize("app,mode,cores", [
        ("IS", "serial", 1),
        ("EP", "mpi", 2),
        ("LU", "omp", 2),
    ])
    def test_armv7_scenarios_complete_cleanly(self, app, mode, cores):
        system = run_scenario(Scenario(app, mode, cores, "armv7"))
        assert system.processes_ok()

    def test_golden_runs_are_deterministic(self):
        scenario = Scenario("IS", "omp", 2, "armv8")
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.total_instructions == b.total_instructions
        assert a.combined_output() == b.combined_output()
        assert a.memory_snapshot() == b.memory_snapshot()

    def test_parallel_checksum_matches_serial(self):
        # EP is embarrassingly parallel: the integer hit count must be
        # identical between the serial and OpenMP versions.
        serial = run_scenario(Scenario("EP", "serial", 1, "armv8"))
        omp = run_scenario(Scenario("EP", "omp", 4, "armv8"))
        serial_hits = serial.combined_output().split()[0]
        omp_hits = omp.combined_output().split()[0]
        assert serial_hits == omp_hits

    def test_mpi_uses_all_cores(self):
        system = run_scenario(Scenario("EP", "mpi", 4, "armv8"))
        per_core = [core.stats.instructions for core in system.cores]
        assert all(count > 0 for count in per_core)

    def test_v7_executes_more_instructions_than_v8(self):
        # Table 1 shape: the FP-heavy kernels are much longer on ARMv7
        v7 = run_scenario(Scenario("CG", "serial", 1, "armv7"))
        v8 = run_scenario(Scenario("CG", "serial", 1, "armv8"))
        assert v7.total_instructions > 5 * v8.total_instructions

    def test_omp_load_balance_worse_than_mpi(self):
        # Section 4.2.2: MPI has individual working threads per core,
        # OpenMP leaves the master running serial portions alone.
        mpi = run_scenario(Scenario("IS", "mpi", 4, "armv8"))
        omp = run_scenario(Scenario("IS", "omp", 4, "armv8"))
        assert mpi.load_balance() <= omp.load_balance()

    def test_instruction_budget_is_per_isa(self):
        armv8 = instruction_budget(Scenario("IS", "serial", 1, "armv8"))
        # softfloat makes armv7 runs several times longer
        assert instruction_budget(Scenario("IS", "serial", 1, "armv7")) > armv8 > 0


class TestCommonHelpers:
    def test_modes_and_partials(self):
        assert set(common.MODES) == {"serial", "omp", "mpi"}
        names = [g.name for g in common.partial_globals()]
        assert names == ["partial_f", "partial_i"]

    def test_build_mains_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            common.build_mains("simd", 10)

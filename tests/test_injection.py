"""Tests of the fault injection framework: model, classifier, injector, campaign."""

import pytest

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.classify import (
    RATE_COMPONENTS,
    Outcome,
    classify_run,
    empty_outcome_counts,
    mismatch,
    outcome_percentages,
    rate_pct,
    total_mismatch,
)
from repro.injection.fault import FaultDescriptor, FaultModel, TARGET_GPR, TARGET_PC
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario


@pytest.fixture(scope="module")
def golden_is_armv8():
    return GoldenRunner(model_caches=False).run(Scenario("IS", "serial", 1, "armv8"), collect_stats=False)


class TestFaultModel:
    def test_generation_is_reproducible(self):
        model_a = FaultModel("armv8", cores=2, seed=7)
        model_b = FaultModel("armv8", cores=2, seed=7)
        assert model_a.generate(10_000, 50) == model_b.generate(10_000, 50)

    def test_different_seeds_differ(self):
        a = FaultModel("armv8", cores=2, seed=1).generate(10_000, 50)
        b = FaultModel("armv8", cores=2, seed=2).generate(10_000, 50)
        assert a != b

    def test_targets_within_bounds(self):
        faults = FaultModel("armv7", cores=4, seed=3).generate(5_000, 200)
        for fault in faults:
            assert 1 <= fault.injection_time < 5_000
            assert 0 <= fault.core_id < 4
            if fault.target_kind == TARGET_GPR:
                assert 0 <= fault.register_index < 16
                assert 0 <= fault.bit < 32
            if fault.target_kind == TARGET_PC:
                assert 0 <= fault.bit < 32

    def test_times_cover_the_lifespan(self):
        faults = FaultModel("armv8", cores=1, seed=11).generate(100_000, 400)
        times = [f.injection_time for f in faults]
        assert min(times) < 20_000 and max(times) > 80_000

    def test_gpr_is_default_dominant_target(self):
        faults = FaultModel("armv8", cores=1, seed=5).generate(10_000, 300)
        gpr = sum(1 for f in faults if f.target_kind == TARGET_GPR)
        assert gpr > 250

    def test_fpr_targets_rejected_on_v7(self):
        with pytest.raises(SimulatorError):
            FaultModel("armv7", cores=1, target_mix={"fpr": 1.0})

    def test_memory_targets_need_ranges(self):
        model = FaultModel("armv8", cores=1, target_mix={"memory": 1.0})
        with pytest.raises(SimulatorError):
            model.generate(10_000, 5)
        faults = model.generate(10_000, 5, memory_ranges=[[(0x1000, 0x100)]])
        assert all(0x1000 <= f.address < 0x1100 for f in faults)

    def test_too_short_golden_rejected(self):
        with pytest.raises(SimulatorError):
            FaultModel("armv8", cores=1).generate(2, 5)

    def test_descriptor_labels(self):
        fault = FaultDescriptor(0, 10, 0, TARGET_GPR, 13, 4)
        from repro.isa.arch import ARMV7
        assert fault.target_label(ARMV7) == "sp"
        assert FaultDescriptor(0, 10, 0, TARGET_PC, 0, 1).target_label() == "pc"


class TestClassifier:
    def _classify(self, **overrides):
        defaults = dict(
            any_process_killed=False,
            all_exited_zero=True,
            watchdog_expired=False,
            deadlocked=False,
            output_matches=True,
            memory_matches=True,
            state_matches=True,
        )
        defaults.update(overrides)
        return classify_run(**defaults).outcome

    def test_vanished(self):
        assert self._classify() == Outcome.VANISHED

    def test_ona(self):
        assert self._classify(state_matches=False) == Outcome.ONA

    def test_omm_output_or_memory(self):
        assert self._classify(output_matches=False) == Outcome.OMM
        assert self._classify(memory_matches=False) == Outcome.OMM

    def test_ut_dominates(self):
        assert self._classify(any_process_killed=True, watchdog_expired=True) == Outcome.UT
        assert self._classify(all_exited_zero=False) == Outcome.UT

    def test_hang_on_watchdog_or_deadlock(self):
        assert self._classify(watchdog_expired=True) == Outcome.HANG
        assert self._classify(deadlocked=True, memory_matches=False) == Outcome.HANG

    def test_percentages_and_masking(self):
        counts = empty_outcome_counts()
        counts.update({"Vanished": 50, "ONA": 25, "OMM": 10, "UT": 10, "Hang": 5})
        pct = outcome_percentages(counts)
        assert pct["Vanished"] == 50.0
        assert sum(pct.values()) == pytest.approx(100.0)
        assert rate_pct(counts, "masked") == 75.0

    def test_mismatch_metric(self):
        a = {"Vanished": 60.0, "UT": 40.0}
        b = {"Vanished": 50.0, "UT": 50.0}
        assert mismatch(a, b)["Vanished"] == pytest.approx(10.0)
        assert total_mismatch(a, b) == pytest.approx(20.0)

    def test_empty_counts_are_zero(self):
        assert rate_pct(empty_outcome_counts(), "masked") == 0.0
        assert all(v == 0.0 for v in outcome_percentages(empty_outcome_counts()).values())

    def test_rate_components_cover_every_outcome_once(self):
        components = [c for rate in RATE_COMPONENTS.values() for c in rate]
        assert sorted(components) == sorted(outcome.value for outcome in Outcome)

    def test_rate_pct_rejects_unknown_rate(self):
        with pytest.raises(ValueError, match="unknown rate"):
            rate_pct({"Vanished": 1}, "Vanished")
        with pytest.raises(ValueError, match="unknown rate"):
            rate_pct({}, "bogus")


class TestInjector:
    def test_unused_register_fault_vanishes_or_stays_latent(self, golden_is_armv8):
        scenario = golden_is_armv8.scenario
        injector = FaultInjector(scenario, golden_is_armv8)
        # x17 is never used by the code generator (not in any ABI set)
        fault = FaultDescriptor(0, injection_time=golden_is_armv8.total_instructions // 2,
                                core_id=0, target_kind=TARGET_GPR, register_index=17, bit=3)
        result = injector.run_one(fault)
        assert result.outcome in (Outcome.VANISHED.value, Outcome.ONA.value)

    def test_stack_pointer_fault_is_disruptive(self, golden_is_armv8):
        scenario = golden_is_armv8.scenario
        injector = FaultInjector(scenario, golden_is_armv8)
        # flipping a high bit of SP early in the run sends every stack access
        # to unmapped memory: expect an Unexpected Termination or a Hang
        fault = FaultDescriptor(1, injection_time=200, core_id=0,
                                target_kind=TARGET_GPR, register_index=31, bit=27)
        result = injector.run_one(fault)
        assert result.outcome in (Outcome.UT.value, Outcome.HANG.value)

    def test_pc_fault_high_bit_is_detected(self, golden_is_armv8):
        injector = FaultInjector(golden_is_armv8.scenario, golden_is_armv8)
        fault = FaultDescriptor(2, injection_time=500, core_id=0,
                                target_kind=TARGET_PC, register_index=0, bit=26)
        result = injector.run_one(fault)
        assert result.outcome in (Outcome.UT.value, Outcome.HANG.value)

    def test_injection_is_deterministic(self, golden_is_armv8):
        injector = FaultInjector(golden_is_armv8.scenario, golden_is_armv8)
        fault = FaultDescriptor(3, injection_time=1234, core_id=0,
                                target_kind=TARGET_GPR, register_index=2, bit=12)
        first = injector.run_one(fault)
        second = injector.run_one(fault)
        assert first.outcome == second.outcome
        assert first.executed_instructions == second.executed_instructions

    def test_result_record_fields(self, golden_is_armv8):
        injector = FaultInjector(golden_is_armv8.scenario, golden_is_armv8)
        fault = FaultDescriptor(4, injection_time=100, core_id=0,
                                target_kind=TARGET_GPR, register_index=0, bit=0)
        record = injector.run_one(fault).as_record()
        assert record["scenario_id"] == golden_is_armv8.scenario.scenario_id
        assert record["outcome"] in {o.value for o in Outcome}
        assert record["injection_time"] == 100


class TestGoldenRunner:
    def test_golden_captures_reference_behaviour(self, golden_is_armv8):
        assert golden_is_armv8.exit_ok
        assert golden_is_armv8.total_instructions > 1_000
        assert golden_is_armv8.output.strip() != ""
        assert golden_is_armv8.memory_snapshots
        assert golden_is_armv8.watchdog_budget() >= 4 * golden_is_armv8.total_instructions

    def test_golden_collects_stats_when_requested(self):
        golden = GoldenRunner(model_caches=True).run(Scenario("EP", "serial", 1, "armv8"))
        assert golden.stats["total_instructions"] > 0
        assert "total_branch_pct" in golden.stats
        assert golden.stats["arch_has_hw_float"] == 1.0


class TestScenarioCampaign:
    def test_small_campaign_end_to_end(self):
        config = CampaignConfig(faults_per_scenario=25, seed=99)
        campaign = ScenarioCampaign(Scenario("IS", "serial", 1, "armv8"), config)
        report = campaign.run()
        assert report.faults_injected == 25
        assert sum(report.counts.values()) == 25
        assert 0.0 <= report.masking_rate_pct <= 100.0
        assert report.golden_summary["instructions"] > 0
        record = report.as_record()
        assert record["faults"] == 25
        assert "pct_Vanished" in record

    def test_fault_list_reproducible_across_campaigns(self):
        config = CampaignConfig(faults_per_scenario=10, seed=5)
        scenario = Scenario("IS", "serial", 1, "armv8")
        a = ScenarioCampaign(scenario, config)
        b = ScenarioCampaign(scenario, config)
        assert a.build_fault_list() == b.build_fault_list()

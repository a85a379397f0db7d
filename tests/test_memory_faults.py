"""Tests of the memory/cache fault dimension.

Covers the plumbing of layout-derived memory ranges from the golden run
into the fault model, the write-back-aware cache fault semantics, the
explicit not-injected outcome, and the end-to-end acceptance invariant:
a campaign with ``target_mix={"gpr": 0.6, "memory": 0.3, "cache": 0.1}``
runs on both ISAs and all three programming models, produces nonzero
memory and cache injections classified into the five outcome
categories, and is bit-reproducible given (scenario, seed, count).
"""

import hashlib
import json

import pytest

from repro.analysis.target_table import (
    render_target_table,
    target_masking_matrix,
    target_masking_rows,
)
from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign, summarize
from repro.injection.classify import (
    NOT_INJECTED,
    OUTCOME_ORDER,
    Outcome,
    outcome_percentages,
    rate_pct,
)
from repro.injection.fault import (
    TARGET_CACHE,
    TARGET_FPR,
    TARGET_GPR,
    TARGET_MEMORY,
    FaultDescriptor,
    FaultModel,
)
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector
from repro.memory.cache import Cache, CacheConfig
from repro.npb.suite import Scenario, build_scenario_suite
from repro.orchestration.database import ResultsDatabase

#: The acceptance-criterion mix of the memory/cache fault dimension.
ACCEPTANCE_MIX = {"gpr": 0.6, "memory": 0.3, "cache": 0.1}

#: sha256 of the canonical JSON of the IS-MPI-2-armv8 fault list (400
#: faults, gpr 0.4 / memory 0.4 / cache 0.2, seed 5).
MPI_FAULT_LIST_SHA256 = "c265e8ab20d4ce231f048c373fd4a753113e477cd3a6e914227afd4f00f0a9a3"

#: The five Cho categories — everything an *unhardened* campaign can
#: produce (Detected needs a hardened binary; see tests/test_hardening.py).
OUTCOME_VALUES = {outcome.value for outcome in OUTCOME_ORDER}


@pytest.fixture(scope="module")
def golden_cached():
    """IS serial armv8 golden run with cache modelling and checkpoints."""
    return GoldenRunner(model_caches=True, checkpoint_interval=512).run(
        Scenario("IS", "serial", 1, "armv8"), collect_stats=False
    )


@pytest.fixture(scope="module")
def golden_armv7():
    return GoldenRunner(model_caches=False).run(
        Scenario("IS", "serial", 1, "armv7"), collect_stats=False
    )


@pytest.fixture(scope="module")
def mixed_reports():
    """Mixed-target campaigns across both ISAs and all three models."""
    reports = {}
    for isa in ("armv7", "armv8"):
        for mode, cores in (("serial", 1), ("omp", 2), ("mpi", 2)):
            scenario = Scenario("IS", mode, cores, isa)
            config = CampaignConfig(faults_per_scenario=32, seed=2018, target_mix=ACCEPTANCE_MIX)
            reports[scenario.scenario_id] = ScenarioCampaign(scenario, config).run()
    return reports


class _FixedRoll:
    """Stub RNG whose roll lands beyond any float-drifted cumulative sum."""

    def random(self) -> float:
        return 1.0


class TestPickKindFallback:
    def test_overflow_roll_lands_in_the_tail(self):
        # Five equal weights: cumulative addition of the normalised 0.2s
        # drifts, and a roll beyond the accumulated total must fall into
        # the LAST kind of the mix — returning the first would silently
        # skew the distribution toward the head.
        mix = {"gpr": 0.1, "pc": 0.1, "memory": 0.1, "cache": 0.1, "fpr": 0.1}
        model = FaultModel("armv8", cores=1, target_mix=mix)
        assert model._pick_kind(_FixedRoll()) == "fpr"

    def test_zero_weight_kinds_are_dropped(self):
        # A zero-weight kind must be unreachable even through the drift
        # fallback — otherwise the per-job mix enforcement would reject a
        # fault the model itself generated.
        model = FaultModel("armv8", cores=1, target_mix={"gpr": 1.0, "cache": 0.0})
        assert "cache" not in model.target_mix
        assert model._pick_kind(_FixedRoll()) == "gpr"

    def test_adversarial_mix_generates_only_listed_kinds(self):
        mix = {"memory": 0.1, "cache": 0.1, "gpr": 0.1}
        model = FaultModel("armv8", cores=1, seed=13, target_mix=mix)
        faults = model.generate(10_000, 200, memory_ranges=[[(0x1000, 0x100)]])
        kinds = {fault.target_kind for fault in faults}
        assert kinds <= {"memory", "cache", "gpr"}
        # the tail kind must actually be reachable
        assert "gpr" in kinds


class TestNotInjected:
    def test_completion_before_injection_point_is_not_an_outcome(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        fault = FaultDescriptor(
            0,
            injection_time=golden_cached.total_instructions + 10,
            core_id=0,
            target_kind=TARGET_GPR,
            register_index=3,
            bit=1,
        )
        result = injector.run_one(fault)
        assert result.outcome == NOT_INJECTED
        assert "not applied" in result.detail

    def test_not_injected_excluded_from_percentages(self):
        counts = {"Vanished": 1, "UT": 1, NOT_INJECTED: 8}
        pct = outcome_percentages(counts)
        assert NOT_INJECTED not in pct
        assert pct["Vanished"] == pytest.approx(50.0)
        assert rate_pct(counts, "masked") == pytest.approx(50.0)

    def test_pre_injection_hang_is_an_error_not_a_result(self, golden_cached):
        # A watchdog expiry on the fault-free prefix means the budget is
        # broken; it must not be misfiled as "completed before injection".
        import dataclasses
        crippled = dataclasses.replace(golden_cached)
        crippled.watchdog_budget = lambda multiplier=4: 500
        injector = FaultInjector(crippled.scenario, crippled, use_checkpoints=False)
        fault = FaultDescriptor(0, injection_time=20_000, core_id=0,
                                target_kind=TARGET_GPR, register_index=3, bit=1)
        with pytest.raises(SimulatorError, match="watchdog expired"):
            injector.run_one(fault)

    def test_summary_reports_injected_count(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        beyond = golden_cached.total_instructions + 5
        faults = [
            FaultDescriptor(0, injection_time=100, core_id=0, target_kind=TARGET_GPR,
                            register_index=17, bit=0),
            FaultDescriptor(1, injection_time=beyond, core_id=0, target_kind=TARGET_GPR,
                            register_index=17, bit=0),
        ]
        report = summarize(golden_cached.scenario, golden_cached, injector.run_many(faults), 0.0)
        assert report.faults_injected == 1
        assert report.counts[NOT_INJECTED] == 1
        assert report.as_record()["count_NotInjected"] == 1
        assert sum(report.percentages.values()) == pytest.approx(100.0)


class TestFprGuard:
    def test_fpr_fault_on_archs_without_fpr_is_an_error(self, golden_armv7):
        injector = FaultInjector(golden_armv7.scenario, golden_armv7)
        fault = FaultDescriptor(0, injection_time=500, core_id=0,
                                target_kind=TARGET_FPR, register_index=0, bit=3)
        with pytest.raises(SimulatorError):
            injector.run_one(fault)


class TestMemoryRangePlumbing:
    def test_golden_records_segment_layout(self, golden_cached):
        assert len(golden_cached.memory_ranges) == len(golden_cached.process_names) == 1
        names = {name for _base, _size, name in golden_cached.memory_ranges[0]}
        assert "data" in names and "heap" in names
        assert any(name.startswith("stack") for name in names)

    def test_mpi_golden_records_per_rank_layouts(self):
        golden = GoldenRunner(model_caches=False).run(
            Scenario("IS", "mpi", 2, "armv8"), collect_stats=False
        )
        assert len(golden.memory_ranges) == 2
        assert all(ranges for ranges in golden.memory_ranges)

    def test_multi_process_fault_list_is_pinned(self):
        # Memory and cache faults over two ranks: the pin holds the
        # process draw and the range and address draws byte-identical.
        campaign = ScenarioCampaign(
            Scenario("IS", "mpi", 2, "armv8"),
            CampaignConfig(seed=5, target_mix={"gpr": 0.4, "memory": 0.4, "cache": 0.2}),
        )
        faults = campaign.build_fault_list(400)
        assert {fault.process_index for fault in faults} == {0, 1}
        payload = json.dumps([fault.as_dict() for fault in faults], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == MPI_FAULT_LIST_SHA256

    def test_campaign_memory_faults_land_in_recorded_ranges(self, golden_cached):
        campaign = ScenarioCampaign(
            golden_cached.scenario, CampaignConfig(seed=5, target_mix={"memory": 1.0})
        )
        campaign.golden = golden_cached
        faults = campaign.build_fault_list(50)
        spans = [
            (base, base + size) for base, size, _name in golden_cached.memory_ranges[0]
        ]
        assert len(faults) == 50
        for fault in faults:
            assert fault.target_kind == TARGET_MEMORY
            assert any(lo <= fault.address < hi for lo, hi in spans)

    def test_empty_per_process_ranges_rejected(self):
        model = FaultModel("armv8", cores=1, seed=1, target_mix={"memory": 1.0})
        with pytest.raises(SimulatorError):
            model.generate(10_000, 5, memory_ranges=[[]])


class TestCacheModel:
    def _cache(self, **overrides):
        config = dict(name="c", size_bytes=128, associativity=1, line_bytes=64)
        config.update(overrides)
        return Cache(CacheConfig(**config))

    def test_inject_on_empty_cache_is_a_miss(self):
        assert self._cache().inject_resident_fault(0, 0) is None

    def test_hit_consumes_the_corrupted_copy(self):
        cache = self._cache()
        seen = []
        cache.fault_sink = lambda line, byte, bit: seen.append((line, byte, bit))
        cache.access(0x100)
        target = cache.inject_resident_fault(7, 9)  # byte 1, bit 1 of the line
        assert target == (0x100 >> 6, 1, 1)
        cache.access(0x120)  # same 64-byte line: hit -> fault propagates
        assert seen == [(0x100 >> 6, 1, 1)]
        cache.access(0x100)  # pending cleared: no second propagation
        assert len(seen) == 1

    def test_clean_eviction_masks_the_fault(self):
        cache = self._cache()  # 2 sets x 1 way
        seen = []
        cache.fault_sink = lambda line, byte, bit: seen.append((line, byte, bit))
        cache.access(0x000)  # line 0 -> set 0, clean
        cache.inject_resident_fault(0, 3)
        cache.access(0x080)  # line 2 -> set 0: evicts clean line 0
        assert seen == []
        assert cache.dump_state()["pending"] == {}

    def test_dirty_eviction_writes_the_fault_back(self):
        cache = self._cache()
        seen = []
        cache.fault_sink = lambda line, byte, bit: seen.append((line, byte, bit))
        cache.access(0x000, write=True)  # line 0 dirty (write-allocate)
        cache.inject_resident_fault(0, 3)
        cache.access(0x080)  # evicts dirty line 0: write-back carries the flip
        assert seen == [(0, 0, 3)]

    def test_dirty_state_follows_writes(self):
        cache = self._cache()
        cache.access(0x000)
        assert not cache.is_dirty(0x000)
        cache.access(0x000, write=True)
        assert cache.is_dirty(0x000)
        cache.access(0x080)  # eviction clears dirty tracking
        assert not cache.is_dirty(0x000)

    def test_checkpoint_roundtrip_preserves_fault_state(self):
        cache = self._cache()
        cache.access(0x000, write=True)
        cache.access(0x040)
        cache.inject_resident_fault(0, 11)
        state = cache.dump_state()

        restored = self._cache()
        restored.load_state(state)
        assert restored.resident_lines() == cache.resident_lines()
        assert restored.is_dirty(0x000) and not restored.is_dirty(0x040)
        seen = []
        restored.fault_sink = lambda line, byte, bit: seen.append((line, byte, bit))
        restored.access(0x000)  # hit on the corrupted line propagates
        assert seen == [(0, 1, 3)]

    def test_flush_drops_pending_faults(self):
        cache = self._cache()
        cache.access(0x000, write=True)
        cache.inject_resident_fault(0, 0)
        cache.flush()
        assert cache.resident_lines() == []
        assert cache.dump_state()["pending"] == {}
        assert cache.dump_state()["dirty"] == []


class TestCacheFaultInjection:
    def _cache_fault(self, golden, injection_time, level="l1d", selector=0, bit=0):
        return FaultDescriptor(
            0,
            injection_time=injection_time,
            core_id=0,
            target_kind=TARGET_CACHE,
            register_index=selector,
            bit=bit,
            cache_level=level,
        )

    def test_cache_fault_runs_and_is_deterministic(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        fault = self._cache_fault(
            golden_cached, golden_cached.total_instructions // 2, selector=11, bit=100
        )
        first = injector.run_one(fault)
        second = injector.run_one(fault)
        assert first.outcome in OUTCOME_VALUES
        assert (first.outcome, first.detail, first.executed_instructions) == (
            second.outcome, second.detail, second.executed_instructions
        )

    def test_empty_l1d_reports_invalid_entry(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        result = injector.run_one(self._cache_fault(golden_cached, 1, level="l1d"))
        assert "invalid entry" in result.detail
        assert result.outcome == Outcome.VANISHED.value

    def test_restored_equals_boot_for_memory_and_cache_faults(self, golden_cached):
        campaign = ScenarioCampaign(
            golden_cached.scenario,
            CampaignConfig(seed=3, target_mix={"memory": 0.5, "cache": 0.5}),
        )
        campaign.golden = golden_cached
        faults = campaign.build_fault_list(12)
        fast = FaultInjector(golden_cached.scenario, golden_cached, use_checkpoints=True)
        slow = FaultInjector(golden_cached.scenario, golden_cached, use_checkpoints=False)
        restored = [(r.outcome, r.detail, r.executed_instructions) for r in fast.run_many(faults)]
        booted = [(r.outcome, r.detail, r.executed_instructions) for r in slow.run_many(faults)]
        assert restored == booted
        # Memory faults decided at the injection point restore nothing;
        # every other fault fast-forwards from a checkpoint.
        assert fast.boot_replays == 0
        assert fast.fast_forwards + fast.decided == len(faults)

    def test_cache_fault_without_cache_checkpoints_falls_back_to_boot(self):
        golden = GoldenRunner(model_caches=False, checkpoint_interval=512).run(
            Scenario("IS", "serial", 1, "armv8"), collect_stats=False
        )
        injector = FaultInjector(golden.scenario, golden)
        fault = self._cache_fault(golden, golden.total_instructions // 2, selector=5, bit=8)
        result = injector.run_one(fault)
        assert result.outcome in OUTCOME_VALUES
        # cache-less checkpoints cannot seed a cache-modelling system
        assert injector.boot_replays == 1


class TestTargetedMemoryOutcomes:
    def _ranges(self, golden):
        return {name: (base, size) for base, size, name in golden.memory_ranges[0]}

    def test_padding_flip_is_output_mismatch(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        data_base, data_size = self._ranges(golden_cached)["data"]
        fault = FaultDescriptor(0, injection_time=golden_cached.total_instructions // 2,
                                core_id=0, target_kind=TARGET_MEMORY, register_index=0,
                                bit=0, address=data_base + data_size - 1)
        result = injector.run_one(fault)
        assert result.outcome == Outcome.OMM.value

    def test_dead_stack_flip_vanishes(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        ranges = self._ranges(golden_cached)
        stack_base, _size = next(v for k, v in ranges.items() if k.startswith("stack"))
        fault = FaultDescriptor(0, injection_time=golden_cached.total_instructions // 2,
                                core_id=0, target_kind=TARGET_MEMORY, register_index=0,
                                bit=0, address=stack_base)
        result = injector.run_one(fault)
        assert result.outcome == Outcome.VANISHED.value

    def test_return_address_flip_terminates_abnormally(self, golden_cached):
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        ranges = self._ranges(golden_cached)
        stack_name, (stack_base, stack_size) = next(
            (k, v) for k, v in ranges.items() if k.startswith("stack")
        )
        injection_time = golden_cached.total_instructions // 2
        system = injector._system_at(injection_time)
        system.run(max_instructions=golden_cached.watchdog_budget(),
                   stop_at_instruction=injection_time)
        core = system.cores[0]
        sp = core.regs.read(core.arch.abi.sp)
        segment = system.kernel.processes[0].address_space.segment_by_name(stack_name)
        # scan the live stack region for a saved code address
        candidates = []
        for offset in range(max(0, sp - stack_base), segment.size - 4, 4):
            word = int.from_bytes(segment.data[offset:offset + 4], "little")
            if 0x1_0000 <= word < 0x2_0000 and word % 4 == 0:
                candidates.append(stack_base + offset)
        assert candidates, "no saved return address found on the live stack"
        # flipping bit 7 of the high byte sends the return outside text
        fault = FaultDescriptor(0, injection_time=injection_time, core_id=0,
                                target_kind=TARGET_MEMORY, register_index=0,
                                bit=7, address=candidates[0] + 3)
        result = injector.run_one(fault)
        assert result.outcome in (Outcome.UT.value, Outcome.HANG.value)

    def test_unmapped_target_is_noted(self, golden_cached):
        # Thread stacks can be mapped after the injection point; the flip
        # then lands outside the live image and must not crash the run.
        injector = FaultInjector(golden_cached.scenario, golden_cached)
        ranges = self._ranges(golden_cached)
        heap_base, heap_size = ranges["heap"]
        fault = FaultDescriptor(0, injection_time=10, core_id=0,
                                target_kind=TARGET_MEMORY, register_index=0, bit=0,
                                address=heap_base + heap_size + 0x800)  # guard gap
        result = injector.run_one(fault)
        assert "unmapped at injection point" in result.detail
        assert result.outcome == Outcome.VANISHED.value


class TestMixedCampaigns:
    def test_every_scenario_injects_memory_and_cache_faults(self, mixed_reports):
        assert len(mixed_reports) == 6
        for scenario_id, report in mixed_reports.items():
            kinds = {r.fault.target_kind for r in report.results}
            assert TARGET_MEMORY in kinds, scenario_id
            assert TARGET_CACHE in kinds, scenario_id
            assert {r.outcome for r in report.results} <= OUTCOME_VALUES | {NOT_INJECTED}
            assert report.faults_injected + report.counts.get(NOT_INJECTED, 0) == 32

    def test_all_five_categories_reachable(self, mixed_reports):
        reached = set()
        for report in mixed_reports.values():
            reached |= {outcome for outcome, count in report.counts.items() if count}
        # Hang is rare under small campaigns; demonstrate it with a known
        # deterministic producer drawn from the same target-kind space
        # (a gpr fault that leaves every remaining thread blocked).
        scenario = Scenario("IS", "omp", 4, "armv7")
        golden = GoldenRunner(model_caches=False).run(scenario, collect_stats=False)
        injector = FaultInjector(scenario, golden)
        hang_fault = FaultDescriptor(0, injection_time=43208, core_id=0,
                                     target_kind=TARGET_GPR, register_index=11, bit=6)
        result = injector.run_one(hang_fault)
        assert result.outcome == Outcome.HANG.value
        reached.add(result.outcome)
        assert OUTCOME_VALUES <= reached

    def test_campaign_is_bit_reproducible(self, mixed_reports):
        scenario = Scenario("IS", "serial", 1, "armv8")
        config = CampaignConfig(faults_per_scenario=32, seed=2018, target_mix=ACCEPTANCE_MIX)
        rerun = ScenarioCampaign(scenario, config).run()
        reference = mixed_reports[scenario.scenario_id]
        assert [(r.fault, r.outcome, r.executed_instructions) for r in rerun.results] == [
            (r.fault, r.outcome, r.executed_instructions) for r in reference.results
        ]


class TestTargetMixAxis:
    def test_scenario_mix_tags_the_scenario_id(self):
        scenario = Scenario("IS", "serial", 1, "armv8").with_target_mix(ACCEPTANCE_MIX)
        assert scenario.scenario_id == "IS-SER-1-armv8-gpr0.6+memory0.3+cache0.1"
        assert scenario.target_mix_dict() == ACCEPTANCE_MIX
        assert scenario.describe()["target_mix"] == "gpr0.6+memory0.3+cache0.1"

    def test_config_level_mix_labels_the_report(self, mixed_reports):
        # The record column must reflect the mix the faults were drawn
        # from even when it was set at campaign (config) level.
        report = mixed_reports["IS-SER-1-armv8"]
        assert report.target_mix_label == "gpr0.6+memory0.3+cache0.1"
        assert report.as_record()["target_mix"] == "gpr0.6+memory0.3+cache0.1"

    def test_scenario_mix_overrides_config_mix(self):
        scenario = Scenario("IS", "serial", 1, "armv8").with_target_mix({"gpr": 1.0})
        campaign = ScenarioCampaign(scenario, CampaignConfig(target_mix={"pc": 1.0}))
        assert campaign.resolved_target_mix() == {"gpr": 1.0}

    def test_suite_sweep_opens_the_target_dimension(self):
        suite = build_scenario_suite(isas=("armv8",)).filter(apps=["IS"])
        mixed = suite.with_target_mix(ACCEPTANCE_MIX)
        assert all(s.target_mix_dict() == ACCEPTANCE_MIX for s in mixed)
        swept = suite.sweep_target_mixes([None, ACCEPTANCE_MIX])
        assert len(swept) == 2 * len(suite)
        assert len({s.scenario_id for s in swept}) == len(swept)


class TestTargetTable:
    def test_rows_cover_the_target_classes(self, mixed_reports):
        database = ResultsDatabase()
        database.add_reports(mixed_reports.values())
        rows = target_masking_rows(database)
        targets = {(row["isa"], row["mode"], row["target"]) for row in rows}
        for isa in ("armv7", "armv8"):
            for mode in ("serial", "omp", "mpi"):
                for group in ("register", "memory", "cache"):
                    assert (isa, mode, group) in targets
        for row in rows:
            assert 0.0 <= row["masking_rate_pct"] <= 100.0
            assert row["injections"] > 0

    def test_matrix_pivots_masking_rates(self, mixed_reports):
        database = ResultsDatabase()
        database.add_reports(mixed_reports.values())
        matrix = target_masking_matrix(database)
        assert len(matrix) == 6
        for row in matrix:
            assert {"register_masking_pct", "memory_masking_pct", "cache_masking_pct"} <= set(row)

    def test_render_contains_all_dimensions(self, mixed_reports):
        database = ResultsDatabase()
        database.add_reports(mixed_reports.values())
        text = render_target_table(database)
        for token in ("register", "memory", "cache", "masking rate", "armv7", "armv8"):
            assert token in text

"""Tests of checkpoint-rollback recovery (the ``+rec`` hardening axis).

Covers the recovery scheme grammar, the Recovered outcome's exact place
in the classifier's dominance order, the injector's rollback loop
(boot-rollback, walk-back through latent-corruption snapshots, bounded
retries with escalation), the recovery metadata's serialisation through
records/payloads (including legacy-payload tolerance), the recovery
analysis table — and the acceptance campaign: 2 ISAs x {serial, omp}
x {dwc, dwc+rec} through ``run_suite`` with every driver (reference,
resume, leased, pooled, adaptive) producing bit-identical fingerprints,
while non-recovery fingerprints stay pinned to their pre-recovery
golden value.
"""

import hashlib
import itertools

import pytest

from repro.analysis.hardening_table import hardening_rows
from repro.analysis.recovery_table import recovery_rows, render_recovery_table
from repro.hardening import (
    DEFAULT_RECOVERY_RETRIES,
    compile_scheme,
    hardening_label,
    normalize_hardening,
    recovery_retries,
)
from repro.injection.campaign import (
    CampaignConfig,
    ScenarioCampaign,
    ScenarioReport,
)
from repro.injection.classify import (
    NOT_INJECTED,
    Outcome,
    classify_run,
    rate_pct,
)
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector, InjectionResult
from repro.npb.suite import Scenario, ScenarioSuite, instruction_budget
from repro.orchestration import CampaignRunner, CampaignStore
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint

SEED = 2018

#: sha256 of the canonical fingerprint of the non-recovery reference
#: campaign below (IS serial 1-core, {off, dwc}, 40 faults, seed 2018,
#: armv7 then armv8), captured at the commit *before* recovery existed.
#: Recovery is harness-side only: rec-less binaries, fault lists and
#: records must keep producing byte-identical results.
PRE_RECOVERY_FINGERPRINT_SHA256 = (
    "d74429999107de4b2b92b468a77981e9b0b2578297e8fc2dc551b08f03a1d972"
)
PRE_RECOVERY_FINGERPRINT_LEN = 61792


# ---------------------------------------------------------------------------
# scheme grammar
# ---------------------------------------------------------------------------


class TestRecoveryGrammar:
    def test_normalization_and_canonical_order(self):
        assert normalize_hardening("dwc+rec") == "dwc+rec"
        assert normalize_hardening("rec+dwc") == "dwc+rec"
        assert normalize_hardening("rec2+cfc+dwc4") == "dwc4+cfc+rec2"
        assert hardening_label("rec+dwc") == "dwc+rec"

    def test_rec_requires_a_detection_component(self):
        for scheme in ("rec", "rec3"):
            with pytest.raises(ValueError, match="no detection component"):
                normalize_hardening(scheme)

    def test_rec_bounds(self):
        assert recovery_retries("dwc+rec") == DEFAULT_RECOVERY_RETRIES
        assert recovery_retries("dwc+rec1") == 1
        assert recovery_retries("cfc+rec7") == 7
        assert recovery_retries("dwc") is None
        assert recovery_retries("off") is None
        assert recovery_retries(None) is None
        with pytest.raises(ValueError):
            normalize_hardening("dwc+rec0")

    def test_compile_scheme_strips_recovery_only(self):
        assert compile_scheme("dwc+rec") == "dwc"
        assert compile_scheme("rec5+cfc+dwc2") == "dwc2+cfc"
        assert compile_scheme("dwc+cfc") == "dwc+cfc"
        assert compile_scheme("off") is None
        assert compile_scheme(None) is None

    def test_scenario_id_carries_the_policy(self):
        scenario = Scenario("IS", "serial", 1, "armv8", hardening="rec2+dwc")
        assert scenario.scenario_id.endswith("-dwc+rec2")
        twin = scenario.with_hardening(compile_scheme(scenario.hardening))
        assert twin.scenario_id.endswith("-dwc")

    def test_instruction_budget_ignores_recovery_component(self):
        rec = Scenario("IS", "serial", 1, "armv8", hardening="dwc+rec")
        dwc = Scenario("IS", "serial", 1, "armv8", hardening="dwc")
        assert instruction_budget(rec) == instruction_budget(dwc)


# ---------------------------------------------------------------------------
# classifier dominance
# ---------------------------------------------------------------------------


def _classify(**overrides):
    kwargs = dict(
        any_process_killed=False,
        all_exited_zero=True,
        watchdog_expired=False,
        deadlocked=False,
        output_matches=True,
        memory_matches=True,
        state_matches=True,
        fault_detected=False,
        recovery_rollbacks=0,
    )
    kwargs.update(overrides)
    return classify_run(**kwargs)


class TestRecoveredClassification:
    def test_clean_rollback_is_recovered(self):
        outcome = _classify(recovery_rollbacks=1)
        assert outcome.outcome is Outcome.RECOVERED
        assert "golden output reproduced" in outcome.detail

    def test_latent_state_divergence_still_recovered_but_noted(self):
        outcome = _classify(recovery_rollbacks=2, state_matches=False)
        assert outcome.outcome is Outcome.RECOVERED
        assert "latent architectural state divergence" in outcome.detail

    def test_escalated_detection_dominates_recovered(self):
        # Detection survived the retry budget: fail-stop Detected, with
        # the rollback history in the detail.
        outcome = _classify(recovery_rollbacks=3, fault_detected=True)
        assert outcome.outcome is Outcome.DETECTED
        assert "persisted through 3 rollback(s)" in outcome.detail

    def test_silent_divergence_after_rollback_is_omm_not_recovered(self):
        # Recovery must never hide a wrong answer: a run that rolled
        # back and then completed with different output/memory is an
        # OMM, exactly as if no recovery had happened.
        for mismatch in ({"output_matches": False}, {"memory_matches": False}):
            outcome = _classify(recovery_rollbacks=1, **mismatch)
            assert outcome.outcome is Outcome.OMM
            assert "silent divergence after 1 rollback(s)" in outcome.detail

    def test_hang_after_rollback_stays_hang(self):
        assert _classify(recovery_rollbacks=1, watchdog_expired=True).outcome is Outcome.HANG
        assert _classify(recovery_rollbacks=1, deadlocked=True).outcome is Outcome.HANG

    def test_crash_after_rollback_stays_ut(self):
        assert _classify(recovery_rollbacks=1, any_process_killed=True).outcome is Outcome.UT
        assert _classify(recovery_rollbacks=1, all_exited_zero=False).outcome is Outcome.UT

    def test_exhaustive_dominance_matrix(self):
        # Recovered is claimed exactly when >=1 rollback happened and
        # NOTHING else is wrong — every abnormal flag, in any
        # combination, takes its usual precedence over Recovered.
        flags = (
            "fault_detected",
            "any_process_killed",
            "watchdog_expired",
            "deadlocked",
            "bad_exit",
            "output_mismatch",
            "memory_mismatch",
        )
        for rollbacks in (0, 2):
            for raised in itertools.product((False, True), repeat=len(flags)):
                named = dict(zip(flags, raised))
                outcome = _classify(
                    recovery_rollbacks=rollbacks,
                    fault_detected=named["fault_detected"],
                    any_process_killed=named["any_process_killed"],
                    watchdog_expired=named["watchdog_expired"],
                    deadlocked=named["deadlocked"],
                    all_exited_zero=not named["bad_exit"],
                    output_matches=not named["output_mismatch"],
                    memory_matches=not named["memory_mismatch"],
                ).outcome
                if any(raised):
                    assert outcome is not Outcome.RECOVERED, named
                    # the pre-recovery ladder is untouched
                    if named["fault_detected"]:
                        assert outcome is Outcome.DETECTED
                    elif named["any_process_killed"]:
                        assert outcome is Outcome.UT
                    elif named["watchdog_expired"] or named["deadlocked"]:
                        assert outcome is Outcome.HANG
                elif rollbacks > 0:
                    assert outcome is Outcome.RECOVERED
                else:
                    assert outcome is Outcome.VANISHED

    def test_recovered_rate_pct_excludes_not_injected(self):
        counts = {"Vanished": 5, "Recovered": 3, "Detected": 2, NOT_INJECTED: 10}
        assert rate_pct(counts, "Recovered") == pytest.approx(100.0 * 3 / 10)
        assert rate_pct({"Vanished": 4}, "Recovered") == 0.0
        assert rate_pct({}, "Recovered") == 0.0


# ---------------------------------------------------------------------------
# the rollback loop, injector level
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recovery_campaign():
    """One recovery campaign and its rec-less twin on the same faults."""
    # armv7: this seed's fault list includes both shallow-latency
    # detections (recover on the first rollback) and a deep-latency one
    # whose corrupted live snapshot forces a multi-rollback walk-back
    config = CampaignConfig(faults_per_scenario=150, seed=SEED, checkpoint_interval=1000)
    twin = ScenarioCampaign(Scenario("IS", "serial", 1, "armv7", hardening="dwc"), config)
    rec = ScenarioCampaign(Scenario("IS", "serial", 1, "armv7", hardening="dwc+rec"), config)
    return twin.run(), rec.run(), twin, rec


class TestRollbackLoop:
    def test_same_fault_list_as_the_recless_twin(self, recovery_campaign):
        twin_report, rec_report, twin, rec = recovery_campaign
        twin_faults = [f.as_dict() for f in twin.build_fault_list()]
        rec_faults = [f.as_dict() for f in rec.build_fault_list()]
        assert twin_faults == rec_faults

    def test_detected_becomes_recovered_on_the_same_faults(self, recovery_campaign):
        twin_report, rec_report, _, _ = recovery_campaign
        assert twin_report.counts.get("Detected", 0) > 0
        assert rec_report.counts.get("Recovered", 0) > 0
        assert rec_report.counts.get("Detected", 0) < twin_report.counts.get("Detected", 0)
        # every non-(Detected|Recovered) bucket is untouched by the
        # policy: recovery only intercepts detections
        for outcome in ("Vanished", "ONA", "OMM", "UT", "Hang", NOT_INJECTED):
            assert rec_report.counts.get(outcome, 0) == twin_report.counts.get(outcome, 0)
        assert (
            rec_report.counts.get("Recovered", 0) + rec_report.counts.get("Detected", 0)
            == twin_report.counts.get("Detected", 0)
        )

    def test_recovered_runs_reexecuted_and_finished(self, recovery_campaign):
        _, rec_report, _, rec = recovery_campaign
        recovered = [r for r in rec_report.results if r.outcome == "Recovered"]
        assert recovered
        for result in recovered:
            assert result.recovery["rollbacks"] >= 1
            assert result.recovery["reexecuted_instructions"] > 0
            assert not result.recovery["escalated"]
            # the recovered run completed the full workload
            assert result.executed_instructions == rec.golden.total_instructions

    def test_unrecovered_detections_carry_escalation(self, recovery_campaign):
        _, rec_report, _, _ = recovery_campaign
        for result in rec_report.results:
            if result.outcome == "Detected":
                assert result.recovery["escalated"]
                assert result.recovery["rollbacks"] >= 1

    def test_boot_rollback_recovers_without_checkpoints(self, recovery_campaign):
        # With checkpointing disabled the implicit boot candidate is the
        # only restore point: a detected fault must still recover, by
        # re-executing from instruction 0.
        twin_report, _, twin, _ = recovery_campaign
        detected = next(r.fault for r in twin_report.results if r.outcome == "Detected")
        scenario = twin.scenario.with_hardening("dwc+rec")
        golden = GoldenRunner(model_caches=False).run(twin.scenario, collect_stats=False)
        assert not golden.checkpoints
        result = FaultInjector(scenario, golden).run_one(detected)
        assert result.outcome == "Recovered"
        assert result.recovery["rollbacks"] == 1
        # boot rollback re-executes the whole detected prefix
        assert result.recovery["reexecuted_instructions"] >= detected.injection_time

    def test_multi_rollback_walkback_reaches_clean_state(self, recovery_campaign):
        # A detection whose latency spans a checkpoint boundary first
        # restores a live snapshot carrying the latent corruption,
        # deterministically re-detects, and walks back to a strictly
        # earlier (clean) restore point.
        _, rec_report, _, _ = recovery_campaign
        multi = [
            r for r in rec_report.results
            if r.recovery is not None and r.recovery["rollbacks"] >= 2
        ]
        assert multi, "expected at least one multi-rollback injection"
        for result in multi:
            assert result.outcome in ("Recovered", "Detected")
            assert result.recovery["reexecuted_instructions"] > 0

    def test_single_retry_budget_escalates_on_redetection(self, recovery_campaign):
        # The same deep-latency fault under rec1: the single retry is
        # burned on the corrupted live snapshot, the re-detection finds
        # the budget empty, and the run escalates to fail-stop Detected.
        _, rec_report, _, rec = recovery_campaign
        multi = next(
            r for r in rec_report.results
            if r.recovery is not None and r.recovery["rollbacks"] >= 2
        )
        injector = FaultInjector(
            rec.scenario.with_hardening("dwc+rec1"),
            rec.golden,
            watchdog_multiplier=rec.config.watchdog_multiplier,
        )
        result = injector.run_one(multi.fault)
        assert result.outcome == "Detected"
        assert result.recovery["escalated"]
        assert result.recovery["rollbacks"] == 1
        assert "persisted through 1 rollback(s)" in result.detail

    def test_not_injected_faults_have_no_recovery_metadata(self, recovery_campaign):
        _, rec_report, _, rec = recovery_campaign
        from repro.injection.fault import FaultDescriptor, TARGET_GPR

        late = FaultDescriptor(
            fault_id=0,
            injection_time=rec.golden.total_instructions + 10,
            core_id=0,
            target_kind=TARGET_GPR,
            register_index=2,
            bit=1,
        )
        injector = FaultInjector(rec.scenario, rec.golden)
        result = injector.run_one(late)
        assert result.outcome == NOT_INJECTED
        assert result.recovery is None


# ---------------------------------------------------------------------------
# serialisation: records, payloads, legacy tolerance
# ---------------------------------------------------------------------------


class TestRecoverySerialisation:
    def test_injection_record_round_trip(self, recovery_campaign):
        _, rec_report, _, _ = recovery_campaign
        recovered = next(r for r in rec_report.results if r.outcome == "Recovered")
        record = recovered.as_record()
        assert record["recovery_rollbacks"] >= 1
        assert record["recovery_escalated"] is False
        back = InjectionResult.from_record(record)
        assert back.recovery == recovered.recovery

    def test_recless_records_have_no_recovery_keys(self, recovery_campaign):
        twin_report, _, _, _ = recovery_campaign
        for result in twin_report.results:
            record = result.as_record()
            assert not any(key.startswith("recovery_") for key in record)

    def test_report_payload_round_trip(self, recovery_campaign):
        twin_report, rec_report, _, _ = recovery_campaign
        back = ScenarioReport.from_payload(rec_report.to_payload())
        assert back.recovery == rec_report.recovery
        assert back.counts == rec_report.counts
        assert "recovery" not in twin_report.to_payload()
        assert ScenarioReport.from_payload(twin_report.to_payload()).recovery is None

    def test_legacy_payload_without_recovery_key_loads(self, recovery_campaign):
        # A store written before the recovery PR has no "recovery" key
        # anywhere; loading must not invent one.
        twin_report, _, _, _ = recovery_campaign
        payload = twin_report.to_payload()
        assert "recovery" not in payload
        legacy = ScenarioReport.from_payload(payload)
        assert legacy.recovery is None

    def test_summary_record_flat_keys_only_for_recovery(self, recovery_campaign):
        twin_report, rec_report, _, _ = recovery_campaign
        rec_record = rec_report.as_record()
        assert rec_record["recovery_retries"] == DEFAULT_RECOVERY_RETRIES
        assert rec_record["recovery_rollbacks"] >= rec_record["recovery_escalations"]
        assert not any(k.startswith("recovery_") for k in twin_report.as_record())


# ---------------------------------------------------------------------------
# analysis tables
# ---------------------------------------------------------------------------


class TestRecoveryTables:
    def _database(self, recovery_campaign):
        twin_report, rec_report, _, _ = recovery_campaign
        database = ResultsDatabase()
        database.add_report(twin_report)
        database.add_report(rec_report)
        return database

    def test_recovery_rows_pair_the_twin(self, recovery_campaign):
        database = self._database(recovery_campaign)
        rows = recovery_rows(database)
        assert len(rows) == 1
        row = rows[0]
        assert row["hardening"] == "dwc+rec"
        assert row["recovered"] > 0
        assert row["recovered_pct"] > 0.0
        assert row["twin_detected_pct"] > row["detected_pct"]
        assert row["rollbacks"] >= row["recovered"]
        assert row["reexecuted_instructions"] > 0
        assert 0.0 < row["reexec_overhead_x"] < 1.0
        assert "rollback" in render_recovery_table(database)

    def test_recovery_rows_empty_on_legacy_store(self, recovery_campaign):
        twin_report, _, _, _ = recovery_campaign
        database = ResultsDatabase()
        database.add_report(twin_report)
        assert recovery_rows(database) == []
        assert "no recovery scenarios" in render_recovery_table(database)

    def test_hardening_table_surfaces_recovered_counts(self, recovery_campaign):
        database = self._database(recovery_campaign)
        by_scheme = {row["hardening"]: row for row in hardening_rows(database)}
        assert by_scheme["dwc+rec"]["recovered"] > 0
        # legacy (pre-recovery) aggregates render 0, never KeyError
        assert by_scheme["dwc"]["recovered"] == 0


# ---------------------------------------------------------------------------
# the acceptance campaign: 2 ISAs x {serial, omp} x {dwc, dwc+rec}
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recovery_sweep(tmp_path_factory):
    suite = ScenarioSuite(
        [Scenario("IS", "serial", 1, isa) for isa in ("armv7", "armv8")]
        + [Scenario("IS", "omp", 2, isa) for isa in ("armv7", "armv8")]
    ).sweep_hardenings(["dwc", "dwc+rec"])
    store_dir = tmp_path_factory.mktemp("recovery-store")
    config = CampaignConfig(faults_per_scenario=150, seed=SEED, checkpoint_interval=1000)
    runner = CampaignRunner(config, workers=0)
    database = runner.run_suite(suite, store=CampaignStore(store_dir), resume=False)
    return suite, store_dir, config, database


class TestRecoveryAcceptanceSweep:
    def test_matrix_completes(self, recovery_sweep):
        suite, _store, _config, database = recovery_sweep
        assert len(suite) == 8  # 2 ISAs x 2 models x 2 schemes
        assert len(database) == 8
        assert not database.failures

    def test_every_cell_recovers_and_strictly_reduces_detected(self, recovery_sweep):
        _suite, _store, _config, database = recovery_sweep
        by_id = {report.scenario.scenario_id: report for report in database.reports.values()}
        rec_reports = [r for r in database.reports.values() if r.recovery is not None]
        assert len(rec_reports) == 4
        for rec_report in rec_reports:
            twin_id = rec_report.scenario.with_hardening("dwc").scenario_id
            twin = by_id[twin_id]
            assert rec_report.counts.get("Recovered", 0) > 0, twin_id
            assert (
                rec_report.counts.get("Detected", 0) < twin.counts.get("Detected", 0)
            ), twin_id

    def test_walkback_escalation_exercised(self, recovery_sweep):
        _suite, _store, _config, database = recovery_sweep
        recovery = [r.recovery for r in database.reports.values() if r.recovery is not None]
        assert sum(meta["multi_retry_injections"] for meta in recovery) >= 1
        assert sum(meta["escalations"] for meta in recovery) >= 1

    def test_resume_is_bit_identical(self, recovery_sweep):
        suite, store_dir, config, database = recovery_sweep
        resumed = CampaignRunner(config, workers=0).run_suite(
            suite, store=CampaignStore(store_dir), resume=True
        )
        assert campaign_fingerprint(resumed) == campaign_fingerprint(database)

    def test_leased_driver_is_bit_identical(self, recovery_sweep, tmp_path):
        suite, _store, config, database = recovery_sweep
        leased = CampaignRunner(config, workers=0).run_leased(
            suite, store=CampaignStore(tmp_path / "leased"), owner="w-acceptance"
        )
        assert campaign_fingerprint(leased) == campaign_fingerprint(database)

    def test_pooled_driver_is_bit_identical(self, recovery_sweep):
        _suite, _store, config, database = recovery_sweep
        subset = [
            Scenario("IS", "serial", 1, "armv8", hardening="dwc"),
            Scenario("IS", "serial", 1, "armv8", hardening="dwc+rec"),
        ]
        pooled = CampaignRunner(config, workers=2).run_suite(subset)
        reference = ResultsDatabase()
        for scenario in subset:
            reference.add_report(database.reports[scenario.scenario_id])
        assert campaign_fingerprint(pooled) == campaign_fingerprint(reference)

    def test_adaptive_driver_is_deterministic_and_tracks_recovered(self, recovery_sweep):
        from repro.stats import SamplingPlan
        from repro.stats.estimators import TRACKED_RATES

        _suite, _store, config, _database = recovery_sweep
        plan = SamplingPlan(
            target_half_width=0.2,
            min_faults=32,
            max_faults=96,
            batch_size=32,
            track=TRACKED_RATES + ("Recovered",),
        )
        subset = [
            Scenario("IS", "serial", 1, "armv8", hardening="dwc"),
            Scenario("IS", "serial", 1, "armv8", hardening="dwc+rec"),
        ]
        first = CampaignRunner(config, workers=0, plan=plan).run_suite(subset)
        second = CampaignRunner(config, workers=0, plan=plan).run_suite(subset)
        assert campaign_fingerprint(first) == campaign_fingerprint(second)
        rec_id = subset[1].scenario_id
        assert "Recovered" in first.reports[rec_id].counts


class TestPreRecoveryFingerprint:
    def test_non_recovery_fingerprint_is_bit_identical_to_pre_recovery(self):
        database = ResultsDatabase()
        for isa in ("armv7", "armv8"):
            for scheme in (None, "dwc"):
                scenario = Scenario(app="IS", mode="serial", cores=1, isa=isa, hardening=scheme)
                report = ScenarioCampaign(
                    scenario, CampaignConfig(faults_per_scenario=40, seed=SEED)
                ).run()
                database.add_report(report)
        fingerprint = campaign_fingerprint(database)
        assert len(fingerprint) == PRE_RECOVERY_FINGERPRINT_LEN
        assert (
            hashlib.sha256(fingerprint.encode()).hexdigest()
            == PRE_RECOVERY_FINGERPRINT_SHA256
        )

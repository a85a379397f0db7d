"""End-to-end validation of the static vulnerability analysis.

Runs a small but real fault-injection campaign (2 ISAs x 2 programming
models, register targets) and checks that the statically predicted
masking ranks the scenarios the same way the measured masking does.
Also pins the campaign fingerprint to its pre-analysis golden value:
the static analysis must not perturb fault lists by even one bit.
"""

import hashlib

import pytest

from repro.injection.campaign import CampaignConfig, Scenario, ScenarioCampaign
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint
from repro.staticlint import analyze_scenario, validate_database

SEED = 2018

#: sha256 of the canonical fingerprint of the reference campaign below
#: (IS serial 1-core, gpr-only mix, 40 faults, seed 2018, armv7 then
#: armv8), captured before the static analysis existed.  Campaigns
#: must keep producing bit-identical results.
GOLDEN_FINGERPRINT_SHA256 = "bad9c06da3f747979c1715abce75b7e6cd83b0ce5dfe995b3f51b0b10fbb80d2"
GOLDEN_FINGERPRINT_LEN = 31224


def _scenarios():
    return [
        Scenario(app="IS", mode=mode, cores=cores, isa=isa, target_mix=(("gpr", 1.0),))
        for isa in ("armv7", "armv8")
        for mode, cores in (("serial", 1), ("omp", 2))
    ]


@pytest.fixture(scope="module")
def validation_database():
    database = ResultsDatabase()
    for scenario in _scenarios():
        campaign = ScenarioCampaign(scenario, CampaignConfig(faults_per_scenario=80, seed=SEED))
        database.add_report(campaign.run())
    return database


class TestPredictedVsMeasured:
    def test_spearman_correlation(self, validation_database):
        report = validate_database(validation_database)
        assert len(report.rows) == 4
        assert report.overall_spearman is not None
        assert report.overall_spearman >= 0.5

    def test_rows_carry_both_quantities(self, validation_database):
        report = validate_database(validation_database)
        for row in report.rows:
            assert 0.0 <= row.predicted_masking_pct <= 100.0
            assert 0.0 <= row.measured_masking_pct <= 100.0
            assert row.faults > 0

    def test_render_mentions_correlation(self, validation_database):
        text = validate_database(validation_database).render()
        assert "Spearman" in text
        assert "predicted" in text.lower()

    def test_prediction_reproduces_isa_ordering(self):
        """The paper's headline: more architectural registers -> more
        masking.  The static prediction alone must already order armv8
        above armv7, before any injection is run."""
        masking = {}
        for isa in ("armv7", "armv8"):
            scenario = Scenario(app="IS", mode="serial", cores=1, isa=isa)
            vulnerability = analyze_scenario(scenario)
            masking[isa] = vulnerability.predicted_masking("gpr")
            assert 0.0 < masking[isa] < 1.0
        assert masking["armv8"] > masking["armv7"]


class TestFingerprintStability:
    def test_unweighted_fingerprint_is_bit_identical_to_pre_analysis(self):
        database = ResultsDatabase()
        for isa in ("armv7", "armv8"):
            scenario = Scenario(app="IS", mode="serial", cores=1, isa=isa, target_mix=(("gpr", 1.0),))
            report = ScenarioCampaign(
                scenario, CampaignConfig(faults_per_scenario=40, seed=SEED)
            ).run()
            database.add_report(report)
        fingerprint = campaign_fingerprint(database)
        assert len(fingerprint) == GOLDEN_FINGERPRINT_LEN
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == GOLDEN_FINGERPRINT_SHA256


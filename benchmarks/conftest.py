"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The
fault-injection campaign that feeds Tables 1-4, Figures 2/3 and
Section 4.2 runs once per session over a configurable scenario
subset; rendered tables/figures are written to ``benchmarks/output/``.

Environment knobs
-----------------
``REPRO_BENCH_FAULTS``   faults per scenario (default 24; paper: 8000)
``REPRO_BENCH_WORKERS``  worker processes (default: up to 8)
``REPRO_BENCH_FULL``     set to 1 to run the full 130-scenario matrix
``REPRO_BENCH_APPS``     comma-separated app subset (default IS,EP,MG,LU)
"""

from __future__ import annotations

import pytest

from bench_helpers import OUTPUT_DIR, bench_faults, bench_scenarios, bench_workers

from repro.injection.campaign import CampaignConfig
from repro.orchestration.runner import CampaignRunner


@pytest.fixture(scope="session")
def campaign_database():
    """Run the fault-injection campaign once for the whole benchmark session."""
    config = CampaignConfig(faults_per_scenario=bench_faults(), seed=2018, keep_individual_results=False)
    runner = CampaignRunner(config, workers=bench_workers(), faults_per_job=8)
    database = runner.run_suite(bench_scenarios())
    database.metadata["faults_per_scenario"] = bench_faults()
    database.metadata["scenarios"] = len(database)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    database.export_csv(OUTPUT_DIR / "campaign_summary.csv")
    return database

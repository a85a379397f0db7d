#!/usr/bin/env python
"""CI smoke test for the software-hardening subsystem.

Runs a tiny hardened-vs-unhardened campaign on one scenario with *the
same fault list* (drawn from the unhardened golden run, so the two
campaigns face identical upsets) and asserts the subsystem's core
claims:

* hardened fault-free golden runs produce the unhardened output (the
  transforms are semantics-preserving);
* the hardened binary detects faults (Detected > 0) and Detected never
  appears in the unhardened campaign;
* the hardened campaign shows a strictly lower OMM share than the
  unhardened baseline;
* the hardening table renders from a swept suite database.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.hardening_table import hardening_rows, render_hardening_table
from repro.injection.campaign import CampaignConfig
from repro.injection.classify import injected_total
from repro.injection.fault import FaultModel
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario, ScenarioSuite
from repro.orchestration import CampaignRunner

SCENARIO = Scenario("LU", "serial", 1, "armv8")
SCHEME = "dwc+cfc"
FAULTS = 150
SEED = 2018


def main() -> int:
    base = SCENARIO
    hardened = base.with_hardening(SCHEME)
    runner = GoldenRunner(model_caches=False, checkpoint_interval=None)
    golden_base = runner.run(base, collect_stats=False)
    golden_hard = runner.run(hardened, collect_stats=False)
    assert golden_hard.output == golden_base.output, "hardening changed fault-free output"
    assert golden_hard.total_instructions > golden_base.total_instructions, (
        "hardened binary should execute more instructions"
    )

    # One fault list for both campaigns: drawn over the unhardened
    # lifespan, so every injection time is valid for the (longer)
    # hardened run too.
    faults = FaultModel(base.isa, cores=base.cores, seed=SEED).generate(
        golden_base.total_instructions, FAULTS
    )
    counts_base = Counter(r.outcome for r in FaultInjector(base, golden_base).run_many(faults))
    counts_hard = Counter(
        r.outcome for r in FaultInjector(hardened, golden_hard).run_many(faults)
    )
    print(f"baseline : {dict(counts_base)}")
    print(f"hardened : {dict(counts_hard)}")

    assert counts_base["Detected"] == 0, "unhardened binary cannot detect faults"
    assert counts_hard["Detected"] > 0, "hardened campaign detected nothing"
    omm_base = counts_base["OMM"] / injected_total(counts_base)
    omm_hard = counts_hard["OMM"] / injected_total(counts_hard)
    assert omm_hard < omm_base, (
        f"hardening did not reduce the OMM share ({omm_hard:.3f} vs {omm_base:.3f})"
    )

    # The axis end to end: a small swept suite through run_suite, and
    # the hardening table rendered from the resulting database.
    suite = ScenarioSuite([base]).sweep_hardenings([None, SCHEME])
    database = CampaignRunner(CampaignConfig(faults_per_scenario=24), workers=0).run_suite(suite)
    rows = hardening_rows(database)
    schemes = {row["hardening"] for row in rows}
    assert schemes == {"off", SCHEME}, f"unexpected scheme rows {schemes}"
    hardened_row = next(row for row in rows if row["hardening"] == SCHEME)
    assert hardened_row["static_overhead_x"] != "-", "static overhead missing"
    assert hardened_row["dynamic_overhead_x"] != "-", "dynamic overhead missing"
    print()
    print(render_hardening_table(database))
    print("\nsmoke_hardened_campaign: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

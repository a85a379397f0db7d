"""Efficiency gate for the CI-driven adaptive sampling engine (PR 9).

For each benchmark scenario the adaptive controller runs to a target
half-width and is charged against the classical fixed-count design for
the same guarantee (``n = ceil(z^2/4w^2)`` — the count a one-shot
campaign must pick to promise that interval on every tracked rate).
A fixed campaign of exactly that size then runs as the accuracy twin:
the adaptive estimates must agree with it to within the two intervals'
combined half-widths.

Results are written to ``benchmarks/output/BENCH_PR9.json`` (generated,
not tracked; CI uploads it as an artifact).  Hard gates:

* every adaptive run converges (stopping rule fires before the budget);
* every achieved half-width is at or under the plan's target;
* the mean fixed/spent saving is at least 3x;
* adaptive point estimates agree with the fixed-count twin's.

A second adaptive pass steered by a prior mined from the fixed twin's
results is recorded alongside (spent, batches, stopping) to track what
mining buys; it shares the convergence gates but not the saving gate —
a prior reshapes early allocation, it does not promise fewer faults on
every workload.
"""

from __future__ import annotations

import dataclasses
import json

from repro.analysis.efficiency_table import fixed_equivalent, render_efficiency_table
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase
from repro.stats import STOP_CONVERGED, MinedPrior, SamplingPlan

from bench_helpers import OUTPUT_DIR, write_output

RESULT_PATH = OUTPUT_DIR / "BENCH_PR9.json"

PLAN = SamplingPlan(
    target_half_width=0.05,
    confidence=0.95,
    min_faults=48,
    max_faults=1024,
    batch_size=48,
)
CONFIG = CampaignConfig(seed=2018)

SCENARIOS = [
    Scenario("IS", "serial", 1, "armv7"),
    Scenario("IS", "serial", 1, "armv8"),
    Scenario("EP", "serial", 1, "armv7"),
]

#: Mean fixed/spent ratio the adaptive engine must clear.
MIN_AVERAGE_SAVING = 3.0


def _estimate_agreement(adaptive: dict, fixed_report) -> list[dict]:
    """Per-rate comparison of adaptive vs fixed-count estimates.

    Agreement criterion: the two point estimates lie within the sum of
    the two interval half-widths of each other — the loosest claim both
    intervals jointly support.
    """
    from repro.stats import outcome_estimates

    fixed_estimates = outcome_estimates(fixed_report.counts, PLAN.confidence)
    rows = []
    for rate, estimate in adaptive["estimates"].items():
        fixed = fixed_estimates[rate]
        tolerance = estimate["half_width"] + fixed.half_width
        rows.append(
            {
                "rate": rate,
                "adaptive": round(estimate["estimate"], 4),
                "fixed": round(fixed.estimate, 4),
                "tolerance": round(tolerance, 4),
                "agree": abs(estimate["estimate"] - fixed.estimate) <= tolerance,
            }
        )
    return rows


def test_bench_adaptive_vs_fixed_count():
    fixed_count = fixed_equivalent(PLAN.target_half_width, PLAN.confidence)
    database = ResultsDatabase()
    scenarios_payload = {}
    fixed_reports = []

    for scenario in SCENARIOS:
        campaign = ScenarioCampaign(scenario, CONFIG)
        report = campaign.run_adaptive(PLAN)
        database.add_report(report)
        fixed_report = ScenarioCampaign(
            scenario, dataclasses.replace(CONFIG, faults_per_scenario=fixed_count)
        ).run()
        fixed_reports.append(fixed_report)
        adaptive = report.adaptive
        achieved = max(e["half_width"] for e in adaptive["estimates"].values())
        scenarios_payload[scenario.scenario_id] = {
            "spent": adaptive["spent"],
            "batches": len(adaptive["batches"]),
            "stopping": adaptive["stopping"],
            "achieved_half_width": round(achieved, 4),
            "fixed_equivalent": fixed_count,
            "saving": round(fixed_count / adaptive["spent"], 3),
            "strata_sampled": adaptive["strata_sampled"],
            "agreement": _estimate_agreement(adaptive, fixed_report),
        }

    # Prior-steered pass: mine the fixed twins (a completed calibration
    # campaign), then rerun adaptively with the prior in the loop.
    prior = MinedPrior.from_reports(fixed_reports)
    for scenario in SCENARIOS:
        steered = ScenarioCampaign(scenario, CONFIG).run_adaptive(PLAN, prior=prior)
        adaptive = steered.adaptive
        scenarios_payload[scenario.scenario_id]["prior_steered"] = {
            "spent": adaptive["spent"],
            "batches": len(adaptive["batches"]),
            "stopping": adaptive["stopping"],
            "achieved_half_width": round(
                max(e["half_width"] for e in adaptive["estimates"].values()), 4
            ),
            "saving": round(fixed_count / adaptive["spent"], 3),
        }

    savings = [entry["saving"] for entry in scenarios_payload.values()]
    average = sum(savings) / len(savings)
    payload = {
        "benchmark": "adaptive CI-driven sampling vs fixed-count campaigns (PR 9)",
        "plan": PLAN.as_dict(),
        "seed": CONFIG.seed,
        "fixed_equivalent": fixed_count,
        "scenarios": scenarios_payload,
        "average_saving": round(average, 3),
        "gates": {
            "min_average_saving": MIN_AVERAGE_SAVING,
            "passed": average >= MIN_AVERAGE_SAVING,
        },
        "prior": {"cells": len(prior.cells), "scenarios": prior.scenarios},
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    from repro.analysis.efficiency_table import efficiency_rows

    write_output(
        "efficiency_table.txt",
        render_efficiency_table(efficiency_rows(database)),
    )

    for scenario_id, entry in scenarios_payload.items():
        assert entry["stopping"] == STOP_CONVERGED, (
            f"{scenario_id} hit the fault budget instead of converging — see {RESULT_PATH}"
        )
        assert entry["achieved_half_width"] <= PLAN.target_half_width
        assert entry["prior_steered"]["stopping"] == STOP_CONVERGED
        assert entry["prior_steered"]["achieved_half_width"] <= PLAN.target_half_width
        for row in entry["agreement"]:
            assert row["agree"], (
                f"{scenario_id} {row['rate']}: adaptive {row['adaptive']} vs fixed "
                f"{row['fixed']} disagree beyond ±{row['tolerance']}"
            )
    assert average >= MIN_AVERAGE_SAVING, (
        f"average saving {average:.2f}x is below the {MIN_AVERAGE_SAVING}x gate — "
        f"see {RESULT_PATH}"
    )

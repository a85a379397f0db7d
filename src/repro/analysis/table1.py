"""Table 1: NPB workload summary per ISA.

The paper reports, per ISA, the smallest / average / largest single-run
simulation time, fault-campaign time and executed instruction count.
The reproduction regenerates the same rows from the golden-run summary
that every scenario report of a campaign database carries; the
headline shape to reproduce is the large ARMv7-vs-ARMv8 gap in
executed instructions caused by the software floating point library.
"""

from __future__ import annotations

from repro.analysis.render import render_table
from repro.orchestration.database import ResultsDatabase


def _summary(values: list[float]) -> dict[str, float]:
    if not values:
        return {"smaller": 0.0, "average": 0.0, "larger": 0.0}
    return {
        "smaller": min(values),
        "average": sum(values) / len(values),
        "larger": max(values),
    }


def _golden_runs(database: ResultsDatabase, isa: str) -> list[tuple[float, int]]:
    """(single-run wall time, executed instructions) of each baseline
    golden run on one ISA (:meth:`ResultsDatabase.baseline_reports`)."""
    return [
        (
            float(report.golden_summary.get("wall_time_seconds", 0.0)),
            int(report.golden_summary.get("instructions", 0)),
        )
        for report in database.baseline_reports()
        if report.scenario.isa == isa
    ]


def table1_rows(
    database: ResultsDatabase,
    faults_per_scenario: int = 8000,
) -> list[dict]:
    """Build the Table 1 rows from a campaign database's golden runs.

    The "fault campaign" figures are projections: single-run wall time
    multiplied by the configured number of faults per scenario, which is
    exactly how the paper's campaign hours relate to its single-run
    seconds.
    """
    rows = []
    for isa in ("armv8", "armv7"):
        subset = _golden_runs(database, isa)
        sim_time = _summary([wall for wall, _ in subset])
        instructions = _summary([float(count) for _, count in subset])
        campaign_hours = _summary(
            [wall * faults_per_scenario / 3600.0 for wall, _ in subset]
        )
        rows.append(
            {
                "metric": "simulation_time_single_run_s",
                "isa": isa,
                **{k: round(v, 4) for k, v in sim_time.items()},
            }
        )
        rows.append(
            {
                "metric": "fault_campaign_run_h",
                "isa": isa,
                **{k: round(v, 4) for k, v in campaign_hours.items()},
            }
        )
        rows.append(
            {
                "metric": "executed_instructions",
                "isa": isa,
                **{k: round(v, 1) for k, v in instructions.items()},
            }
        )
    total_rows = []
    for isa in ("armv8", "armv7"):
        total_hours = sum(
            wall * faults_per_scenario / 3600.0 for wall, _ in _golden_runs(database, isa)
        )
        total_rows.append(
            {"metric": "total_fault_campaign_h", "isa": isa, "smaller": "", "average": "", "larger": round(total_hours, 3)}
        )
    return rows + total_rows


def instruction_ratio(database: ResultsDatabase) -> float:
    """Average ARMv7 / ARMv8 executed-instruction ratio (paper: ~25x)."""
    v7 = [count for _, count in _golden_runs(database, "armv7")]
    v8 = [count for _, count in _golden_runs(database, "armv8")]
    if not v7 or not v8:
        return 0.0
    return (sum(v7) / len(v7)) / (sum(v8) / len(v8))


def render_table1(rows: list[dict]) -> str:
    return render_table(
        rows,
        columns=["metric", "isa", "smaller", "average", "larger"],
        title="Table 1 — NPB workload summary",
    )

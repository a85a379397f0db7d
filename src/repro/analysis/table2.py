"""Table 2: Hang occurrence versus the normalised (function calls x branches) index.

The paper uses the IS application as a case study: for each of the four
macro scenarios (IS MPI/OMP on ARMv7/ARMv8) the Hang percentage and the
F*B index (normalised to the single-core configuration) rise together
with the core count.
"""

from __future__ import annotations

from repro.analysis.figures23 import displayed_percentages
from repro.analysis.render import render_table
from repro.orchestration.database import ResultsDatabase

#: The four macro scenarios of Table 2.
TABLE2_GROUPS = [
    ("IS", "mpi", "armv7", "IS MPI V7"),
    ("IS", "omp", "armv7", "IS OMP V7"),
    ("IS", "mpi", "armv8", "IS MPI V8"),
    ("IS", "omp", "armv8", "IS OMP V8"),
]


def table2_rows(database: ResultsDatabase, app: str = "IS") -> list[dict]:
    """Build Table 2 rows (one row per scenario group and core count).

    The F*B index is the product of the golden run's branch and
    function-call counts over that of the group's first (single-core)
    row; a zero baseline product leaves the raw products.
    """
    rows = []
    for app_name, mode, isa, label in TABLE2_GROUPS:
        if app_name != app:
            app_name = app
        group = [
            report
            for report in database.baseline_reports()
            if (report.scenario.app, report.scenario.isa, report.scenario.mode) == (app_name, isa, mode)
        ]
        baseline = None
        for report in sorted(group, key=lambda report: report.scenario.cores):
            branches = float(report.golden_stats.get("branches_total", 0.0))
            calls = float(report.golden_stats.get("function_calls_total", 0.0))
            product = branches * calls
            if baseline is None:
                baseline = product if product > 0 else 1.0
            rows.append(
                {
                    "scenario_group": label if app == "IS" else f"{app} {mode.upper()} {isa}",
                    "cores": report.scenario.cores,
                    "hang_pct": displayed_percentages(report)["Hang"],
                    "branches": branches,
                    "function_calls": calls,
                    "fb_index": round(product / baseline, 3),
                }
            )
    return rows


def index_tracks_hangs(rows: list[dict]) -> dict[str, bool]:
    """For each scenario group, whether the F*B index is non-decreasing with cores.

    The paper's observation is that the index and the Hang percentage
    increase simultaneously with the core count; this helper checks the
    index half of that claim (the Hang half is statistical and checked
    more loosely by the benchmark harness).
    """
    verdict: dict[str, bool] = {}
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["scenario_group"], []).append(row)
    for label, entries in groups.items():
        ordered = sorted(entries, key=lambda r: r["cores"])
        indices = [r["fb_index"] for r in ordered]
        verdict[label] = all(b >= a - 1e-9 for a, b in zip(indices, indices[1:]))
    return verdict


def render_table2(rows: list[dict]) -> str:
    return render_table(
        rows,
        columns=["scenario_group", "cores", "hang_pct", "branches", "function_calls", "fb_index"],
        title="Table 2 — Hang occurrence vs. normalised function-calls x branches index (IS)",
    )

"""Figures 2 and 3: fault classification per application, API and core count.

Figure 2 covers the ARMv7 processor, Figure 3 the ARMv8 processor; each
has three panels:

* (a) MPI applications — stacked outcome percentages for SER-1, MPI-1,
  MPI-2, MPI-4;
* (b) OpenMP applications — stacked outcome percentages for SER-1,
  OMP-1, OMP-2, OMP-4;
* (c) the per-category MPI-vs-OpenMP mismatch.

The cell lookup and the displayed percentages defined here are shared
with Tables 2-4 and Section 4.2.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.analysis.render import render_stacked_bars, render_table
from repro.injection.campaign import ScenarioReport
from repro.injection.classify import OUTCOME_ORDER, total_mismatch
from repro.orchestration.database import ResultsDatabase

#: Applications shown in the MPI panel (a) of the figures.
MPI_PANEL_APPS = ["BT", "CG", "DT", "EP", "FT", "IS", "LU", "MG", "SP"]
#: Applications shown in the OpenMP panel (b) of the figures.
OMP_PANEL_APPS = ["BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA"]
#: Applications with both variants, shown in the mismatch panel (c).
MISMATCH_PANEL_APPS = ["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"]


def displayed_percentages(report: ScenarioReport) -> dict[str, float]:
    """The five outcome percentages at the 3 decimals of the flat records."""
    percentages = report.percentages
    return {
        outcome.value: round(percentages.get(outcome.value, 0.0), 3)
        for outcome in OUTCOME_ORDER
    }


def scenario_cells(database: ResultsDatabase, isa: str) -> dict[tuple[str, str, int], ScenarioReport]:
    """The baseline report (:meth:`ResultsDatabase.baseline_reports`) of
    each (app, mode, cores) cell of one ISA."""
    return {
        (report.scenario.app, report.scenario.mode, report.scenario.cores): report
        for report in database.baseline_reports()
        if report.scenario.isa == isa
    }


def api_pairs(
    database: ResultsDatabase, isa: str, apps: Optional[Sequence[str]] = None
) -> Iterator[tuple[str, int, ScenarioReport, ScenarioReport]]:
    """``(app, cores, mpi_report, omp_report)`` for every cell run with both APIs."""
    cells = scenario_cells(database, isa)
    for app in sorted({app for app, _, _ in cells}) if apps is None else apps:
        for cores in (1, 2, 4):
            mpi = cells.get((app, "mpi", cores))
            omp = cells.get((app, "omp", cores))
            if mpi is not None and omp is not None:
                yield app, cores, mpi, omp


def figure_rows(database: ResultsDatabase, isa: str, api: str) -> list[dict]:
    """Panel (a) or (b) rows: one bar per (application, configuration).

    ``api`` selects ``"mpi"`` or ``"omp"``; every application contributes
    its serial bar (SER-1) plus the available API-1/2/4 bars, exactly as
    the figure groups them.
    """
    cells = scenario_cells(database, isa)
    apps = MPI_PANEL_APPS if api == "mpi" else OMP_PANEL_APPS
    rows = []
    for app in apps:
        variants = [("SER-1", cells.get((app, "serial", 1)))]
        variants += [(f"{api.upper()}-{cores}", cells.get((app, api, cores))) for cores in (1, 2, 4)]
        for label, report in variants:
            if report is not None:
                rows.append(
                    {"app": app, "config": label, "bar": f"{app}:{label}", **displayed_percentages(report)}
                )
    return rows


def mismatch_rows(database: ResultsDatabase, isa: str) -> list[dict]:
    """Panel (c) rows: MPI minus OpenMP outcome difference per app/core count.

    ``total_mismatch`` is the sum of the absolute differences.
    """
    rows = []
    for app, cores, mpi, omp in api_pairs(database, isa, MISMATCH_PANEL_APPS):
        mpi_pct = displayed_percentages(mpi)
        omp_pct = displayed_percentages(omp)
        row = {"app": app, "cores": cores, "isa": isa, "total_mismatch": total_mismatch(mpi_pct, omp_pct)}
        for outcome, pct in mpi_pct.items():
            row[f"diff_{outcome}"] = pct - omp_pct[outcome]
        rows.append(row)
    return rows


def figure_data(database: ResultsDatabase, isa: str) -> dict:
    """All three panels of Figure 2 (armv7) or Figure 3 (armv8)."""
    return {
        "isa": isa,
        "mpi_panel": figure_rows(database, isa, "mpi"),
        "omp_panel": figure_rows(database, isa, "omp"),
        "mismatch_panel": mismatch_rows(database, isa),
    }


def render_figure(database: ResultsDatabase, isa: str) -> str:
    """Textual rendering of the whole figure for one ISA."""
    number = "2" if isa == "armv7" else "3"
    data = figure_data(database, isa)
    parts = []
    outcome_keys = [outcome.value for outcome in OUTCOME_ORDER]
    parts.append(
        render_stacked_bars(
            data["mpi_panel"], "bar", outcome_keys,
            title=f"Figure {number}a — {isa} MPI benchmarks (injected fault classification, %)",
        )
    )
    parts.append(
        render_stacked_bars(
            data["omp_panel"], "bar", outcome_keys,
            title=f"Figure {number}b — {isa} OMP benchmarks (injected fault classification, %)",
        )
    )
    parts.append(
        render_table(
            data["mismatch_panel"],
            columns=["app", "cores", "total_mismatch"] + [f"diff_{k}" for k in outcome_keys],
            title=f"Figure {number}c — {isa} MPI-vs-OMP mismatch (percentage points)",
        )
    )
    return "\n\n".join(parts)

"""Figures 2 and 3: fault classification per application, API and core count.

Figure 2 covers the ARMv7 processor, Figure 3 the ARMv8 processor; each
has three panels:

* (a) MPI applications — stacked outcome percentages for SER-1, MPI-1,
  MPI-2, MPI-4;
* (b) OpenMP applications — stacked outcome percentages for SER-1,
  OMP-1, OMP-2, OMP-4;
* (c) the per-category MPI-vs-OpenMP mismatch.
"""

from __future__ import annotations

from repro.analysis.render import render_stacked_bars, render_table
from repro.injection.classify import OUTCOME_ORDER
from repro.mining.dataset import Dataset
from repro.mining.indices import mismatch_table
from repro.orchestration.database import ResultsDatabase

#: Applications shown in the MPI panel (a) of the figures.
MPI_PANEL_APPS = ["BT", "CG", "DT", "EP", "FT", "IS", "LU", "MG", "SP"]
#: Applications shown in the OpenMP panel (b) of the figures.
OMP_PANEL_APPS = ["BT", "CG", "DC", "EP", "FT", "IS", "LU", "MG", "SP", "UA"]
#: Applications with both variants, shown in the mismatch panel (c).
MISMATCH_PANEL_APPS = ["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"]

_PCT_KEYS = [f"pct_{outcome.value}" for outcome in OUTCOME_ORDER]


def figure_rows(database: ResultsDatabase, isa: str, api: str) -> list[dict]:
    """Panel (a) or (b) rows: one bar per (application, configuration).

    ``api`` selects ``"mpi"`` or ``"omp"``; every application contributes
    its serial bar (SER-1) plus the available API-1/2/4 bars, exactly as
    the figure groups them.
    """
    data = Dataset(database.scenario_records()).filter_equal(isa=isa)
    apps = MPI_PANEL_APPS if api == "mpi" else OMP_PANEL_APPS
    rows = []
    for app in apps:
        variants = []
        serial = data.filter_equal(app=app, mode="serial")
        if len(serial):
            variants.append(("SER-1", serial.records[0]))
        for cores in (1, 2, 4):
            matched = data.filter_equal(app=app, mode=api, cores=cores)
            if len(matched):
                variants.append((f"{api.upper()}-{cores}", matched.records[0]))
        for label, record in variants:
            row = {"app": app, "config": label, "bar": f"{app}:{label}"}
            for key in _PCT_KEYS:
                row[key.replace("pct_", "")] = float(record.get(key, 0.0))
            rows.append(row)
    return rows


def mismatch_rows(database: ResultsDatabase, isa: str) -> list[dict]:
    """Panel (c) rows: MPI minus OpenMP outcome difference per app/core count."""
    return mismatch_table(Dataset(database.scenario_records()), isa=isa, apps=MISMATCH_PANEL_APPS)


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

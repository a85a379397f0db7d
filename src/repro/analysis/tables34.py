"""Tables 3 and 4: memory transactions versus soft error classification.

Table 3 (ARMv7) shows MG and IS MPI scenarios; Table 4 (ARMv8) shows LU
and SP OpenMP scenarios plus FT MPI scenarios.  The paper's claim is
that a higher memory-instruction share goes together with a higher UT
share (corrupted address generation), while a constant share keeps UT
flat.
"""

from __future__ import annotations

from repro.analysis.figures23 import displayed_percentages, scenario_cells
from repro.analysis.render import render_table
from repro.orchestration.database import ResultsDatabase

#: Scenario rows of Table 3 (ARMv7 MPI, memory-bound applications).
TABLE3_SCENARIOS = [
    ("1", "MG", "mpi", 1),
    ("2", "MG", "mpi", 2),
    ("3", "MG", "mpi", 4),
    ("4", "IS", "mpi", 1),
    ("5", "IS", "mpi", 2),
    ("6", "IS", "mpi", 4),
]

#: Scenario rows of Table 4 (ARMv8).
TABLE4_SCENARIOS = [
    ("A", "LU", "omp", 1),
    ("B", "LU", "omp", 2),
    ("C", "LU", "omp", 4),
    ("D", "SP", "omp", 1),
    ("E", "SP", "omp", 2),
    ("F", "SP", "omp", 4),
    ("G", "FT", "mpi", 1),
    ("H", "FT", "mpi", 2),
    ("I", "FT", "mpi", 4),
]


def _rows(database: ResultsDatabase, isa: str, selection) -> list[dict]:
    cells = scenario_cells(database, isa)
    rows = []
    for label, app, mode, cores in selection:
        report = cells.get((app, mode, cores))
        if report is None:
            continue
        pct = displayed_percentages(report)
        rows.append(
            {
                "row": label,
                "scenario": f"{app} {mode.upper()}x{cores}",
                "benign_pct": round(pct["Vanished"] + pct["OMM"] + pct["ONA"], 2),
                "ut_pct": round(pct["UT"], 2),
                "mem_inst_pct": round(report.golden_stats.get("memory_instruction_pct", 0.0), 2),
                "rd_wr_ratio": round(report.golden_stats.get("read_write_ratio", 0.0), 3),
            }
        )
    return rows


def table3_rows(database: ResultsDatabase) -> list[dict]:
    """Table 3: ARMv7 memory transactions and soft error classification."""
    return _rows(database, "armv7", TABLE3_SCENARIOS)


def table4_rows(database: ResultsDatabase) -> list[dict]:
    """Table 4: ARMv8 memory transactions and soft error classification."""
    return _rows(database, "armv8", TABLE4_SCENARIOS)


def memory_ut_correlation(rows: list[dict]) -> float:
    """Pearson correlation between memory-instruction share and UT share."""
    from repro.mining.correlation import pearson

    xs = [row["mem_inst_pct"] for row in rows]
    ys = [row["ut_pct"] for row in rows]
    return pearson(xs, ys)


def render_memory_table(rows: list[dict], number: int) -> str:
    isa = "ARMv7" if number == 3 else "ARMv8"
    return render_table(
        rows,
        columns=["row", "scenario", "benign_pct", "ut_pct", "mem_inst_pct", "rd_wr_ratio"],
        title=f"Table {number} — {isa} memory transactions and soft error classification",
    )

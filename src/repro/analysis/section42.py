"""Section 4.2: parallelization API analysis.

Covers the quantitative claims of Section 4.2 that are not tied to a
single table: the MPI-vs-OpenMP masking comparison (38 of 44
comparisons in the paper), the per-core workload balance gap (MPI ~4%
vs OpenMP up to ~16%) and the vulnerability window of the
parallelisation runtimes (< 23% in the worst case).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.figures23 import api_pairs
from repro.analysis.render import render_table
from repro.orchestration.database import ResultsDatabase
from repro.profiling.functional import FunctionalProfile


def masking_summary(database: ResultsDatabase) -> dict:
    """MPI-vs-OpenMP masking-rate comparison over both ISAs (Section 4.2.2).

    MPI wins a comparison when its masking rate, at the 3 decimals of
    the flat records, is at least OpenMP's.
    """
    summary = {}
    for isa in ("armv7", "armv8"):
        details = [
            {
                "app": app,
                "cores": cores,
                "mpi": round(mpi.masking_rate_pct, 3),
                "omp": round(omp.masking_rate_pct, 3),
            }
            for app, cores, mpi, omp in api_pairs(database, isa)
        ]
        summary[isa] = {
            "comparisons": len(details),
            "mpi_wins": sum(1 for entry in details if entry["mpi"] >= entry["omp"]),
            "details": details,
        }
    summary["total_comparisons"] = sum(summary[isa]["comparisons"] for isa in ("armv7", "armv8"))
    summary["total_mpi_wins"] = sum(summary[isa]["mpi_wins"] for isa in ("armv7", "armv8"))
    return summary


def load_balance_summary(database: ResultsDatabase) -> dict[str, float]:
    """Average per-core instruction imbalance of the multi-core golden runs, per API.

    Only baseline reports count; those without golden statistics
    contribute nothing.
    """
    per_mode: dict[str, list[float]] = {"mpi": [], "omp": []}
    for report in database.baseline_reports():
        scenario = report.scenario
        balance = report.golden_stats.get("load_balance_pct")
        if scenario.mode in per_mode and scenario.cores > 1 and balance is not None:
            per_mode[scenario.mode].append(balance)
    return {
        mode: (sum(values) / len(values) if values else 0.0)
        for mode, values in per_mode.items()
    }


def vulnerability_window_summary(profiles: Iterable[FunctionalProfile]) -> dict[str, float]:
    """Share of execution spent inside the parallelisation runtimes."""
    windows = {}
    for profile in profiles:
        windows[profile.scenario_id] = profile.vulnerability_window(api_prefixes=("omp_", "mpi_"))
    if not windows:
        return {"max": 0.0, "mean": 0.0}
    values = list(windows.values())
    summary = {"max": max(values), "mean": sum(values) / len(values)}
    summary.update(windows)
    return summary


def section42_summary(
    database: ResultsDatabase,
    profiles: Optional[Iterable[FunctionalProfile]] = None,
) -> dict:
    summary = {
        "masking": masking_summary(database),
        "load_balance_pct": load_balance_summary(database),
    }
    if profiles is not None:
        summary["vulnerability_window"] = vulnerability_window_summary(profiles)
    return summary


def render_section42(summary: dict) -> str:
    lines = ["Section 4.2 — Parallelization API analysis"]
    masking = summary.get("masking", {})
    lines.append(
        f"MPI masking wins: {masking.get('total_mpi_wins', 0)} of {masking.get('total_comparisons', 0)} comparisons"
    )
    for isa in ("armv7", "armv8"):
        if isa in masking:
            details = masking[isa]["details"]
            if details:
                lines.append(render_table(details, columns=["app", "cores", "mpi", "omp"], title=f"masking rate (%) — {isa}"))
    balance = summary["load_balance_pct"]
    lines.append(
        f"average per-core instruction imbalance: MPI {balance['mpi']:.2f}% vs OMP {balance['omp']:.2f}%"
    )
    if "vulnerability_window" in summary:
        window = summary["vulnerability_window"]
        lines.append(
            f"parallelisation API vulnerability window: mean {100 * window.get('mean', 0.0):.1f}%, "
            f"max {100 * window.get('max', 0.0):.1f}%"
        )
    return "\n\n".join(lines)

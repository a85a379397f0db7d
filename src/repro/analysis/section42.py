"""Section 4.2: parallelization API analysis.

Covers the quantitative claims of Section 4.2 that are not tied to a
single table: the MPI-vs-OpenMP masking comparison (38 of 44
comparisons in the paper), the per-core workload balance gap (MPI ~4%
vs OpenMP up to ~16%) and the vulnerability window of the
parallelisation runtimes (< 23% in the worst case).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.render import render_table
from repro.injection.golden import GoldenRunResult
from repro.mining.dataset import Dataset
from repro.mining.indices import masking_comparison
from repro.orchestration.database import ResultsDatabase
from repro.profiling.functional import FunctionalProfile


def masking_summary(database: ResultsDatabase) -> dict:
    """MPI-vs-OpenMP masking-rate comparison over both ISAs."""
    dataset = Dataset(database.scenario_records())
    summary = {}
    total_comparisons = 0
    total_wins = 0
    for isa in ("armv7", "armv8"):
        result = masking_comparison(dataset, isa)
        summary[isa] = result
        total_comparisons += result["comparisons"]
        total_wins += result["mpi_wins"]
    summary["total_comparisons"] = total_comparisons
    summary["total_mpi_wins"] = total_wins
    return summary


def load_balance_summary(golden_results: Iterable[GoldenRunResult]) -> dict[str, float]:
    """Average per-core instruction imbalance per parallelisation API."""
    per_mode: dict[str, list[float]] = {"mpi": [], "omp": []}
    for golden in golden_results:
        mode = golden.scenario.mode
        if mode in per_mode and golden.scenario.cores > 1:
            per_mode[mode].append(golden.load_balance_pct)
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
    golden_results: Optional[Iterable[GoldenRunResult]] = None,
    profiles: Optional[Iterable[FunctionalProfile]] = None,
) -> dict:
    summary = {"masking": masking_summary(database)}
    if golden_results is not None:
        summary["load_balance_pct"] = load_balance_summary(golden_results)
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
    if "load_balance_pct" in summary:
        balance = summary["load_balance_pct"]
        lines.append(
            f"average per-core instruction imbalance: MPI {balance.get('mpi', 0.0):.2f}% vs OMP {balance.get('omp', 0.0):.2f}%"
        )
    if "vulnerability_window" in summary:
        window = summary["vulnerability_window"]
        lines.append(
            f"parallelisation API vulnerability window: mean {100 * window.get('mean', 0.0):.1f}%, "
            f"max {100 * window.get('max', 0.0):.1f}%"
        )
    return "\n\n".join(lines)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the tests without installing the package (offline editable
# installs are not always possible).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.injection.campaign import ScenarioReport
from repro.injection.classify import empty_outcome_counts
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase


def make_report(
    app: str,
    mode: str,
    cores: int,
    isa: str,
    counts: dict[str, int],
    stats: dict[str, float] | None = None,
) -> ScenarioReport:
    """Build a synthetic ScenarioReport (no simulation involved)."""
    scenario = Scenario(app=app, mode=mode, cores=cores, isa=isa)
    full_counts = empty_outcome_counts()
    full_counts.update(counts)
    return ScenarioReport(
        scenario=scenario,
        counts=full_counts,
        golden_summary={"scenario": scenario.scenario_id, "instructions": 10_000},
        golden_stats=stats or {},
        wall_time_seconds=0.01,
        results=[],
    )


@pytest.fixture
def synthetic_database() -> ResultsDatabase:
    """A hand-built campaign database covering both ISAs and all APIs.

    The numbers are chosen so that the paper's qualitative relationships
    hold: memory-heavy scenarios have more UTs, the F*B index grows with
    the core count for IS, and MPI masks slightly more than OpenMP.
    """
    database = ResultsDatabase()
    specs = [
        # app, mode, cores, isa, counts, stats
        ("IS", "serial", 1, "armv7", {"Vanished": 60, "ONA": 15, "OMM": 5, "UT": 19, "Hang": 1},
         {"branches_total": 56e6, "function_calls_total": 22.6e6, "memory_instruction_pct": 18.0, "read_write_ratio": 0.85}),
        ("IS", "mpi", 1, "armv7", {"Vanished": 61, "ONA": 14, "OMM": 5, "UT": 19, "Hang": 1},
         {"branches_total": 56e6, "function_calls_total": 22.6e6, "memory_instruction_pct": 18.0, "read_write_ratio": 0.85}),
        ("IS", "mpi", 2, "armv7", {"Vanished": 60, "ONA": 14, "OMM": 5, "UT": 20, "Hang": 1},
         {"branches_total": 58e6, "function_calls_total": 23.1e6, "memory_instruction_pct": 19.0, "read_write_ratio": 0.83}),
        ("IS", "mpi", 4, "armv7", {"Vanished": 53, "ONA": 13, "OMM": 4, "UT": 27, "Hang": 3},
         {"branches_total": 196e6, "function_calls_total": 26.9e6, "memory_instruction_pct": 26.0, "read_write_ratio": 2.73}),
        ("IS", "omp", 1, "armv7", {"Vanished": 62, "ONA": 14, "OMM": 5, "UT": 18, "Hang": 1},
         {"branches_total": 54.1e6, "function_calls_total": 21.7e6, "memory_instruction_pct": 18.0, "read_write_ratio": 0.9}),
        ("IS", "omp", 2, "armv7", {"Vanished": 61, "ONA": 15, "OMM": 5, "UT": 18, "Hang": 1},
         {"branches_total": 54.3e6, "function_calls_total": 21.7e6, "memory_instruction_pct": 18.5, "read_write_ratio": 0.9}),
        ("IS", "omp", 4, "armv7", {"Vanished": 60, "ONA": 15, "OMM": 5, "UT": 19, "Hang": 1},
         {"branches_total": 54.7e6, "function_calls_total": 21.7e6, "memory_instruction_pct": 19.0, "read_write_ratio": 0.9}),
        ("MG", "mpi", 1, "armv7", {"Vanished": 58, "ONA": 15, "OMM": 5, "UT": 22, "Hang": 0},
         {"branches_total": 30e6, "function_calls_total": 10e6, "memory_instruction_pct": 15.8, "read_write_ratio": 1.18}),
        ("MG", "mpi", 2, "armv7", {"Vanished": 57, "ONA": 16, "OMM": 5, "UT": 22, "Hang": 0},
         {"branches_total": 31e6, "function_calls_total": 10e6, "memory_instruction_pct": 16.3, "read_write_ratio": 1.12}),
        ("MG", "mpi", 4, "armv7", {"Vanished": 50, "ONA": 15, "OMM": 5, "UT": 30, "Hang": 0},
         {"branches_total": 33e6, "function_calls_total": 11e6, "memory_instruction_pct": 22.5, "read_write_ratio": 2.83}),
        ("IS", "serial", 1, "armv8", {"Vanished": 55, "ONA": 25, "OMM": 5, "UT": 15, "Hang": 0},
         {"branches_total": 11.2e6, "function_calls_total": 2.85e6, "memory_instruction_pct": 20.0, "read_write_ratio": 1.0}),
        ("IS", "mpi", 1, "armv8", {"Vanished": 56, "ONA": 24, "OMM": 5, "UT": 15, "Hang": 0},
         {"branches_total": 11.2e6, "function_calls_total": 2.85e6, "memory_instruction_pct": 20.0, "read_write_ratio": 1.0}),
        ("IS", "mpi", 2, "armv8", {"Vanished": 54, "ONA": 24, "OMM": 5, "UT": 15, "Hang": 2},
         {"branches_total": 15.9e6, "function_calls_total": 3.35e6, "memory_instruction_pct": 21.0, "read_write_ratio": 1.0}),
        ("IS", "mpi", 4, "armv8", {"Vanished": 52, "ONA": 24, "OMM": 5, "UT": 15, "Hang": 4},
         {"branches_total": 17.6e6, "function_calls_total": 4.84e6, "memory_instruction_pct": 22.0, "read_write_ratio": 1.0}),
        ("IS", "omp", 1, "armv8", {"Vanished": 56, "ONA": 25, "OMM": 5, "UT": 14, "Hang": 0},
         {"branches_total": 7.99e6, "function_calls_total": 1.81e6, "memory_instruction_pct": 20.0, "read_write_ratio": 1.0}),
        ("IS", "omp", 2, "armv8", {"Vanished": 55, "ONA": 25, "OMM": 5, "UT": 14, "Hang": 1},
         {"branches_total": 9.05e6, "function_calls_total": 2.05e6, "memory_instruction_pct": 20.5, "read_write_ratio": 1.0}),
        ("IS", "omp", 4, "armv8", {"Vanished": 55, "ONA": 24, "OMM": 5, "UT": 15, "Hang": 1},
         {"branches_total": 9.50e6, "function_calls_total": 2.06e6, "memory_instruction_pct": 21.0, "read_write_ratio": 1.0}),
        ("LU", "omp", 1, "armv8", {"Vanished": 40, "ONA": 17, "OMM": 5, "UT": 38, "Hang": 0},
         {"memory_instruction_pct": 29.0, "read_write_ratio": 1.9, "branches_total": 5e6, "function_calls_total": 1e6}),
        ("LU", "omp", 2, "armv8", {"Vanished": 42, "ONA": 17, "OMM": 5, "UT": 36, "Hang": 0},
         {"memory_instruction_pct": 27.0, "read_write_ratio": 1.9, "branches_total": 5e6, "function_calls_total": 1e6}),
        ("LU", "omp", 4, "armv8", {"Vanished": 47, "ONA": 18, "OMM": 5, "UT": 30, "Hang": 0},
         {"memory_instruction_pct": 22.0, "read_write_ratio": 1.9, "branches_total": 5e6, "function_calls_total": 1e6}),
        ("FT", "mpi", 1, "armv8", {"Vanished": 45, "ONA": 15, "OMM": 8, "UT": 32, "Hang": 0},
         {"memory_instruction_pct": 25.7, "read_write_ratio": 1.0, "branches_total": 4e6, "function_calls_total": 1e6}),
        ("FT", "mpi", 2, "armv8", {"Vanished": 45, "ONA": 15, "OMM": 8, "UT": 32, "Hang": 0},
         {"memory_instruction_pct": 24.6, "read_write_ratio": 0.95, "branches_total": 4e6, "function_calls_total": 1e6}),
        ("FT", "mpi", 4, "armv8", {"Vanished": 46, "ONA": 15, "OMM": 8, "UT": 31, "Hang": 0},
         {"memory_instruction_pct": 23.7, "read_write_ratio": 0.95, "branches_total": 4e6, "function_calls_total": 1e6}),
        ("SP", "omp", 1, "armv8", {"Vanished": 40, "ONA": 17, "OMM": 5, "UT": 38, "Hang": 0},
         {"memory_instruction_pct": 35.1, "read_write_ratio": 1.5, "branches_total": 4e6, "function_calls_total": 1e6}),
        ("SP", "omp", 2, "armv8", {"Vanished": 42, "ONA": 17, "OMM": 5, "UT": 36, "Hang": 0},
         {"memory_instruction_pct": 34.0, "read_write_ratio": 1.5, "branches_total": 4e6, "function_calls_total": 1e6}),
        ("SP", "omp", 4, "armv8", {"Vanished": 49, "ONA": 19, "OMM": 4, "UT": 28, "Hang": 0},
         {"memory_instruction_pct": 28.5, "read_write_ratio": 1.5, "branches_total": 4e6, "function_calls_total": 1e6}),
    ]
    for app, mode, cores, isa, counts, stats in specs:
        database.add_report(make_report(app, mode, cores, isa, counts, stats))
    return database


@pytest.fixture(scope="session")
def quick_scenario():
    """The cheapest real scenario (used by integration tests)."""
    return Scenario(app="IS", mode="serial", cores=1, isa="armv8")

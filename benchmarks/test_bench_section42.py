"""Section 4.2 — parallelization API analysis (masking, balance, vulnerability window)."""

from bench_helpers import bench_scenarios, write_output

from repro.analysis.section42 import render_section42, section42_summary
from repro.profiling.functional import FunctionalProfiler


def test_bench_section42(benchmark, campaign_database):
    # profile a couple of parallel scenarios for the vulnerability window
    profiler = FunctionalProfiler()
    parallel = [s for s in bench_scenarios() if s.mode in ("omp", "mpi") and s.isa == "armv8"][:4]
    profiles = [profiler.run(scenario) for scenario in parallel]

    summary = benchmark(section42_summary, campaign_database, profiles)
    write_output("section42.txt", render_section42(summary))

    masking = summary["masking"]
    assert masking["total_comparisons"] > 0
    # paper shape: MPI masks at least as well as OpenMP in most comparisons
    # (38 of 44 in the paper).  With the small default fault count this is a
    # statistical claim, so the hard gate only requires MPI to win somewhere;
    # the full distribution is recorded in section42.txt.
    assert masking["total_mpi_wins"] >= 1
    # paper shape: MPI balances work across cores better than OpenMP
    balance = summary["load_balance_pct"]
    assert balance["mpi"] <= balance["omp"] + 5.0
    # paper shape: the parallelisation API occupies a limited vulnerability window (< 23%)
    window = summary["vulnerability_window"]
    assert window["max"] < 0.5

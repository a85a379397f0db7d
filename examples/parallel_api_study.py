"""Parallelization API study: serial vs OpenMP vs MPI reliability.

Reproduces the Section 4.2 questions at example scale for one
application: how does the choice of parallelisation library (and the
core count) shift the soft error outcome distribution, how balanced is
the work across cores, and how large is the runtime's vulnerability
window?

The campaign runs on the resilient suite engine: a persistent worker
pool and every finished scenario streamed into a store directory —
interrupt the run and start it again, and only the missing scenarios
execute.

Run with::

    python examples/parallel_api_study.py [APP]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.injection.campaign import CampaignConfig
from repro.injection.classify import total_mismatch
from repro.npb.suite import Scenario
from repro.orchestration import CampaignRunner, CampaignStore
from repro.profiling.functional import FunctionalProfiler


def main(app: str = "IS") -> None:
    isa = "armv8"
    scenarios = [Scenario(app, "serial", 1, isa)]
    for cores in (1, 2, 4):
        scenarios.append(Scenario(app, "omp", cores, isa))
        scenarios.append(Scenario(app, "mpi", cores, isa))

    config = CampaignConfig(faults_per_scenario=40, seed=2018, keep_individual_results=False)
    runner = CampaignRunner(config, workers=4, progress=lambda m: print(f"  {m}"))
    store = CampaignStore(Path(__file__).resolve().parent / f"parallel_api_{app.lower()}.store")
    done = len(store.completed_ids())
    print(f"running campaign over {len(scenarios)} {app}/{isa} scenarios..."
          + (f" ({done} already on disk)" if done else ""))
    try:
        database = runner.run_suite(scenarios, store=store, resume=True)
    except KeyboardInterrupt:
        print("interrupted — completed scenarios are on disk; run again to continue")
        raise SystemExit(130)

    print(f"\n{'configuration':<12} {'Vanished':>9} {'ONA':>6} {'OMM':>6} {'UT':>6} {'Hang':>6} {'masking':>8}")
    for scenario in scenarios:
        report = database.get(scenario.scenario_id)
        pct = report.percentages
        print(f"{scenario.api_label:<12} {pct['Vanished']:>8.1f}% {pct['ONA']:>5.1f}% {pct['OMM']:>5.1f}% "
              f"{pct['UT']:>5.1f}% {pct['Hang']:>5.1f}% {report.masking_rate_pct:>7.1f}%")

    for cores in (2, 4):
        mpi = database.get(Scenario(app, "mpi", cores, isa).scenario_id)
        omp = database.get(Scenario(app, "omp", cores, isa).scenario_id)
        if mpi and omp:
            print(f"\nMPI-vs-OMP mismatch at {cores} cores: "
                  f"{total_mismatch(mpi.percentages, omp.percentages):.1f} percentage points")

    profiler = FunctionalProfiler()
    for mode in ("omp", "mpi"):
        profile = profiler.run(Scenario(app, mode, 4, isa))
        window = profile.vulnerability_window(api_prefixes=("omp_", "mpi_"))
        print(f"{mode.upper()} runtime vulnerability window: {100 * window:.1f}% of executed instructions")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "IS")

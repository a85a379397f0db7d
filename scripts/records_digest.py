#!/usr/bin/env python3
"""A sha256 of seeded fault records, per lane and target mix.

Runs a seeded fault list on every lane of five campaign mixes with one
in-process ``FaultInjector`` per lane and prints one line per lane: the
mix, the scenario, the number of faults, the sha256 of its records
(``wall_time_seconds`` stripped, keys sorted) and the injector's
decision counters, which may differ between two versions whose records
do not.  The last line is the sha256 of all the lane digests.

The mixes:

* ``regfile``: the default register-file mix on the six ledger lanes
  (IS on armv7 and armv8 and LU on armv8, each serial and OpenMP on
  2 cores);
* ``memhier``: the memory campaign mix (gpr 0.6, memory 0.3, cache 0.1,
  as ``scripts/smoke_memory_campaign.py`` and the injection ledger's
  ``MEMORY_CAMPAIGN_MIX`` in ``ledgerbench/ledger.py``) on the same
  lanes;
* ``dwc+rec``: the default mix on the same lanes, hardened with
  ``dwc+rec``;
* ``mpi``: the default mix on IS-MPI-2 (armv7 and armv8) and
  LU-MPI-2-armv8;
* ``omp4``: the default mix on IS-OMP-4-armv8.

To check that a change leaves every record as it was, run the script on
a checkout of the parent commit and on the change, with the same seed,
and compare the digests::

    PYTHONPATH=src python scripts/records_digest.py --seed 23

One run covers 22 lanes of 320 faults (7,040 records) in 11–15 s on
one core of a shared 2-vCPU host under CPython 3.11 (seeds 11 and 23,
two runs each).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario
from repro.orchestration.database import strip_wall_times

#: Seeded faults per lane.
FAULTS = 320

MEMORY_MIX = (("gpr", 0.6), ("memory", 0.3), ("cache", 0.1))

LEDGER_LANES = tuple(
    (app, mode, cores, isa)
    for app, isa in (("IS", "armv7"), ("IS", "armv8"), ("LU", "armv8"))
    for mode, cores in (("serial", 1), ("omp", 2))
)

#: mix name -> scenarios
MIXES: dict[str, tuple[Scenario, ...]] = {
    "regfile": tuple(Scenario(*lane) for lane in LEDGER_LANES),
    "memhier": tuple(Scenario(*lane, target_mix=MEMORY_MIX) for lane in LEDGER_LANES),
    "dwc+rec": tuple(Scenario(*lane, hardening="dwc+rec") for lane in LEDGER_LANES),
    "mpi": (
        Scenario("IS", "mpi", 2, "armv7"),
        Scenario("IS", "mpi", 2, "armv8"),
        Scenario("LU", "mpi", 2, "armv8"),
    ),
    "omp4": (Scenario("IS", "omp", 4, "armv8"),),
}

COUNTERS = ("decided", "dead_states", "convergences")


def lane_digest(scenario: Scenario, seed: int) -> tuple[str, int, dict]:
    """(sha256 of the records, number of records, decision counters)."""
    campaign = ScenarioCampaign(scenario, CampaignConfig(seed=seed))
    golden = campaign.run_golden()
    injector = FaultInjector(
        scenario, golden, watchdog_multiplier=campaign.config.watchdog_multiplier
    )
    digest = hashlib.sha256()
    results = injector.run_many(campaign.build_fault_list(FAULTS))
    for result in results:
        record = strip_wall_times(result.as_record())
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    counters = {name: getattr(injector, name, None) for name in COUNTERS}
    return digest.hexdigest(), len(results), counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    records = 0
    start = time.perf_counter()
    for mix, scenarios in MIXES.items():
        for scenario in scenarios:
            digest, count, counters = lane_digest(scenario, args.seed)
            records += count
            total.update(f"{mix} {scenario.scenario_id} {digest}\n".encode())
            decisions = " ".join(f"{name}={value}" for name, value in counters.items())
            print(f"{mix:8} {scenario.scenario_id:40} {count:5} {digest}  {decisions}", flush=True)
    print(f"all      {records} records in {time.perf_counter() - start:.0f} s  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

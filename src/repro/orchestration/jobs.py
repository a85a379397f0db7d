"""Job batching for fault injection campaigns.

Matching several injections into a single job "improves the HPC
scheduling algorithm performance by reducing job management and
synchronization overheads" (Section 3.2.4); the same batching keeps the
process-pool overhead negligible here.

Jobs stay *light*: the golden reference (with its memory snapshots and
checkpoints) travels as a spool-file path, not pickled into every job.
The process that runs a job builds its injector from that file once per
scenario and runs the scenario's later jobs on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.injection.fault import FaultDescriptor
from repro.npb.suite import Scenario


@dataclass
class CampaignJob:
    """A batch of fault injections for one scenario.

    The job carries what a worker needs beyond the per-worker shared
    golden data: the scenario description and the fault descriptors.
    Programs are rebuilt (deterministically) inside the worker, which is
    cheaper than shipping them.
    """

    job_id: int
    scenario: Scenario
    #: spool-file path of the scenario's pickled golden reference, which
    #: a process loads on its first job of the scenario
    golden_ref: str
    faults: list[FaultDescriptor] = field(default_factory=list)
    watchdog_multiplier: int = 4

    def __len__(self) -> int:
        return len(self.faults)


class JobBatcher:
    """Splits a scenario's fault list into jobs of bounded size.

    The fault list is ordered by injection point first, so each job's
    faults cluster around the same golden checkpoints and the per-job
    fast-forward distance stays short.
    """

    def __init__(self, faults_per_job: int = 64):
        if faults_per_job < 1:
            raise ValueError(f"invalid faults_per_job {faults_per_job}")
        self.faults_per_job = faults_per_job
        self._next_job_id = 0

    def batch(
        self,
        scenario: Scenario,
        golden_ref: str,
        faults: list[FaultDescriptor],
        watchdog_multiplier: int = 4,
    ) -> list[CampaignJob]:
        """Build jobs naming the golden spooled at ``golden_ref``."""
        faults = sorted(faults, key=lambda f: (f.injection_time, f.fault_id))
        jobs: list[CampaignJob] = []
        for start in range(0, len(faults), self.faults_per_job):
            chunk = faults[start : start + self.faults_per_job]
            jobs.append(
                CampaignJob(
                    job_id=self._next_job_id,
                    scenario=scenario,
                    golden_ref=golden_ref,
                    faults=chunk,
                    watchdog_multiplier=watchdog_multiplier,
                )
            )
            self._next_job_id += 1
        return jobs

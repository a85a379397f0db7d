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
from typing import Optional

from repro.injection.fault import FaultDescriptor
from repro.npb.suite import Scenario, normalize_target_mix


@dataclass
class CampaignJob:
    """A batch of fault injections for one scenario.

    The job carries what a worker needs beyond the per-worker shared
    golden data: the scenario description, the fault descriptors and the
    fault-target mix they were drawn from (so a worker can verify the
    descriptors it executes belong to the campaign's target dimension).
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
    #: normalized (kind, weight) pairs; None = the default register mix
    target_mix: Optional[tuple[tuple[str, float], ...]] = None

    def __len__(self) -> int:
        return len(self.faults)

    def allowed_target_kinds(self) -> Optional[set[str]]:
        """Kinds the mix permits (None when no mix travels with the job)."""
        if self.target_mix is None:
            return None
        return {kind for kind, weight in self.target_mix if weight > 0}

    def describe(self) -> dict:
        description = {
            "job_id": self.job_id,
            "scenario_id": self.scenario.scenario_id,
            "faults": len(self.faults),
        }
        if self.target_mix is not None:
            description["target_mix"] = dict(self.target_mix)
        return description


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
        target_mix=None,
    ) -> list[CampaignJob]:
        """Build jobs naming the golden spooled at ``golden_ref``."""
        faults = sorted(faults, key=lambda f: (f.injection_time, f.fault_id))
        mix = normalize_target_mix(target_mix)
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
                    target_mix=mix,
                )
            )
            self._next_job_id += 1
        return jobs

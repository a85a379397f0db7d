"""Campaign orchestration: job batching, parallel execution, result database.

The paper executes its 1,040,000 fault injections on an HPC system with
more than 5,000 cores by batching injections into jobs (phase three of
the workflow) and assembling all individual reports into a single
database afterwards (phase four).  This package reproduces that
pipeline at workstation scale — and hardens it for campaign length.
Every driver runs one batch loop (``ScenarioCampaign.execute``) inside
one claim loop (``CampaignRunner.run_claims``) over a scenario source:
the local suite, file leases on a shared store, or HTTP leases from the
coordinator.  Around them sit a persistent pool (worker processes, or
this process) whose jobs name a spooled golden and run a scenario on one
injector per process, streaming per-scenario shards with resume, and
per-job fault isolation.  See ``docs/orchestration.md``.
"""

from repro.orchestration.jobs import CampaignJob, JobBatcher
from repro.orchestration.logging import CampaignLogger
from repro.orchestration.runner import (
    CampaignRunner,
    PersistentSuitePool,
    prepare_store,
)
from repro.orchestration.database import DuplicateReportError, ResultsDatabase
from repro.orchestration.store import (
    DEFAULT_LEASE_TTL,
    CampaignStore,
    LeaseHeartbeat,
    ScenarioFailure,
    ScenarioLease,
)

__all__ = [
    "CampaignJob",
    "CampaignLogger",
    "JobBatcher",
    "CampaignRunner",
    "CampaignStore",
    "DEFAULT_LEASE_TTL",
    "DuplicateReportError",
    "LeaseHeartbeat",
    "PersistentSuitePool",
    "ResultsDatabase",
    "ScenarioFailure",
    "ScenarioLease",
    "prepare_store",
]

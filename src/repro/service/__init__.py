"""Distributed campaign service: coordinator, workers, results API.

Turns the single-host suite driver into a three-role system over the
campaign store (stdlib only — no external dependencies):

* :mod:`repro.service.coordinator` — a ``ThreadingHTTPServer`` exposing
  the store's lease protocol (``/lease``, ``/renew``, ``/complete``,
  ``/checkpoint``, ``/fail``) plus read-side endpoints (``/status``,
  ``/results/<table>``), with the same ``LeaseBook`` bookkeeping
  (quarantine, attempts, commit-iff-held) as lease-mode workers;
* :mod:`repro.service.worker` — an agent whose HTTP leases feed the same
  claim loop (``CampaignRunner.run_claims``) and batch loop as a local
  run, so distributed campaigns stay bit-identical;
* :mod:`repro.service.results` — a cached query layer materializing a
  ``ResultsDatabase`` from shards for concurrent readers.

See ``docs/orchestration.md`` ("Distributed campaigns").
"""

from repro.service.coordinator import CampaignCoordinator, make_server, serve
from repro.service.results import ResultsService, TABLE_NAMES, format_status
from repro.service.worker import CoordinatorClient, CoordinatorUnreachable, WorkerAgent

__all__ = [
    "CampaignCoordinator",
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "ResultsService",
    "TABLE_NAMES",
    "WorkerAgent",
    "format_status",
    "make_server",
    "serve",
]

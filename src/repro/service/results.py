"""Results service: the read side of a campaign store.

Shards are write-once JSON files; re-parsing all of them for every
status poll or table request would make the store the bottleneck the
moment several readers (dashboards, workers polling progress, the
``status`` CLI) hit one campaign.  :class:`ResultsService` materializes
a :class:`~repro.orchestration.database.ResultsDatabase` from the
shards once and caches it behind a *store signature* — the sorted
``(name, mtime_ns, size)`` of every shard file plus the manifest — so
concurrent readers share one parsed database and a new shard (or a
rewritten manifest) invalidates the cache on the next call.

The database is materialized in **manifest order** (extra shards
sorted after), which is the order a single-process ``run_suite`` of
the same suite inserts reports in — so a fingerprint of the
materialized database is directly comparable with a local run's.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.analysis.efficiency_table import efficiency_rows, render_efficiency_table
from repro.analysis.hardening_table import hardening_rows, render_hardening_table
from repro.analysis.recovery_table import recovery_rows, render_recovery_table
from repro.analysis.table1 import render_table1, table1_rows
from repro.analysis.target_table import render_target_table, target_masking_rows
from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig
from repro.orchestration.database import ResultsDatabase
from repro.orchestration.store import CampaignStore

#: Analysis tables the service knows how to serve.
TABLE_NAMES = ("table1", "target_table", "hardening_table", "recovery_table", "efficiency_table")


class ResultsService:
    """Cached, concurrency-safe queries over one campaign store."""

    def __init__(self, store: Union[CampaignStore, str, Path]) -> None:
        self.store = store if isinstance(store, CampaignStore) else CampaignStore(store)
        self._lock = threading.Lock()
        self._signature: Optional[tuple] = None
        self._database: Optional[ResultsDatabase] = None
        #: served requests that reused the cached database (visibility
        #: for tests and the coordinator's debug logging)
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _store_signature(self) -> tuple:
        """Identity of the store's current contents, cheap to compute.

        mtime (nanoseconds) + size of every shard and failure file plus
        the manifest: any write through the store's atomic-replace
        protocol changes at least one entry.
        """
        entries = []
        for directory in (self.store.shards_dir, self.store.failures_dir):
            if not directory.exists():
                continue
            for path in sorted(directory.glob("*.json")):
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue  # cleared between glob and stat
                entries.append((path.parent.name, path.name, stat.st_mtime_ns, stat.st_size))
        try:
            stat = self.store.manifest_path.stat()
            entries.append(("manifest", stat.st_mtime_ns, stat.st_size))
        except FileNotFoundError:
            pass
        return tuple(entries)

    def database(self) -> ResultsDatabase:
        """The campaign's current results, parsed once per store state."""
        signature = self._store_signature()
        with self._lock:
            if self._database is not None and signature == self._signature:
                self.cache_hits += 1
                return self._database
            self._database = self._materialize()
            self._signature = signature
            return self._database

    def invalidate(self) -> None:
        with self._lock:
            self._signature = None
            self._database = None

    def _materialize(self) -> ResultsDatabase:
        database = ResultsDatabase()
        completed = self.store.completed_ids()
        manifest = self.store.read_manifest()
        ordered = [
            sid for sid in (manifest.get("scenario_ids", []) if manifest else []) if sid in completed
        ]
        ordered += sorted(completed - set(ordered))
        for scenario_id in ordered:
            database.add_report(self.store.load_shard(scenario_id))
        for failure in self.store.load_failures():
            database.add_failure(failure)
        return database

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def outcome_totals(self) -> dict[str, int]:
        return self.database().outcome_totals()

    def status(self, now: Optional[float] = None) -> dict:
        """Campaign progress: counts, leases, failures, outcome totals."""
        now = time.time() if now is None else now
        manifest = self.store.read_manifest()
        suite_ids = list(manifest.get("scenario_ids", [])) if manifest else []
        database = self.database()
        completed = self.store.completed_ids()
        leases = self.store.active_leases(now)
        status = {
            "scenarios": len(suite_ids),
            "completed": len(completed),
            "pending": len([sid for sid in suite_ids if sid not in completed]),
            "leased": [
                {
                    "scenario_id": lease.scenario_id,
                    "owner": lease.owner,
                    "expires_in": round(lease.expires_at - now, 3),
                }
                for lease in leases
            ],
            "done": bool(suite_ids) and all(sid in completed for sid in suite_ids),
            "injections": database.total_injections(),
            "outcome_totals": database.outcome_totals(),
            "failures": [failure.as_dict() for failure in database.failures],
        }
        plan = manifest.get("plan") if manifest else None
        if plan is not None:
            # Adaptive stores only: fixed-count campaigns keep the exact
            # status payload they always had.
            status["adaptive"] = self._adaptive_progress(plan, suite_ids, database, completed)
        return status

    def _adaptive_progress(
        self, plan: dict, suite_ids: list, database: ResultsDatabase, completed: set
    ) -> dict:
        """Per-scenario CI convergence for an adaptive campaign.

        Finished scenarios read from their shard's ``adaptive`` payload;
        in-flight ones from the latest batch checkpoint in ``partials/``
        (spent so far + the half-width after the last recorded batch).
        """
        scenarios = []
        spent_total = 0
        for scenario_id in suite_ids:
            entry = {"scenario_id": scenario_id, "state": "pending",
                     "spent": 0, "half_width": None, "stopping": None}
            if scenario_id in completed:
                report = database.get(scenario_id)
                adaptive = (report.adaptive if report else None) or {}
                estimates = adaptive.get("estimates") or {}
                entry["state"] = "done"
                entry["spent"] = int(adaptive.get("spent", 0))
                entry["stopping"] = adaptive.get("stopping")
                if estimates:
                    entry["half_width"] = max(e["half_width"] for e in estimates.values())
            else:
                partial = self.store.load_partial(scenario_id)
                if partial is not None:
                    batches = partial.get("batches") or []
                    entry["state"] = "in_flight"
                    entry["spent"] = sum(int(batch.get("size", 0)) for batch in batches)
                    if batches:
                        entry["half_width"] = batches[-1].get("half_width")
            spent_total += entry["spent"]
            scenarios.append(entry)
        return {
            "target_half_width": plan.get("target_half_width"),
            "confidence": plan.get("confidence"),
            "spent_total": spent_total,
            "scenarios": scenarios,
        }

    def table(self, name: str) -> dict:
        """One analysis table as ``{"rows": [...], "rendered": str}``."""
        database = self.database()
        if name == "table1":
            manifest = self.store.read_manifest() or {}
            faults = (manifest.get("config") or {}).get(
                "faults_per_scenario", CampaignConfig.faults_per_scenario
            )
            rows = table1_rows(database, faults_per_scenario=faults)
            rendered = render_table1(rows)
        elif name == "target_table":
            rows = target_masking_rows(database)
            rendered = render_target_table(database)
        elif name == "hardening_table":
            rows = hardening_rows(database)
            rendered = render_hardening_table(database)
        elif name == "recovery_table":
            rows = recovery_rows(database)
            rendered = render_recovery_table(database)
        elif name == "efficiency_table":
            rows = efficiency_rows(database)
            rendered = render_efficiency_table(rows)
        else:
            raise SimulatorError(
                f"unknown results table {name!r}; available: {', '.join(TABLE_NAMES)}"
            )
        return {"table": name, "rows": rows, "rendered": rendered}


def format_status(status: dict) -> str:
    """Human-readable rendering of a :meth:`ResultsService.status` dict.

    Used by the ``status`` CLI subcommand; failures — previously
    persisted but invisible from the command line — get one line each
    with their phase and error type.
    """
    lines = [
        f"scenarios: {status['completed']}/{status['scenarios']} completed, "
        f"{status['pending']} pending, {len(status['leased'])} leased"
        + (", campaign complete" if status.get("done") else "")
    ]
    lines.append(f"injections: {status['injections']}")
    totals = status.get("outcome_totals") or {}
    if any(totals.values()):
        lines.append(
            "outcomes: " + ", ".join(f"{k}={v}" for k, v in totals.items() if v)
        )
    for lease in status.get("leased", []):
        lines.append(
            f"leased: {lease['scenario_id']} -> {lease['owner']} "
            f"(expires in {lease['expires_in']:.0f}s)"
        )
    adaptive = status.get("adaptive")
    if adaptive:
        lines.append(
            f"adaptive: target half-width {adaptive['target_half_width']} at "
            f"{adaptive['confidence']:.0%} confidence, "
            f"{adaptive['spent_total']} faults spent"
        )
        for entry in adaptive.get("scenarios", []):
            width = entry.get("half_width")
            width_text = f"{width:.4f}" if width is not None else "-"
            line = (
                f"  {entry['scenario_id']}: {entry['state']}, "
                f"spent {entry['spent']}, half-width {width_text}"
            )
            if entry.get("stopping"):
                line += f", stop: {entry['stopping']}"
            lines.append(line)
    failures = status.get("failures", [])
    lines.append(f"failures: {len(failures)}")
    for failure in failures:
        lines.append(
            f"  FAILED {failure['scenario_id']} [{failure['phase']}] "
            f"{failure['error_type']}: {failure['error']} "
            f"(attempt {failure['attempts']})"
        )
    return "\n".join(lines)

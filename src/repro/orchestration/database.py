"""Results database: phase four of the campaign workflow.

All per-scenario reports are assembled into a single queryable store
that can be saved to / loaded from JSON and exported as flat record
lists (one row per scenario, one row per individual injection) for the
data-mining tool.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Optional

from repro.errors import SimulatorError
from repro.injection.campaign import ScenarioReport
from repro.injection.classify import REPORT_OUTCOME_ORDER
from repro.injection.injector import InjectionResult
from repro.orchestration.store import ScenarioFailure


def strip_wall_times(payload):
    """Recursively drop every wall-time key from a database payload.

    Campaign results are deterministic except for wall-clock fields;
    this is the canonical normalisation behind "bit-identical modulo
    wall times" comparisons (resume tests, the CI resumability smoke).
    """
    if isinstance(payload, dict):
        return {k: strip_wall_times(v) for k, v in payload.items() if "wall_time" not in k}
    if isinstance(payload, list):
        return [strip_wall_times(item) for item in payload]
    return payload


def campaign_fingerprint(database: "ResultsDatabase") -> str:
    """Canonical string form of a database, wall times stripped."""
    return json.dumps(
        strip_wall_times(database.to_dict(include_injections=True)), sort_keys=True
    )


class DuplicateReportError(SimulatorError):
    """A report for the same scenario id is already in the database.

    A silent overwrite would let a re-run with a different seed shadow
    the original result set; callers that really mean to replace a
    report pass ``replace=True``.
    """


class ResultsDatabase:
    """Holds the fault-injection reports of a campaign."""

    def __init__(self) -> None:
        self.reports: dict[str, ScenarioReport] = {}
        self.metadata: dict[str, object] = {}
        #: scenarios that failed during a suite run (see CampaignStore);
        #: kept next to the reports so a partial campaign is auditable
        self.failures: list[ScenarioFailure] = []

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    def add_report(self, report: ScenarioReport, replace: bool = False) -> None:
        if not replace and report.scenario_id in self.reports:
            raise DuplicateReportError(
                f"database already holds a report for {report.scenario_id}; "
                "pass replace=True to overwrite it"
            )
        self.reports[report.scenario_id] = report

    def add_reports(self, reports: Iterable[ScenarioReport], replace: bool = False) -> None:
        for report in reports:
            self.add_report(report, replace=replace)

    def add_failure(self, failure: ScenarioFailure) -> None:
        self.failures = [f for f in self.failures if f.scenario_id != failure.scenario_id]
        self.failures.append(failure)

    def __len__(self) -> int:
        return len(self.reports)

    def __contains__(self, scenario_id: str) -> bool:
        return scenario_id in self.reports

    def get(self, scenario_id: str) -> Optional[ScenarioReport]:
        return self.reports.get(scenario_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def scenario_records(self) -> list[dict]:
        """One flat record per scenario (classification + golden statistics)."""
        return [report.as_record() for report in self.reports.values()]

    def baseline_reports(self) -> list[ScenarioReport]:
        """The reports of the paper's own campaign: unhardened binaries
        under the default register-file target mix.

        A store may also hold a cell's hardened or other-mix variants;
        the paper's tables and figures read only the baseline, and the
        hardening, recovery and target tables cover the rest.
        """
        return [
            report
            for report in self.reports.values()
            if report.scenario.hardening is None and report.target_mix_label == "default"
        ]

    def injection_records(self) -> list[dict]:
        """One flat record per individual injection (when kept)."""
        records = []
        for report in self.reports.values():
            for result in report.results:
                records.append(result.as_record())
        return records

    def total_injections(self) -> int:
        return sum(report.faults_injected for report in self.reports.values())

    def outcome_totals(self) -> dict[str, int]:
        totals = {outcome.value: 0 for outcome in REPORT_OUTCOME_ORDER}
        for report in self.reports.values():
            for outcome, count in report.counts.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_dict(self, include_injections: bool = False) -> dict:
        payload = {
            "metadata": self.metadata,
            "scenarios": self.scenario_records(),
            "failures": [failure.as_dict() for failure in self.failures],
            # flat rows only carry the failed-job count; the structured
            # entries live here so load() round-trips them
            "job_failures": {
                report.scenario_id: [dict(f) for f in report.job_failures]
                for report in self.reports.values()
                if report.job_failures
            },
        }
        if include_injections:
            payload["injections"] = self.injection_records()
        return payload

    def save_json(self, path: str | Path, include_injections: bool = False) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(include_injections=include_injections), handle, indent=2, sort_keys=True)
        return path

    @staticmethod
    def load_json(path: str | Path) -> dict:
        """Load a previously saved campaign summary as raw flat records.

        This is the mining layer's path: no :class:`ScenarioReport`
        objects are built.  Use :meth:`load` to get a queryable database
        back instead.
        """
        with Path(path).open("r", encoding="utf-8") as handle:
            return json.load(handle)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultsDatabase":
        """Rebuild a queryable database from :meth:`to_dict` output.

        Scenario reports come back with exact counts (percentages and
        masking rate are recomputed from them rather than parsed from
        the display-rounded flat fields); when the payload carries
        individual injections they are re-attached to their scenarios.
        """
        database = cls()
        database.metadata = dict(payload.get("metadata", {}))
        results_by_scenario: dict[str, list[InjectionResult]] = {}
        for record in payload.get("injections", []):
            result = InjectionResult.from_record(record)
            results_by_scenario.setdefault(result.scenario_id, []).append(result)
        job_failures = payload.get("job_failures", {})
        for record in payload.get("scenarios", []):
            scenario_id = record["scenario_id"]
            report = ScenarioReport.from_record(
                record,
                results=results_by_scenario.get(scenario_id),
                job_failures=job_failures.get(scenario_id),
            )
            database.add_report(report)
        for failure in payload.get("failures", []):
            database.add_failure(ScenarioFailure.from_dict(failure))
        return database

    @classmethod
    def load(cls, path: str | Path) -> "ResultsDatabase":
        """Round-trip counterpart of :meth:`save_json`."""
        return cls.from_dict(cls.load_json(path))

    def export_csv(self, path: str | Path) -> Path:
        """Write the per-scenario records as CSV (stdlib ``csv`` quoting)."""
        records = self.scenario_records()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if not records:
            path.write_text("", encoding="utf-8")
            return path
        columns: list[str] = []
        for record in records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            writer.writerows(records)
        return path

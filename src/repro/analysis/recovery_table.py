"""Recovery dimension table: what checkpoint-rollback buys on top of
detection, and what re-execution it costs, per ISA and programming model.

Detection schemes (``dwc``/``cfc``/``dwc+cfc``) turn silent corruptions
into fail-stops; a ``+rec`` policy turns those fail-stops back into
completed runs by rolling the faulty machine back to the nearest clean
checkpoint and re-executing.  Per (ISA, programming model, recovery
scheme) this table reports

* **recovery coverage** — share of injected faults that ended in the
  ``Recovered`` outcome (golden output reproduced after >= 1 rollback);
* **residual Detected / OMM / Hang rates** — what recovery could not
  absorb: escalated fail-stops after the retry budget, silent
  divergences that reproduce *wrong* output after rollback, and runs
  that exhaust their watchdog budget;
* **twin Detected rate** — the Detected rate of the rec-less twin
  scheme facing the *same fault list* (the fault stream is seeded from
  the recovery-stripped scenario id), so the Detected column can be
  read as a strict reduction;
* **rollback mechanics** — total rollbacks, escalations, injections
  that needed more than one retry;
* **re-execution overhead** — re-executed instructions per injection,
  and that cost as a multiple of one golden run.

Rows aggregate scenario-level recovery summaries, so the table renders
even for campaigns that drop individual injection records.  Stores
written before the recovery PR carry no recovery payloads and simply
produce an empty table — never an error.
"""

from __future__ import annotations

from repro.analysis.hardening_table import _dynamic_instructions
from repro.analysis.render import render_table
from repro.hardening.schemes import compile_scheme
from repro.injection.campaign import ScenarioReport
from repro.injection.classify import Outcome, injected_total, outcome_percentages, rate_pct
from repro.orchestration.database import ResultsDatabase


def _twin_key(scenario) -> tuple:
    """Identity of the rec-less twin: same cell, recovery policy stripped."""
    return (
        scenario.app,
        scenario.mode,
        scenario.cores,
        scenario.isa,
        scenario.target_mix_label,
        compile_scheme(scenario.hardening),
    )


def recovery_rows(database: ResultsDatabase) -> list[dict]:
    """One row per (ISA, programming model, recovery scheme).

    Only scenarios that ran under a recovery policy contribute; a store
    with no such scenarios (any pre-recovery campaign) yields ``[]``.
    """
    twins: dict[tuple, ScenarioReport] = {}
    for report in database.reports.values():
        if report.recovery is None:
            twins[_twin_key(report.scenario)] = report

    grouped: dict[tuple[str, str, str], dict] = {}
    for report in database.reports.values():
        if report.recovery is None:
            continue
        scenario = report.scenario
        key = (scenario.isa, scenario.mode, scenario.hardening_label)
        entry = grouped.setdefault(
            key,
            {
                "scenarios": 0,
                "counts": {},
                "rollbacks": 0,
                "reexecuted": 0,
                "escalations": 0,
                "multi_retry": 0,
                "twin_counts": {},
                "reexec_ratios": [],
            },
        )
        entry["scenarios"] += 1
        for outcome, count in report.counts.items():
            entry["counts"][outcome] = entry["counts"].get(outcome, 0) + count
        recovery = report.recovery
        entry["rollbacks"] += recovery.get("rollbacks", 0)
        entry["reexecuted"] += recovery.get("reexecuted_instructions", 0)
        entry["escalations"] += recovery.get("escalations", 0)
        entry["multi_retry"] += recovery.get("multi_retry_injections", 0)
        twin = twins.get(_twin_key(scenario))
        if twin is not None:
            for outcome, count in twin.counts.items():
                entry["twin_counts"][outcome] = entry["twin_counts"].get(outcome, 0) + count
        golden = _dynamic_instructions(report)
        injected = injected_total(report.counts)
        if golden and injected:
            entry["reexec_ratios"].append(
                recovery.get("reexecuted_instructions", 0) / injected / golden
            )

    rows = []
    for isa, mode, scheme in sorted(grouped):
        entry = grouped[(isa, mode, scheme)]
        counts = entry["counts"]
        percentages = outcome_percentages(counts)
        injections = injected_total(counts)
        twin_percentages = outcome_percentages(entry["twin_counts"])
        ratios = entry["reexec_ratios"]
        rows.append(
            {
                "isa": isa,
                "mode": mode,
                "hardening": scheme,
                "scenarios": entry["scenarios"],
                "injections": injections,
                "recovered": counts.get(Outcome.RECOVERED.value, 0),
                "recovered_pct": round(rate_pct(counts, "Recovered"), 3),
                "detected_pct": round(percentages.get(Outcome.DETECTED.value, 0.0), 3),
                # the rec-less twin scheme on the same fault list, or "-"
                # when the campaign did not include the twin scenarios
                "twin_detected_pct": (
                    round(twin_percentages.get(Outcome.DETECTED.value, 0.0), 3)
                    if entry["twin_counts"]
                    else "-"
                ),
                "omm_pct": round(percentages.get(Outcome.OMM.value, 0.0), 3),
                "hang_pct": round(percentages.get(Outcome.HANG.value, 0.0), 3),
                "rollbacks": entry["rollbacks"],
                "escalations": entry["escalations"],
                "multi_retry_injections": entry["multi_retry"],
                "reexecuted_instructions": entry["reexecuted"],
                # mean re-executed work per injection, as a fraction of
                # one golden run of the same scenario
                "reexec_overhead_x": (
                    round(sum(ratios) / len(ratios), 4) if ratios else "-"
                ),
            }
        )
    return rows


def render_recovery_table(database: ResultsDatabase) -> str:
    """Textual rendering of the recovery-dimension table."""
    rows = recovery_rows(database)
    if not rows:
        return "(no recovery scenarios in this campaign)"
    return render_table(
        rows,
        columns=[
            "isa",
            "mode",
            "hardening",
            "scenarios",
            "injections",
            "recovered",
            "recovered_pct",
            "detected_pct",
            "twin_detected_pct",
            "omm_pct",
            "hang_pct",
            "rollbacks",
            "escalations",
            "multi_retry_injections",
            "reexecuted_instructions",
            "reexec_overhead_x",
        ],
        title="Checkpoint-rollback recovery — coverage, residual fail-stops and re-execution overhead",
    )

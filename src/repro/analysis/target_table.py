"""Fault-target dimension table: register vs memory vs cache masking.

The uncore/memory extension of the paper's study (following Cho et al.,
"Understanding Soft Errors in Uncore Components"): once a campaign mixes
register, memory and cache targets, this table compares how strongly
each target class masks faults, per programming model and per ISA — the
same axes Figures 2 and 3 use for the register-file campaigns.

The table is computed from the per-injection records, so campaigns must
keep individual results (``CampaignConfig.keep_individual_results``,
the default).
"""

from __future__ import annotations

from repro.analysis.render import render_table
from repro.injection.classify import (
    NOT_INJECTED,
    REPORT_OUTCOME_ORDER,
    injected_total,
    outcome_percentages,
    rate_pct,
)
from repro.injection.fault import TARGET_CACHE, TARGET_MEMORY
from repro.orchestration.database import ResultsDatabase

#: Grouping of fault target kinds into the table's target classes.
TARGET_GROUPS = {
    "gpr": "register",
    "fpr": "register",
    "pc": "register",
    TARGET_MEMORY: "memory",
    TARGET_CACHE: "cache",
}

#: Column order of the rendered table.
TARGET_GROUP_ORDER = ("register", "memory", "cache")


def target_group(kind: str) -> str:
    """The table's target class for one fault kind."""
    return TARGET_GROUPS.get(kind, kind)


def target_masking_rows(database: ResultsDatabase) -> list[dict]:
    """One row per (ISA, programming model, target class).

    Each row carries the injected-fault count, the per-category outcome
    percentages and the masking rate for that slice of the campaign.
    """
    grouped: dict[tuple[str, str, str], dict[str, int]] = {}
    for report in database.reports.values():
        scenario = report.scenario
        for result in report.results:
            key = (scenario.isa, scenario.mode, target_group(result.fault.target_kind))
            counts = grouped.setdefault(key, {})
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
    rows = []
    order = {group: index for index, group in enumerate(TARGET_GROUP_ORDER)}
    for (isa, mode, group) in sorted(grouped, key=lambda k: (k[0], k[1], order.get(k[2], 99))):
        counts = grouped[(isa, mode, group)]
        row = {
            "isa": isa,
            "mode": mode,
            "target": group,
            "injections": injected_total(counts),
            "not_injected": counts.get(NOT_INJECTED, 0),
            "masking_rate_pct": round(rate_pct(counts, "masked"), 3),
        }
        for outcome, pct in outcome_percentages(counts).items():
            row[f"pct_{outcome}"] = round(pct, 3)
        # all report categories, Detected included: campaigns mixing the
        # target and hardening axes must not hide the detected share
        for outcome in REPORT_OUTCOME_ORDER:
            row.setdefault(f"pct_{outcome.value}", 0.0)
        rows.append(row)
    return rows


def target_masking_matrix(database: ResultsDatabase) -> list[dict]:
    """Pivot of :func:`target_masking_rows`: one row per (ISA, model),
    one masking-rate column per target class — the compact comparison
    the new campaign dimension is after."""
    rows = target_masking_rows(database)
    pivot: dict[tuple[str, str], dict] = {}
    for row in rows:
        entry = pivot.setdefault(
            (row["isa"], row["mode"]), {"isa": row["isa"], "mode": row["mode"]}
        )
        entry[f"{row['target']}_masking_pct"] = row["masking_rate_pct"]
        entry[f"{row['target']}_injections"] = row["injections"]
    return [pivot[key] for key in sorted(pivot)]


def render_target_table(database: ResultsDatabase) -> str:
    """Textual rendering of both views of the target-dimension table."""
    detail = render_table(
        target_masking_rows(database),
        columns=["isa", "mode", "target", "injections", "not_injected", "masking_rate_pct"]
        + [f"pct_{outcome.value}" for outcome in REPORT_OUTCOME_ORDER],
        title="Fault-target dimension — outcome classification per target class",
    )
    columns = ["isa", "mode"]
    for group in TARGET_GROUP_ORDER:
        columns.append(f"{group}_masking_pct")
    matrix = render_table(
        target_masking_matrix(database),
        columns=columns,
        title="Fault-target dimension — masking rate (%) per programming model and ISA",
    )
    return detail + "\n\n" + matrix

"""Software-hardening dimension table: what compiler-implemented fault
tolerance buys, and what it costs, per ISA and programming model.

Once a campaign sweeps the hardening axis (``off``/``dwc``/``cfc``/
``dwc+cfc``), this table answers the reliability engineer's follow-on
question to the paper: how much of the unmasked tail does software
redundancy recover, and at what overhead?  Per (ISA, programming model,
scheme) it reports

* **detection coverage** — the share of injected faults the binary's
  own checks caught (the Detected outcome);
* **residual OMM / Hang / UT rates** — what still slips through;
* **static overhead** — hardened program size over the unhardened twin
  (instruction count ratio);
* **dynamic overhead** — hardened golden-run length over the unhardened
  twin (executed-instruction ratio).

Overheads compare each hardened scenario against the unhardened report
for the same (app, mode, cores, ISA, target mix) cell of the same
database, so the campaign must include the ``off`` baseline scenarios.
Unlike the per-target table this one aggregates scenario-level counts,
so it renders even for campaigns that drop individual injection
records.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.render import render_table
from repro.hardening.schemes import HARDENING_SCHEMES
from repro.injection.campaign import ScenarioReport
from repro.injection.classify import Outcome, injected_total, outcome_percentages, rate_pct
from repro.orchestration.database import ResultsDatabase

#: Row order of the scheme column.
SCHEME_ORDER = {label: index for index, label in enumerate(HARDENING_SCHEMES)}


def _dynamic_instructions(report: ScenarioReport) -> Optional[float]:
    """Golden-run executed instructions (stats first, summary fallback)."""
    value = report.golden_stats.get("total_instructions_global")
    if value is None:
        value = report.golden_summary.get("instructions")
    return float(value) if value else None


def _static_instructions(report: ScenarioReport) -> Optional[float]:
    value = report.golden_stats.get("program_instructions")
    return float(value) if value else None


def _baseline_key(scenario) -> tuple:
    return (scenario.app, scenario.mode, scenario.cores, scenario.isa, scenario.target_mix_label)


def hardening_rows(database: ResultsDatabase) -> list[dict]:
    """One row per (ISA, programming model, hardening scheme)."""
    baselines = {
        _baseline_key(report.scenario): report
        for report in database.reports.values()
        if report.scenario.hardening is None
    }
    grouped: dict[tuple[str, str, str], dict] = {}
    for report in database.reports.values():
        scenario = report.scenario
        key = (scenario.isa, scenario.mode, scenario.hardening_label)
        entry = grouped.setdefault(
            key, {"scenarios": 0, "counts": {}, "static": [], "dynamic": []}
        )
        entry["scenarios"] += 1
        for outcome, count in report.counts.items():
            entry["counts"][outcome] = entry["counts"].get(outcome, 0) + count
        if scenario.hardening is not None:
            baseline = baselines.get(_baseline_key(scenario))
            if baseline is not None:
                base_static, hard_static = _static_instructions(baseline), _static_instructions(report)
                if base_static and hard_static:
                    entry["static"].append(hard_static / base_static)
                base_dyn, hard_dyn = _dynamic_instructions(baseline), _dynamic_instructions(report)
                if base_dyn and hard_dyn:
                    entry["dynamic"].append(hard_dyn / base_dyn)

    def overhead(ratios: list[float]):
        return round(sum(ratios) / len(ratios), 3) if ratios else "-"

    rows = []
    for isa, mode, scheme in sorted(
        grouped, key=lambda key: (key[0], key[1], SCHEME_ORDER.get(key[2], 99), key[2])
    ):
        entry = grouped[(isa, mode, scheme)]
        counts = entry["counts"]
        percentages = outcome_percentages(counts)
        rows.append(
            {
                "isa": isa,
                "mode": mode,
                "hardening": scheme,
                "scenarios": entry["scenarios"],
                "injections": injected_total(counts),
                "detected_pct": round(rate_pct(counts, "Detected"), 3),
                # raw count, not a rate: pre-recovery stores never emitted
                # the Recovered outcome, so .get keeps legacy payloads valid
                "recovered": counts.get(Outcome.RECOVERED.value, 0),
                "omm_pct": round(percentages.get(Outcome.OMM.value, 0.0), 3),
                "hang_pct": round(percentages.get(Outcome.HANG.value, 0.0), 3),
                "ut_pct": round(percentages.get(Outcome.UT.value, 0.0), 3),
                "masking_rate_pct": round(rate_pct(counts, "masked"), 3),
                # unhardened rows have no overhead to report ("-"); hardened
                # rows without an off twin in the database render "-" too
                "static_overhead_x": "-" if scheme == "off" else overhead(entry["static"]),
                "dynamic_overhead_x": "-" if scheme == "off" else overhead(entry["dynamic"]),
            }
        )
    return rows


def _matrix_from_rows(rows: list[dict]) -> list[dict]:
    pivot: dict[tuple[str, str], dict] = {}
    for row in rows:
        entry = pivot.setdefault(
            (row["isa"], row["mode"]), {"isa": row["isa"], "mode": row["mode"]}
        )
        entry[f"{row['hardening']}_detected_pct"] = row["detected_pct"]
        entry[f"{row['hardening']}_omm_pct"] = row["omm_pct"]
    return [pivot[key] for key in sorted(pivot)]


def hardening_matrix(database: ResultsDatabase) -> list[dict]:
    """Pivot of :func:`hardening_rows`: one row per (ISA, model), one
    detection-coverage and residual-OMM column per scheme — the compact
    what-does-hardening-buy comparison."""
    return _matrix_from_rows(hardening_rows(database))


def render_hardening_table(database: ResultsDatabase) -> str:
    """Textual rendering of both views of the hardening-dimension table."""
    rows = hardening_rows(database)
    detail = render_table(
        rows,
        columns=[
            "isa",
            "mode",
            "hardening",
            "scenarios",
            "injections",
            "detected_pct",
            "recovered",
            "omm_pct",
            "hang_pct",
            "ut_pct",
            "masking_rate_pct",
            "static_overhead_x",
            "dynamic_overhead_x",
        ],
        title="Software-hardening dimension — coverage, residual errors and overhead",
    )
    schemes = []
    for row in rows:
        if row["hardening"] not in schemes:
            schemes.append(row["hardening"])
    columns = ["isa", "mode"]
    for scheme in sorted(schemes, key=lambda label: SCHEME_ORDER.get(label, 99)):
        columns += [f"{scheme}_detected_pct", f"{scheme}_omm_pct"]
    matrix = render_table(
        _matrix_from_rows(rows),
        columns=columns,
        title="Software-hardening dimension — detection coverage and residual OMM (%) per scheme",
    )
    return detail + "\n\n" + matrix

"""Efficiency table: faults spent by adaptive campaigns vs the fixed
count a one-shot design would need.

The fixed-count equivalent is the classical worst-case sample size for
a binomial rate estimated to half-width *w* at confidence *c*:
``n = ceil(z_c^2 * 0.25 / w^2)`` (p(1-p) <= 1/4).  That is exactly the
count someone without the adaptive engine must pick to *guarantee* the
same interval on every tracked rate, so ``fixed / spent`` is the
apples-to-apples saving the stratified controller buys.

Rows come straight from shard ``adaptive`` payloads — the table needs a
completed adaptive store (or database materialized from one).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.render import render_table
from repro.errors import SimulatorError
from repro.stats.estimators import confidence_z

#: Column order of the rendered table.
EFFICIENCY_COLUMNS = (
    "scenario",
    "spent",
    "fixed_equivalent",
    "saving",
    "batches",
    "half_width",
    "target",
    "stopping",
)


def fixed_equivalent(target_half_width: float, confidence: float) -> int:
    """Worst-case one-shot sample size for the same interval guarantee."""
    if not 0.0 < target_half_width < 0.5:
        raise SimulatorError(f"invalid target half-width {target_half_width}")
    z = confidence_z(confidence)
    return math.ceil(z * z * 0.25 / (target_half_width * target_half_width))


def _achieved_half_width(adaptive: dict) -> float:
    estimates = adaptive.get("estimates") or {}
    if not estimates:
        return 1.0
    return max(estimate["half_width"] for estimate in estimates.values())


def efficiency_rows(database) -> list[dict]:
    """One row per adaptive scenario in the database.

    The stopping rule comes from each shard's own recorded plan, so the
    table also works on a database assembled from mixed runs.
    Scenarios without an ``adaptive`` payload (fixed-count shards) are
    skipped.
    """
    rows = []
    for report in database.reports.values():
        adaptive = report.adaptive
        if not adaptive:
            continue
        target = float(adaptive["plan"]["target_half_width"])
        confidence = float(adaptive["plan"]["confidence"])
        fixed = fixed_equivalent(target, confidence)
        spent = int(adaptive["spent"])
        rows.append(
            {
                "scenario": report.scenario_id,
                "spent": spent,
                "fixed_equivalent": fixed,
                "saving": fixed / spent if spent else 0.0,
                "batches": len(adaptive.get("batches") or []),
                "half_width": _achieved_half_width(adaptive),
                "target": target,
                "stopping": adaptive.get("stopping") or "-",
            }
        )
    rows.sort(key=lambda row: row["scenario"])
    return rows


def average_saving(rows: Sequence[dict]) -> float:
    """Mean fixed/spent ratio over the table's scenarios (0 if empty)."""
    rows = [row for row in rows if row["spent"]]
    if not rows:
        return 0.0
    return sum(row["saving"] for row in rows) / len(rows)


def render_efficiency_table(rows: Sequence[dict], title: str = "Adaptive sampling efficiency") -> str:
    rows = list(rows)
    rendered = render_table(rows, columns=list(EFFICIENCY_COLUMNS), title=title)
    if rows:
        rendered += f"\naverage saving: {average_saving(rows):.2f}x over fixed-count"
    return rendered

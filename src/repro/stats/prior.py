"""Mined allocation priors: steering adaptive draws from completed shards.

An adaptive campaign allocates each batch over strata by Neyman's rule
(n_h proportional to p_h * sqrt(v_h)), which needs per-stratum variance
estimates.  Before a scenario has drawn anything, those estimates come
from a :class:`MinedPrior` built out of *completed* campaign shards —
typically a brute-forced calibration store — pooled per (isa, target
kind, register, time-fraction bin).

The prior also carries the mining layer's F*B-indices (function calls ×
branches, the paper's Table 2 hang predictor): scenarios with a high
index hang in the late execution phases, so the prior tilts the
late-time bins of high-F*B ISAs toward more variance, pulling samples
into the tail where Hang events live.

Determinism contract: a prior is an **explicit input** (a path on the
CLI, a JSON blob in a coordinator grant).  It is never accumulated from
the in-flight run — shard completion order differs between runs and
workers, and folding it back in would break the bit-identical
reproducibility of adaptive campaigns.  Given the same prior payload,
allocation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.injection.classify import NOT_INJECTED, rate_successes
from repro.stats.estimators import smoothed_variance
from repro.stats.strata import time_bin_of

#: Time resolution the prior pools at (fractions of the golden run).
PRIOR_TIME_BINS = 8

#: F*B tilt: late-time variance multiplier ramps up to this cap as the
#: normalized F*B index grows.  Allocation-only — estimates never see it.
FB_TILT_CAP = 2.0

#: Fraction of the time axis (from the end) the F*B tilt applies to.
FB_TAIL_FRACTION = 0.25


def _cell_key(isa: str, kind: str, register: int, tbin: int) -> str:
    return f"{isa}|{kind}|{register}|{tbin}"


@dataclass
class MinedPrior:
    """Pooled per-cell outcome counts mined from completed shards.

    ``cells`` maps ``"isa|kind|register|tbin"`` (register ``-1`` for
    unbucketed kinds) to per-outcome counts.  ``fb_by_isa`` maps ISA to
    its mean normalized F*B-index over the mined scenarios.
    """

    time_bins: int = PRIOR_TIME_BINS
    cells: Dict[str, Dict[str, int]] = field(default_factory=dict)
    fb_by_isa: Dict[str, float] = field(default_factory=dict)
    scenarios: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_reports(cls, reports: Iterable, time_bins: int = PRIOR_TIME_BINS) -> "MinedPrior":
        """Mine a prior from :class:`ScenarioReport` objects with results."""
        prior = cls(time_bins=time_bins)
        products: Dict[str, list] = {}
        for report in reports:
            total = int(report.golden_summary.get("instructions", 0))
            if total < 3:
                continue
            prior.scenarios += 1
            isa = report.scenario.isa
            for result in report.results:
                if result.outcome == NOT_INJECTED:
                    continue
                fault = result.fault
                register = (
                    fault.register_index if fault.target_kind in ("gpr", "fpr") else -1
                )
                tbin = time_bin_of(fault.injection_time, total, time_bins)
                key = _cell_key(isa, fault.target_kind, register, tbin)
                cell = prior.cells.setdefault(key, {})
                cell[result.outcome] = cell.get(result.outcome, 0) + 1
            branches = float(report.golden_stats.get("branches_total", 0.0))
            calls = float(report.golden_stats.get("function_calls_total", 0.0))
            product = branches * calls
            if product > 0:
                products.setdefault(isa, []).append(product)
        for isa, values in sorted(products.items()):
            baseline = min(values)
            prior.fb_by_isa[isa] = sum(v / baseline for v in values) / len(values)
        return prior

    @classmethod
    def from_store(cls, store, time_bins: int = PRIOR_TIME_BINS) -> "MinedPrior":
        """Mine every completed shard of a campaign store."""
        reports = [store.load_shard(sid) for sid in sorted(store.completed_ids())]
        return cls.from_reports(reports, time_bins=time_bins)

    # ------------------------------------------------------------------
    # serialisation (priors ride inside coordinator grants)
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "time_bins": self.time_bins,
            "cells": {key: dict(cell) for key, cell in sorted(self.cells.items())},
            "fb_by_isa": dict(sorted(self.fb_by_isa.items())),
            "scenarios": self.scenarios,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MinedPrior":
        return cls(
            time_bins=int(payload.get("time_bins", PRIOR_TIME_BINS)),
            cells={
                str(key): {str(o): int(n) for o, n in cell.items()}
                for key, cell in (payload.get("cells") or {}).items()
            },
            fb_by_isa={str(k): float(v) for k, v in (payload.get("fb_by_isa") or {}).items()},
            scenarios=int(payload.get("scenarios", 0)),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _pooled(
        self, isa: str, kind: str, registers: Optional[Sequence[int]], lo: float, hi: float
    ) -> Dict[str, int]:
        regs = [-1] if registers is None else sorted(registers)
        pooled: Dict[str, int] = {}
        for tbin in range(self.time_bins):
            centre = (tbin + 0.5) / self.time_bins
            if not lo <= centre < hi:
                continue
            for register in regs:
                cell = self.cells.get(_cell_key(isa, kind, register, tbin))
                if not cell:
                    continue
                for outcome, count in cell.items():
                    pooled[outcome] = pooled.get(outcome, 0) + count
        return pooled

    def stratum_variance(
        self,
        isa: str,
        kind: str,
        registers: Optional[Sequence[int]],
        time_lo: float,
        time_hi: float,
        track: Tuple[str, ...],
    ) -> Optional[float]:
        """Prior effective variance of a stratum, or None if unmined.

        The effective variance sums the smoothed Bernoulli variances of
        the tracked rates over the pooled cell counts.  Falls back to
        the full time axis when the requested window has no mined
        samples (coarse beats nothing); returns None only when the
        (isa, kind, registers) slice was never mined at all.
        """
        pooled = self._pooled(isa, kind, registers, time_lo, time_hi)
        if not pooled:
            pooled = self._pooled(isa, kind, registers, 0.0, 1.0)
        trials = sum(pooled.values())
        if trials == 0:
            return None
        variance = 0.0
        for rate in track:
            variance += smoothed_variance(rate_successes(pooled, rate), trials)
        return variance * self.fb_tilt(isa, time_lo, time_hi)

    def fb_tilt(self, isa: str, time_lo: float, time_hi: float) -> float:
        """Late-time allocation multiplier from the mined F*B-index.

        1.0 everywhere except the execution tail of ISAs whose mined
        F*B-index exceeds the baseline; capped at :data:`FB_TILT_CAP`.
        """
        if time_hi <= 1.0 - FB_TAIL_FRACTION:
            return 1.0
        fb = self.fb_by_isa.get(isa, 1.0)
        return min(FB_TILT_CAP, max(1.0, fb))

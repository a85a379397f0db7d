"""Sampling plans: the knobs of CI-driven adaptive campaigns.

A :class:`SamplingPlan` is the declarative half of the adaptive engine:
*when to stop* (target half-width at a confidence level, fault budget
bounds) and *how to draw* (batch size; the stratification is fixed by
:func:`repro.stats.strata.build_stratum_space`).
The procedural half lives in :mod:`repro.stats.controller`.

Plans ride inside campaign-store manifests and coordinator grants, so
they are frozen, JSON-safe, and reject unknown keys the same way
:class:`repro.injection.campaign.CampaignConfig` does — a version-skewed
worker must fail loudly, not silently run a different stopping rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields as dataclasses_fields
from typing import Tuple

from repro.injection.classify import RATE_COMPONENTS
from repro.stats.estimators import TRACKED_RATES


@dataclass(frozen=True)
class SamplingPlan:
    """Stopping rule and draw policy for one adaptive campaign.

    ``target_half_width`` is on the [0, 1] rate scale (0.01 = ±1 point).
    A scenario stops as soon as every tracked rate's post-stratified
    interval is at most that wide — or when ``max_faults`` is spent,
    whichever comes first; ``min_faults`` guards against stopping on
    the noise of the first batch.
    """

    target_half_width: float = 0.02
    confidence: float = 0.95
    min_faults: int = 64
    max_faults: int = 4096
    batch_size: int = 64
    #: rates the stopping rule watches
    track: Tuple[str, ...] = TRACKED_RATES

    def __post_init__(self) -> None:
        if not 0.0 < self.target_half_width < 0.5:
            raise ValueError(f"target_half_width must be in (0, 0.5), got {self.target_half_width}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.min_faults < 1 or self.max_faults < self.min_faults:
            raise ValueError(
                f"need 1 <= min_faults <= max_faults, got {self.min_faults}..{self.max_faults}"
            )
        # Any estimable rate may be tracked (notably "Recovered" for
        # recovery sweeps); only the *default* track stays the narrower
        # TRACKED_RATES so existing plans draw identical batches.
        unknown = sorted(set(self.track) - set(RATE_COMPONENTS))
        if unknown:
            raise ValueError(f"unknown tracked rates {unknown}; know {sorted(RATE_COMPONENTS)}")
        if not self.track:
            raise ValueError("track must name at least one rate")

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["track"] = list(self.track)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingPlan":
        known = {f.name for f in dataclasses_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown sampling plan keys {unknown}")
        data = dict(payload)
        if "track" in data:
            data["track"] = tuple(str(rate) for rate in data["track"])
        return cls(**data)

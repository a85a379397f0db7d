"""Statistical campaign engine: sequential estimation for fault injection.

The subsystem that turns campaigns from fixed-count sweeps into
CI-driven adaptive sampling — interval estimators, stratification of
the fault space, sampling plans, the batch controller, and mined
allocation priors.  See docs/statistics.md.
"""

from repro.stats.controller import (
    STOP_BUDGET,
    STOP_CONVERGED,
    AdaptiveController,
    Batch,
)
from repro.stats.estimators import (
    TRACKED_RATES,
    RateEstimate,
    StratifiedEstimate,
    confidence_z,
    max_half_width,
    normal_quantile,
    outcome_estimates,
    post_stratified,
    smoothed_variance,
    wilson_interval,
)
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior
from repro.stats.strata import (
    StratumSpace,
    build_stratum_space,
    rank_buckets,
    rank_order,
    static_vulnerability,
    stratum_cells,
    time_bin_counts,
    time_bin_of,
)

__all__ = [
    "AdaptiveController",
    "Batch",
    "MinedPrior",
    "RateEstimate",
    "STOP_BUDGET",
    "STOP_CONVERGED",
    "SamplingPlan",
    "StratifiedEstimate",
    "StratumSpace",
    "TRACKED_RATES",
    "build_stratum_space",
    "confidence_z",
    "max_half_width",
    "normal_quantile",
    "outcome_estimates",
    "post_stratified",
    "rank_buckets",
    "rank_order",
    "smoothed_variance",
    "static_vulnerability",
    "stratum_cells",
    "time_bin_counts",
    "time_bin_of",
    "wilson_interval",
]

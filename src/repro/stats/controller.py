"""The adaptive sampling controller: deterministic batched draws with
CI-driven stopping.

One :class:`AdaptiveController` drives one scenario.  Each round it

1. allocates the next batch over strata by greedy marginal gain on the
   exact variance charge the stopping interval bills (p_h²·v_h/n_h on
   blended own/prior variance; a never-sampled stratum's first slot is
   worth its full probability, so coverage emerges without a floor rule);
2. draws the batch from the scenario's **canonical fault stream** — the
   exact sequence ``ScenarioCampaign.build_fault_list`` produces, which
   is a prefix-stable function of (scenario, seed).  Acceptance walks
   the stream in order and keeps a fault iff its stratum still has
   quota, so the accepted set is a pure function of (seed, plan, prior,
   tallies-so-far): every resume and every worker reproduces it
   bit-identically;
3. records outcomes, updates per-stratum tallies, and evaluates the
   stopping rule (every tracked rate's post-stratified half-width at or
   under the plan's target, the fault budget, or both bounds).

Faults keep their stream position as ``fault_id`` — non-contiguous ids
are deliberate provenance: the id *is* the position in the reproducible
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.injection.classify import injected_total, rate_successes
from repro.injection.fault import FaultDescriptor, TARGET_FPR, TARGET_GPR
from repro.stats.estimators import (
    RateEstimate,
    StratifiedEstimate,
    max_half_width,
    outcome_estimates,
    post_stratified,
    smoothed_variance,
)
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior
from repro.stats.strata import StratumSpace, build_stratum_space

#: Effective variance assumed for strata with no own samples and no
#: mined prior (worst-case Bernoulli).
DEFAULT_VARIANCE = 0.25

#: Pseudo-sample weight of the mined prior when blending with own
#: tallies: the prior steers early batches, own data takes over as the
#: stratum accumulates real observations.
PRIOR_PSEUDO_SAMPLES = 8

#: Pseudo-sample weight of the collapsed (kind, bucket) group variance
#: when shrinking a stratum's own variance estimate toward its group.
GROUP_SHRINKAGE = 2

#: Stream positions scanned per requested fault before the draw gives
#: up on exact quotas and fills the batch greedily (still deterministic;
#: recorded as ``spilled`` in the batch provenance).
SCAN_LIMIT_FACTOR = 1000

STOP_CONVERGED = "converged"
STOP_BUDGET = "max_faults"


@dataclass
class Batch:
    """One drawn batch plus its provenance skeleton."""

    index: int
    start: int  #: stream cursor before the draw
    stop: int  #: stream cursor after the draw
    faults: List[FaultDescriptor]
    allocation: Dict[str, int]
    spilled: int

    def record(self, counts: Dict[str, int], half_width: float, stopping: Optional[str]) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "stop": self.stop,
            "size": len(self.faults),
            "spilled": self.spilled,
            "allocation": {key: self.allocation[key] for key in sorted(self.allocation)},
            "counts": {key: counts[key] for key in sorted(counts)},
            "half_width": half_width,
            "stopping": stopping,
        }


@dataclass
class AdaptiveController:
    """Sequential estimation over one scenario's fault space."""

    campaign: "object"  #: ScenarioCampaign with its golden run completed
    plan: SamplingPlan
    prior: Optional[MinedPrior] = None
    space: StratumSpace = field(init=False)
    cursor: int = field(default=0, init=False)
    spent: int = field(default=0, init=False)
    batches: List[dict] = field(default_factory=list, init=False)
    stopping: Optional[str] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.campaign.golden is None:
            self.campaign.run_golden()
        self.space = build_stratum_space(
            self.campaign.scenario,
            self.campaign.golden.total_instructions,
            self.campaign.fault_model().target_mix,
        )
        self._probs = self.space.probabilities()
        #: per-stratum outcome tallies (NotInjected kept but never counted
        #: as a trial)
        self._tallies: Dict[str, Dict[str, int]] = {}
        self._counts: Dict[str, int] = {}
        self._stream: List[FaultDescriptor] = []
        self._prior_variance = self._mine_prior_variances()

    # ------------------------------------------------------------------
    # prior and variance blending
    # ------------------------------------------------------------------

    def _registers_of(self, key: str) -> Optional[List[int]]:
        kind, bucket, _ = key.split(":")
        if kind == TARGET_GPR and bucket.startswith("b"):
            wanted = int(bucket[1:])
            return [reg for reg, b in sorted(self.space.gpr_bucket.items()) if b == wanted]
        if kind == TARGET_FPR and bucket.startswith("b"):
            wanted = int(bucket[1:])
            return [reg for reg, b in sorted(self.space.fpr_bucket.items()) if b == wanted]
        return None

    def _mine_prior_variances(self) -> Dict[str, float]:
        if self.prior is None:
            return {}
        isa = self.campaign.scenario.isa
        bins = self.space.time_bins
        mined: Dict[str, float] = {}
        for key in self._probs:
            kind, _, tpart = key.split(":")
            tbin = int(tpart[1:])
            variance = self.prior.stratum_variance(
                isa,
                kind,
                self._registers_of(key),
                tbin / bins,
                (tbin + 1) / bins,
                self.plan.track,
            )
            if variance is not None:
                mined[key] = variance
        return mined

    def _stratum_trials(self, key: str) -> int:
        return injected_total(self._tallies.get(key, {}))

    @staticmethod
    def _group_of(key: str) -> str:
        return key.rsplit(":", 1)[0]

    def _rate_cells(self, rate: str) -> Dict[str, Tuple[int, int]]:
        """Per-stratum (successes, trials) for one tracked rate."""
        cells: Dict[str, Tuple[int, int]] = {}
        for key, tally in self._tallies.items():
            trials = injected_total(tally)
            if trials:
                cells[key] = (rate_successes(tally, rate), trials)
        return cells

    def _rate_variances(self, cells: Dict[str, Tuple[int, int]]) -> Dict[str, float]:
        """Hierarchical within-stratum variance estimates for one rate.

        A stratum's own unsmoothed p̂(1-p̂) is shrunk toward its
        collapsed (kind, bucket) group's smoothed variance: with a
        handful of samples per time-bin cell the own estimate is pure
        noise (and exactly 0 for one-sided cells), while the group has
        enough trials for an honest — mildly conservative, since it
        includes between-bin spread — estimate.  The same variances
        drive batch allocation, so the draws target exactly the terms
        the stopping interval charges.
        """
        groups: Dict[str, Tuple[int, int]] = {}
        for key, (successes, trials) in cells.items():
            group = self._group_of(key)
            g_successes, g_trials = groups.get(group, (0, 0))
            groups[group] = (g_successes + successes, g_trials + trials)
        variances: Dict[str, float] = {}
        for key, (successes, trials) in cells.items():
            p_hat = successes / trials
            own = p_hat * (1.0 - p_hat)
            group_v = smoothed_variance(*groups[self._group_of(key)])
            variances[key] = (trials * own + GROUP_SHRINKAGE * group_v) / (
                trials + GROUP_SHRINKAGE
            )
        return variances

    def _allocation_variances(self) -> Dict[str, float]:
        """Per-stratum effective variance for batch allocation.

        Sums the estimation variances across tracked rates — the *same*
        quantities the stopping interval charges, so allocation cannot
        chase variance the interval never bills — and softly blends in
        the mined prior, which steers draws before own data exists and
        decays as real observations accumulate.
        """
        effective: Dict[str, float] = {key: 0.0 for key in self._probs}
        sampled = False
        for rate in self.plan.track:
            cells = self._rate_cells(rate)
            if not cells:
                continue
            sampled = True
            for key, variance in self._rate_variances(cells).items():
                effective[key] += variance
        variances: Dict[str, float] = {}
        for key in self._probs:
            trials = self._stratum_trials(key)
            own = effective[key] if (sampled and trials > 0) else None
            mined = self._prior_variance.get(key)
            if own is None and mined is None:
                variances[key] = DEFAULT_VARIANCE
            elif mined is None:
                variances[key] = own  # type: ignore[assignment]
            elif own is None:
                variances[key] = mined
            else:
                variances[key] = (trials * own + PRIOR_PSEUDO_SAMPLES * mined) / (
                    trials + PRIOR_PSEUDO_SAMPLES
                )
        return variances

    # ------------------------------------------------------------------
    # allocation and drawing
    # ------------------------------------------------------------------

    def _allocate(self, size: int) -> Dict[str, int]:
        """Quota per stratum for the next batch: greedy marginal gain.

        Each slot goes to the stratum where one more sample most
        reduces the stopping interval's variance charge
        ``p_h^2 * v_h / n_h`` (summed over tracked rates).  A stratum
        with no samples yet contributes its full probability to the
        interval's unsampled mass, so its first slot's gain is ``p_h``
        itself — coverage of the whole space emerges without a separate
        floor rule.  Ties break on the stratum key, keeping the
        allocation a pure function of the tallies.
        """
        variances = self._allocation_variances()
        trials = {key: self._stratum_trials(key) for key in self._probs}
        quotas = {key: 0 for key in self._probs}

        def gain(key: str) -> float:
            n = trials[key] + quotas[key]
            p = self._probs[key]
            if n == 0:
                return p
            return p * p * variances[key] * (1.0 / n - 1.0 / (n + 1))

        for _ in range(size):
            best = min(((-gain(key), key) for key in quotas))
            quotas[best[1]] += 1
        return quotas

    def _stream_fault(self, position: int) -> FaultDescriptor:
        if position >= len(self._stream):
            want = max(position + 1, len(self._stream) * 2, 4 * self.plan.batch_size)
            self._stream = self.campaign.build_fault_list(count=want)
        return self._stream[position]

    def _next_size(self) -> int:
        """Size of the next batch: full, or trimmed to the estimated need.

        Once estimates exist, the half-width shrinks roughly as 1/√n, so
        the total need is ≈ spent·(w/target)²; when the remaining gap is
        smaller than a full batch, drawing only the shortfall (floor 8)
        avoids overshooting the target by most of a batch.
        """
        size = min(self.plan.batch_size, self.plan.max_faults - self.spent)
        if size <= 0 or self.spent == 0:
            return size
        width = max_half_width(self.estimates())
        if width >= 1.0:  # unsampled mass still dominates: no basis to trim
            return size
        needed = self.spent * ((width / self.plan.target_half_width) ** 2 - 1.0)
        needed = max(needed, self.plan.min_faults - self.spent)
        return max(8, min(size, math.ceil(needed)))

    def next_batch(self) -> Optional[Batch]:
        """Draw the next deterministic batch, or None once stopped."""
        if self.stopping is not None:
            return None
        size = self._next_size()
        if size <= 0:
            self.stopping = STOP_BUDGET
            return None
        quotas = self._allocate(size)
        open_quotas = {key: quota for key, quota in quotas.items() if quota > 0}
        wanted = sum(open_quotas.values())
        accepted: List[FaultDescriptor] = []
        start = self.cursor
        scanned = 0
        spilled = 0
        scan_limit = SCAN_LIMIT_FACTOR * size
        while len(accepted) < size:
            fault = self._stream_fault(self.cursor)
            self.cursor += 1
            scanned += 1
            if scanned <= scan_limit and wanted > 0:
                key = self.space.key_of(fault)
                quota = open_quotas.get(key, 0)
                if quota > 0:
                    open_quotas[key] = quota - 1
                    wanted -= 1
                    accepted.append(fault)
            else:
                spilled += 1
                accepted.append(fault)
        return Batch(
            index=len(self.batches),
            start=start,
            stop=self.cursor,
            faults=accepted,
            allocation=quotas,
            spilled=spilled,
        )

    # ------------------------------------------------------------------
    # recording and stopping
    # ------------------------------------------------------------------

    def record_batch(self, batch: Batch, results) -> dict:
        """Tally one executed batch; returns its provenance record."""
        counts: Dict[str, int] = {}
        for result in results:
            key = self.space.key_of(result.fault)
            tally = self._tallies.setdefault(key, {})
            tally[result.outcome] = tally.get(result.outcome, 0) + 1
            self._counts[result.outcome] = self._counts.get(result.outcome, 0) + 1
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        self.spent += len(batch.faults)
        self.stopping = self._evaluate_stopping()
        record = batch.record(counts, max_half_width(self.estimates()), self.stopping)
        self.batches.append(record)
        return record

    def _evaluate_stopping(self) -> Optional[str]:
        if self.spent >= self.plan.max_faults:
            return STOP_BUDGET
        if self.spent < self.plan.min_faults:
            return None
        if max_half_width(self.estimates()) <= self.plan.target_half_width:
            return STOP_CONVERGED
        return None

    def estimates(self) -> Dict[str, StratifiedEstimate]:
        """Post-stratified interval per tracked rate (the stopping metric).

        Point estimates are per-stratum; within-stratum variances come
        from :meth:`_rate_variances` (own estimate shrunk toward the
        collapsed group) — the same quantities batch allocation targets.
        """
        estimates: Dict[str, StratifiedEstimate] = {}
        for rate in self.plan.track:
            cells = self._rate_cells(rate)
            estimates[rate] = post_stratified(
                cells,
                self._probs,
                rate=rate,
                confidence=self.plan.confidence,
                variance_of=self._rate_variances(cells),
            )
        return estimates

    def pooled_estimates(self) -> Dict[str, RateEstimate]:
        """Unweighted per-rate intervals over the raw pooled counts."""
        return outcome_estimates(self._counts, self.plan.confidence, self.plan.track)

    # ------------------------------------------------------------------
    # provenance and state transfer
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """The ``adaptive`` payload attached to the scenario report."""
        return {
            "plan": self.plan.as_dict(),
            "seed": self.stream_seed(),
            "spent": self.spent,
            "cursor": self.cursor,
            "stopping": self.stopping,
            "strata": len(self._probs),
            "strata_sampled": sum(
                1 for key in self._probs if self._stratum_trials(key) > 0
            ),
            "batches": list(self.batches),
            "estimates": {
                rate: estimate.as_dict() for rate, estimate in sorted(self.estimates().items())
            },
            "pooled": {
                rate: estimate.as_dict()
                for rate, estimate in sorted(self.pooled_estimates().items())
            },
        }

    def stream_seed(self) -> int:
        """The seed of the fault stream the batches are drawn from."""
        return self.campaign.fault_model().seed

    def restore(self, batches: List[dict], results) -> None:
        """Rebuild controller state from stored provenance + results.

        ``results`` must be exactly the injections of the recorded
        batches, in order.  Tallies, cursor, spent and the stopping
        verdict are recomputed — not trusted from the payload — so a
        corrupt partial cannot smuggle in an inconsistent state.
        """
        if self.spent or self.batches:
            raise ValueError("restore() requires a fresh controller")
        results = list(results)
        consumed = 0
        for stored in batches:
            size = int(stored["size"])
            batch = Batch(
                index=int(stored["index"]),
                start=int(stored["start"]),
                stop=int(stored["stop"]),
                faults=[result.fault for result in results[consumed : consumed + size]],
                allocation={str(k): int(v) for k, v in stored.get("allocation", {}).items()},
                spilled=int(stored.get("spilled", 0)),
            )
            if len(batch.faults) != size:
                raise ValueError(
                    f"partial state truncated: batch {batch.index} wants {size} results, "
                    f"got {len(batch.faults)}"
                )
            self.cursor = batch.stop
            self.record_batch(batch, results[consumed : consumed + size])
            consumed += size
        if consumed != len(results):
            raise ValueError(
                f"partial state has {len(results) - consumed} results beyond its batches"
            )

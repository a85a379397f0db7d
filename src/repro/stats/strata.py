"""Stratification of the fault space for adaptive sampling.

A stratum is a cell of (target kind × register-rank bucket × injection-
time quantile bin).  The axes mirror what actually drives outcome
variance in this simulator:

* **target kind** — PC faults behave nothing like register faults;
* **register-rank bucket** — registers sorted by the static ACE
  fraction from :mod:`repro.staticlint` (PR 8's validated ranks): a
  mostly-dead register masks nearly everything, a hot one almost
  nothing, so rank buckets separate near-deterministic cells from
  genuinely noisy ones;
* **injection-time quantile** — early faults get overwritten, late
  faults land after the last output write; time bins capture the
  program-phase structure of masking.

The stratum *probability* under the uniform fault model factorises
exactly: kinds are drawn from the normalized mix, registers uniformly
within a kind, times uniformly over ``[1, total_instructions - 1]`` —
all independent.  That makes post-stratified reweighting exact rather
than approximate.

Everything here is a pure function of (scenario binary, golden length,
mix, plan), so every worker and every resume rebuilds the identical
space without shipping it over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.injection.fault import (
    CACHE_LEVELS,
    TARGET_CACHE,
    TARGET_FPR,
    TARGET_GPR,
    FaultDescriptor,
)
from repro.isa.arch import get_arch

#: Bucket label for kinds with no register sub-structure (pc, memory).
NO_BUCKET = "-"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def time_bin_of(injection_time: int, total_instructions: int, bins: int) -> int:
    """Quantile bin of an injection time drawn from [1, T-1]."""
    span = total_instructions - 1
    if span <= 0 or bins <= 1:
        return 0
    k = injection_time - 1  # 0 .. span-1
    return min(bins - 1, (k * bins) // span)


def time_bin_counts(total_instructions: int, bins: int) -> Tuple[int, ...]:
    """Exact number of integer times [1, T-1] falling in each bin."""
    span = max(0, total_instructions - 1)
    if bins <= 1:
        return (span,)
    return tuple(
        _ceil_div((i + 1) * span, bins) - _ceil_div(i * span, bins) for i in range(bins)
    )


def rank_order(ace: Mapping[int, float], count: int) -> Tuple[int, ...]:
    """Registers sorted by ACE fraction, descending; index breaks ties.

    Registers absent from the ACE map rank last (weight 0) — the sort is
    total and deterministic either way.
    """
    return tuple(sorted(range(count), key=lambda reg: (-ace.get(reg, 0.0), reg)))


def rank_buckets(order: Tuple[int, ...], buckets: int) -> Dict[int, int]:
    """Map register index -> bucket, splitting the rank order evenly."""
    n = len(order)
    if n == 0:
        return {}
    buckets = max(1, min(buckets, n))
    mapping: Dict[int, int] = {}
    for b in range(buckets):
        for reg in order[b * n // buckets : (b + 1) * n // buckets]:
            mapping[reg] = b
    return mapping


@dataclass(frozen=True, eq=False)
class StratumSpace:
    """The full stratification of one scenario's fault space."""

    #: normalized kind -> probability, as drawn by the fault model
    kind_probs: Tuple[Tuple[str, float], ...]
    total_instructions: int
    time_bins: int
    #: per-kind register->bucket maps (gpr/fpr); other kinds unbucketed
    gpr_bucket: Mapping[int, int]
    fpr_bucket: Mapping[int, int]
    num_gpr: int
    num_fpr: int

    def key_of(self, fault: FaultDescriptor) -> str:
        """Stratum key of a fault, e.g. ``"gpr:b2:t5"`` or ``"pc:-:t0"``."""
        kind = fault.target_kind
        if kind == TARGET_GPR:
            bucket = f"b{self.gpr_bucket.get(fault.register_index, 0)}"
        elif kind == TARGET_FPR:
            bucket = f"b{self.fpr_bucket.get(fault.register_index, 0)}"
        elif kind == TARGET_CACHE:
            bucket = fault.cache_level or CACHE_LEVELS[0]
        else:
            bucket = NO_BUCKET
        tbin = time_bin_of(fault.injection_time, self.total_instructions, self.time_bins)
        return f"{kind}:{bucket}:t{tbin}"

    def _bucket_probs(self, kind: str) -> Dict[str, float]:
        if kind == TARGET_GPR and self.num_gpr:
            return _bucket_shares(self.gpr_bucket, self.num_gpr)
        if kind == TARGET_FPR and self.num_fpr:
            return _bucket_shares(self.fpr_bucket, self.num_fpr)
        if kind == TARGET_CACHE:
            return {level: 1.0 / len(CACHE_LEVELS) for level in CACHE_LEVELS}
        return {NO_BUCKET: 1.0}

    def probabilities(self) -> Dict[str, float]:
        """Probability of each stratum under the uniform fault model.

        Keys are emitted in sorted order; probabilities sum to 1 up to
        float rounding.
        """
        counts = time_bin_counts(self.total_instructions, self.time_bins)
        span = max(1, sum(counts))
        probs: Dict[str, float] = {}
        for kind, kind_p in self.kind_probs:
            for bucket, bucket_p in self._bucket_probs(kind).items():
                for tbin, count in enumerate(counts):
                    probs[f"{kind}:{bucket}:t{tbin}"] = kind_p * bucket_p * count / span
        return {key: probs[key] for key in sorted(probs)}

    def keys(self) -> Tuple[str, ...]:
        return tuple(self.probabilities())


def _bucket_shares(bucket_map: Mapping[int, int], num_registers: int) -> Dict[str, float]:
    shares: Dict[str, float] = {}
    for bucket in bucket_map.values():
        label = f"b{bucket}"
        shares[label] = shares.get(label, 0.0) + 1.0 / num_registers
    return shares or {NO_BUCKET: 1.0}


def build_stratum_space(
    scenario,
    total_instructions: int,
    target_mix: Mapping[str, float],
    time_bins: int = 4,
    buckets: int = 8,
) -> StratumSpace:
    """Build the stratum space for one scenario.

    ``target_mix`` must be the *normalized* mix actually used by the
    fault model (``FaultModel.target_mix``).  Registers are bucketed by
    the purely static ACE analysis of the scenario's linked program —
    a deterministic function of the binary, so distributed workers and
    resumed runs always agree on the bucketing without any shared state.
    """
    arch = get_arch(scenario.isa)
    vulnerability = static_vulnerability(scenario)
    gpr_map = rank_buckets(rank_order(vulnerability.gpr_ace, arch.num_gpr), buckets)
    fpr_map = rank_buckets(rank_order(vulnerability.fpr_ace, arch.num_fpr), buckets)
    return StratumSpace(
        kind_probs=tuple(sorted(target_mix.items())),
        total_instructions=total_instructions,
        time_bins=max(1, time_bins),
        gpr_bucket=gpr_map,
        fpr_bucket=fpr_map,
        num_gpr=arch.num_gpr,
        num_fpr=arch.num_fpr,
    )


def static_vulnerability(scenario):
    """Static (unprofiled) ACE analysis of the scenario's program.

    Profiled weighting would need a golden run; the plain liveness
    fixpoint is cheap, and bucket *membership* — all the space needs —
    is robust to the difference.
    """
    from repro.hardening.schemes import hardening_label
    from repro.npb.suite import build_program
    from repro.staticlint.ace import analyze_program

    program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
    return analyze_program(
        program,
        scenario_id=scenario.scenario_id,
        app=scenario.app,
        mode=scenario.mode,
        isa=scenario.isa,
        hardening=hardening_label(scenario.hardening),
    )


def stratum_cells(
    results,
    space: StratumSpace,
    rate_components: Tuple[str, ...],
) -> Dict[str, Tuple[int, int]]:
    """Per-stratum (successes, trials) for one tracked rate.

    ``results`` is an iterable of objects with ``fault`` (descriptor)
    and ``outcome`` attributes; NotInjected runs are excluded entirely
    (they observed nothing).
    """
    from repro.injection.classify import NOT_INJECTED

    cells: Dict[str, Tuple[int, int]] = {}
    for result in results:
        if result.outcome == NOT_INJECTED:
            continue
        key = space.key_of(result.fault)
        successes, trials = cells.get(key, (0, 0))
        cells[key] = (successes + (1 if result.outcome in rate_components else 0), trials + 1)
    return cells

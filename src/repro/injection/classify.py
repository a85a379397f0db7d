"""Fault outcome classification (Cho et al., DAC 2013).

The five categories of Section 3.2.2:

* **Vanished** — no fault traces are left.
* **ONA** (Output Not Affected) — the resulting memory is not modified,
  but one or more remaining bits of the architectural state are wrong.
* **OMM** (Output MisMatch) — the application terminates without an
  error indication, but the resulting memory (or output) is affected.
* **UT** (Unexpected Termination) — abnormal termination with an error
  indication (segmentation fault, abort, non-zero exit code).
* **Hang** — the application does not finish and needs preemptive
  removal (watchdog expiry or deadlock).

Software-hardened binaries (see :mod:`repro.hardening`) add a sixth
category:

* **Detected** — the binary's own redundancy check (duplicate compare
  or control-flow signature) caught the fault and the run terminated
  through the ``__ft_fault_detected`` trap.  Detected is reported
  alongside the five Cho categories and is never folded into UT: a
  detected error is the hardening scheme *working*, an unexpected
  termination is it failing.

Recovery schemes (``dwc+rec`` and friends, see
:mod:`repro.hardening.schemes`) add a seventh:

* **Recovered** — a hardening check fired, the injector rolled the run
  back to a checkpoint and re-execution completed reproducing the
  golden output and memory image.  Recovered requires golden-output
  verification: a rolled-back run that completes but silently diverges
  is an OMM, one that crashes is a UT, one that never finishes is a
  Hang, and one whose detections outlast the retry budget escalates to
  fail-stop Detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping


class Outcome(Enum):
    VANISHED = "Vanished"
    ONA = "ONA"
    OMM = "OMM"
    UT = "UT"
    HANG = "Hang"
    DETECTED = "Detected"
    RECOVERED = "Recovered"


#: Plot/report order used by the paper's figures (the five Cho
#: categories; unhardened campaigns never produce anything else).
OUTCOME_ORDER = [Outcome.VANISHED, Outcome.ONA, Outcome.OMM, Outcome.UT, Outcome.HANG]

#: Full report order: the paper's five categories plus Detected, the
#: outcome only software-hardened binaries can produce.
REPORT_OUTCOME_ORDER = OUTCOME_ORDER + [Outcome.DETECTED]

#: Report order for recovery campaigns: Recovered is appended *after*
#: the detect-and-die order so that fixed-count reports of non-recovery
#: schemes keep their exact historical key set (and byte-identical
#: serialized payloads).  :func:`empty_outcome_counts` deliberately
#: excludes Recovered for the same reason — recovery-scheme reports
#: seed the zero entry themselves (see ``injection.campaign``).
RECOVERY_OUTCOME_ORDER = REPORT_OUTCOME_ORDER + [Outcome.RECOVERED]

#: Pseudo-outcome for runs that terminated before their injection point:
#: the fault was never applied, so the run carries no information about
#: fault behaviour and is excluded from the outcome percentages (it is
#: reported separately instead of silently inflating Vanished).
NOT_INJECTED = "NotInjected"

#: Outcome categories folded into each named rate.  "masked" is the
#: paper's masking rate, runs whose output is unaffected (Vanished +
#: ONA); every other rate is one category.  The adaptive stopping rule
#: tracks a subset of these (``repro.stats.estimators.TRACKED_RATES``).
RATE_COMPONENTS: dict[str, tuple[str, ...]] = {
    "masked": (Outcome.VANISHED.value, Outcome.ONA.value),
    "OMM": (Outcome.OMM.value,),
    "UT": (Outcome.UT.value,),
    "Hang": (Outcome.HANG.value,),
    "Detected": (Outcome.DETECTED.value,),
    "Recovered": (Outcome.RECOVERED.value,),
}


@dataclass
class Classification:
    outcome: Outcome
    detail: str


def classify_run(
    *,
    any_process_killed: bool,
    all_exited_zero: bool,
    watchdog_expired: bool,
    deadlocked: bool,
    output_matches: bool,
    memory_matches: bool,
    state_matches: bool,
    fault_detail: str = "",
    fault_detected: bool = False,
    recovery_rollbacks: int = 0,
) -> Classification:
    """Classify one faulty run against its golden reference.

    The precedence follows the paper's semantics: an abnormal
    termination (UT) dominates, a run that never finishes is a Hang,
    then memory/output corruption (OMM), then latent architectural
    state corruption (ONA), and finally Vanished.  ``fault_detected``
    (the hardening trap fired) dominates everything: the kill that
    delivers the trap must not masquerade as UT, and ranks deadlocking
    after a peer's detection stop are part of the detected outcome.

    ``recovery_rollbacks`` counts checkpoint rollbacks the injector
    performed before this final state.  Recovered is claimed only below
    OMM: a rolled-back run must *reproduce the golden output and
    memory image* to count as recovered — silent divergence stays OMM,
    a crash stays UT, a hang stays Hang, and a detection that survives
    the retry budget arrives here with ``fault_detected`` still set
    (escalated fail-stop Detected).
    """
    if fault_detected:
        detail = fault_detail or "software hardening check detected the fault"
        if recovery_rollbacks > 0:
            detail += f"; detection persisted through {recovery_rollbacks} rollback(s)"
        return Classification(Outcome.DETECTED, detail)
    if any_process_killed:
        return Classification(Outcome.UT, fault_detail or "process killed by exception")
    if watchdog_expired:
        return Classification(Outcome.HANG, "instruction budget exhausted")
    if deadlocked:
        return Classification(Outcome.HANG, "all remaining threads blocked")
    if not all_exited_zero:
        return Classification(Outcome.UT, "non-zero exit code")
    if not output_matches or not memory_matches:
        what = []
        if not output_matches:
            what.append("output")
        if not memory_matches:
            what.append("memory")
        detail = f"{' and '.join(what)} differ from golden run"
        if recovery_rollbacks > 0:
            detail += f" (silent divergence after {recovery_rollbacks} rollback(s))"
        return Classification(Outcome.OMM, detail)
    if recovery_rollbacks > 0:
        detail = f"rolled back {recovery_rollbacks} time(s); golden output reproduced"
        if not state_matches:
            detail += " (latent architectural state divergence)"
        return Classification(Outcome.RECOVERED, detail)
    if not state_matches:
        return Classification(Outcome.ONA, "architectural state differs from golden run")
    return Classification(Outcome.VANISHED, "no visible effect")


def empty_outcome_counts() -> dict[str, int]:
    return {outcome.value: 0 for outcome in REPORT_OUTCOME_ORDER}


def injected_total(counts: Mapping[str, int]) -> int:
    """Number of injected runs, the denominator of every rate.

    Not-injected runs carry no fault-behaviour information and are
    never counted.
    """
    return sum(value for key, value in counts.items() if key != NOT_INJECTED)


def rate_successes(counts: Mapping[str, int], rate: str) -> int:
    """Runs counted by one named rate (the sum of its components)."""
    try:
        components = RATE_COMPONENTS[rate]
    except KeyError:
        raise ValueError(f"unknown rate {rate!r}; know {sorted(RATE_COMPONENTS)}")
    return sum(counts.get(component, 0) for component in components)


def rate_pct(counts: Mapping[str, int], rate: str) -> float:
    """Share of injected runs counted by one named rate (percent)."""
    successes = rate_successes(counts, rate)
    total = injected_total(counts)
    if total == 0:
        return 0.0
    return 100.0 * successes / total


def outcome_percentages(counts: Mapping[str, int]) -> dict[str, float]:
    """Per-category percentages over the *injected* runs.

    Not-injected runs carry no fault-behaviour information and are
    excluded from both the numerator set and the denominator.
    """
    observed = {key: value for key, value in counts.items() if key != NOT_INJECTED}
    total = injected_total(counts)
    if total == 0:
        return {key: 0.0 for key in observed}
    return {key: 100.0 * value / total for key, value in observed.items()}


def mismatch(counts_a: dict[str, float], counts_b: dict[str, float]) -> dict[str, float]:
    """Per-category difference used by Figures 2c and 3c (A minus B).

    Keys are sorted so the result's iteration order (and anything
    rendered from it) is independent of string hashing.
    """
    return {
        key: counts_a.get(key, 0.0) - counts_b.get(key, 0.0)
        for key in sorted(set(counts_a) | set(counts_b))
    }


def total_mismatch(counts_a: dict[str, float], counts_b: dict[str, float]) -> float:
    """Sum of absolute per-category differences (the paper's mismatch metric)."""
    diffs = mismatch(counts_a, counts_b)
    return sum(abs(value) for value in diffs.values())

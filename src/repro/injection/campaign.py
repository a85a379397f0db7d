"""Fault injection campaigns over single scenarios and scenario suites.

One *campaign* corresponds to one scenario of the paper's matrix: a
golden run, a fault target list and N injections, summarised into the
per-category percentages that Figures 2 and 3 plot.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field, fields as dataclasses_fields
from typing import Callable, Optional

from repro.errors import SimulatorError
from repro.injection.classify import (
    Outcome,
    empty_outcome_counts,
    injected_total,
    outcome_percentages,
    rate_pct,
)
from repro.injection.fault import TARGET_CACHE, FaultDescriptor, FaultModel
from repro.injection.golden import GoldenRunner, GoldenRunResult
from repro.hardening.schemes import compile_scheme, normalize_hardening, recovery_retries
from repro.injection.injector import FaultInjector, InjectionResult
from repro.npb.suite import Scenario, format_target_mix, parse_target_mix_label


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a fault injection campaign.

    The paper uses 8,000 faults per scenario; the default here is kept
    as a parameter so laptop-scale campaigns can dial it down.

    ``checkpoint_interval`` is the base spacing (in instructions) of the
    golden run's checkpoints, which injection runs restore instead of
    re-simulating from boot.  ``None`` picks the default spacing, ``0``
    disables checkpointing (every injection replays from boot).
    """

    faults_per_scenario: int = 8000
    seed: int = 2018
    watchdog_multiplier: int = 4
    target_mix: Optional[dict] = None
    keep_individual_results: bool = True
    checkpoint_interval: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignConfig":
        """Rebuild a config from :meth:`as_dict` output (JSON-safe).

        The coordinator hands its campaign configuration to workers
        over the wire; unknown keys raise so a version-skewed worker
        fails loudly instead of silently running a different campaign.
        """
        known = {f.name for f in dataclasses_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown campaign config keys {unknown}")
        return cls(**payload)


@dataclass
class ScenarioReport:
    """Aggregated result of one scenario's campaign.

    ``faults_injected`` counts the faults actually applied; runs that
    finished before their injection point are tallied under the
    ``NotInjected`` pseudo-outcome and excluded from the percentages.
    It, ``percentages`` and ``masking_rate_pct`` are computed from
    ``counts``.
    """

    scenario: Scenario
    counts: dict[str, int]
    golden_summary: dict
    golden_stats: dict[str, float]
    wall_time_seconds: float
    results: list[InjectionResult] = field(default_factory=list)
    #: label of the mix the faults were actually drawn from — the
    #: scenario's own mix or the campaign-level one ("default" = the
    #: paper's register-file campaign)
    target_mix_label: str = "default"
    #: jobs whose execution failed after retries: the scenario survives
    #: with the remaining jobs' results, and each failure is recorded as
    #: ``{"job_id", "faults", "error", "attempts"}``
    job_failures: list[dict] = field(default_factory=list)
    #: provenance of CI-driven adaptive sampling (plan, batches, interval
    #: estimates, stopping reason — see repro.stats.controller); None for
    #: fixed-count campaigns, whose payloads stay byte-identical
    adaptive: Optional[dict] = None
    #: aggregate rollback accounting of a ``rec`` scheme (retry budget,
    #: total rollbacks, re-executed instructions, escalations); None for
    #: every other scheme, whose payloads stay byte-identical
    recovery: Optional[dict] = None

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id

    @property
    def faults_injected(self) -> int:
        return injected_total(self.counts)

    @property
    def percentages(self) -> dict[str, float]:
        return outcome_percentages(self.counts)

    @property
    def masking_rate_pct(self) -> float:
        return rate_pct(self.counts, "masked")

    def as_record(self) -> dict:
        record = {
            "scenario_id": self.scenario_id,
            "app": self.scenario.app,
            "mode": self.scenario.mode,
            "cores": self.scenario.cores,
            "isa": self.scenario.isa,
            "target_mix": self.target_mix_label,
            "hardening": self.scenario.hardening_label,
            "faults": self.faults_injected,
            "failed_jobs": len(self.job_failures),
            "masking_rate_pct": round(self.masking_rate_pct, 3),
            "wall_time_seconds": round(self.wall_time_seconds, 3),
        }
        for outcome, count in self.counts.items():
            record[f"count_{outcome}"] = count
        for outcome, pct in self.percentages.items():
            record[f"pct_{outcome}"] = round(pct, 3)
        for key, value in self.golden_stats.items():
            record[f"stat_{key}"] = value
        if self.adaptive:
            # flat-row summary of the adaptive run; fixed-count rows are
            # untouched (no new keys) so existing datasets stay identical
            record["adaptive_spent"] = self.adaptive.get("spent")
            record["adaptive_batches"] = len(self.adaptive.get("batches", []))
            record["adaptive_stopping"] = self.adaptive.get("stopping")
            widths = [
                estimate.get("half_width")
                for estimate in self.adaptive.get("estimates", {}).values()
                if estimate.get("half_width") is not None
            ]
            if widths:
                record["adaptive_ci_half_width"] = round(max(widths), 6)
        if self.recovery:
            # flat-row summary of the recovery policy; non-rec rows are
            # untouched (no new keys) so existing datasets stay identical
            record["recovery_retries"] = self.recovery.get("retries")
            record["recovery_rollbacks"] = self.recovery.get("rollbacks")
            record["recovery_reexecuted_instructions"] = self.recovery.get(
                "reexecuted_instructions"
            )
            record["recovery_escalations"] = self.recovery.get("escalations")
            record["recovery_multi_retry_injections"] = self.recovery.get(
                "multi_retry_injections"
            )
        return record

    # ------------------------------------------------------------------
    # serialisation: lossless payload (campaign shards) and flat-record
    # reconstruction (the save_json summary path)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """Lossless JSON-safe form, the unit the campaign store shards."""
        payload = {
            "scenario": self.scenario.as_dict(),
            "faults_injected": self.faults_injected,
            "counts": dict(self.counts),
            "percentages": dict(self.percentages),
            "masking_rate_pct": self.masking_rate_pct,
            "golden_summary": dict(self.golden_summary),
            "golden_stats": dict(self.golden_stats),
            "wall_time_seconds": self.wall_time_seconds,
            "target_mix_label": self.target_mix_label,
            "job_failures": [dict(failure) for failure in self.job_failures],
            "results": [result.as_record() for result in self.results],
        }
        # emitted only for adaptive campaigns: fixed-count shard payloads
        # (and therefore pinned fingerprints) stay byte-identical
        if self.adaptive is not None:
            payload["adaptive"] = dict(self.adaptive)
        # likewise emitted only for rec schemes: every pre-recovery
        # shard (and every non-rec shard) keeps its exact byte layout
        if self.recovery is not None:
            payload["recovery"] = dict(self.recovery)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioReport":
        """Rebuild a full report from :meth:`to_payload` output.

        The payload's ``faults_injected``, ``percentages`` and
        ``masking_rate_pct`` are not read: the report computes them
        from ``counts``.
        """
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            counts={str(k): int(v) for k, v in payload["counts"].items()},
            golden_summary=dict(payload["golden_summary"]),
            # values stay as-parsed: coercing int-valued stats to float
            # would break bit-identical resume (10000 vs 10000.0 in JSON)
            golden_stats=dict(payload["golden_stats"]),
            wall_time_seconds=float(payload["wall_time_seconds"]),
            results=[InjectionResult.from_record(r) for r in payload.get("results", [])],
            target_mix_label=str(payload.get("target_mix_label", "default")),
            job_failures=[dict(failure) for failure in payload.get("job_failures", [])],
            adaptive=dict(payload["adaptive"]) if payload.get("adaptive") is not None else None,
            recovery=dict(payload["recovery"]) if payload.get("recovery") is not None else None,
        )

    @classmethod
    def from_record(
        cls,
        record: dict,
        results: Optional[list[InjectionResult]] = None,
        job_failures: Optional[list[dict]] = None,
    ) -> "ScenarioReport":
        """Rebuild a queryable report from an :meth:`as_record` row.

        Golden statistics survive under their ``stat_`` prefix; the rest
        of the golden summary is not part of the flat row.  The flat row
        only carries the failed-job *count*, so the caller supplies the
        structured ``job_failures`` (the database payload keeps them in
        a side table).
        """
        scenario = Scenario(
            app=str(record["app"]),
            mode=str(record["mode"]),
            cores=int(record["cores"]),
            isa=str(record["isa"]),
            target_mix=parse_target_mix_label(record.get("target_mix", "default")),
            hardening=normalize_hardening(record.get("hardening")),
        )
        counts = {
            key[len("count_"):]: int(value)
            for key, value in record.items()
            if key.startswith("count_")
        }
        stats = {
            key[len("stat_"):]: value for key, value in record.items() if key.startswith("stat_")
        }
        recovery = None
        if "recovery_rollbacks" in record:
            recovery = {
                "retries": record.get("recovery_retries"),
                "recovered": counts.get(Outcome.RECOVERED.value, 0),
                "rollbacks": record.get("recovery_rollbacks"),
                "reexecuted_instructions": record.get("recovery_reexecuted_instructions"),
                "escalations": record.get("recovery_escalations"),
                "multi_retry_injections": record.get("recovery_multi_retry_injections"),
            }
        return cls(
            scenario=scenario,
            counts=counts,
            golden_summary={"scenario": scenario.scenario_id},
            golden_stats=stats,
            wall_time_seconds=float(record.get("wall_time_seconds", 0.0)),
            results=list(results) if results else [],
            target_mix_label=str(record.get("target_mix", "default")),
            job_failures=[dict(failure) for failure in job_failures] if job_failures else [],
            recovery=recovery,
        )


def aggregate_results(results: list[InjectionResult]) -> dict[str, int]:
    counts = empty_outcome_counts()
    for result in results:
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
    return counts


def summarize(
    scenario: Scenario,
    golden: GoldenRunResult,
    results: list[InjectionResult],
    wall_time_seconds: float,
    keep_individual_results: bool = True,
    target_mix: Optional[dict] = None,
    job_failures: Optional[list[dict]] = None,
    adaptive: Optional[dict] = None,
) -> ScenarioReport:
    """Aggregate one scenario's injection results into a report.

    ``target_mix`` is the mix the fault list was drawn from (the
    resolved scenario- or campaign-level mix); it defaults to the
    scenario's own mix so standalone callers stay correct.
    ``job_failures`` records jobs that failed after retries; their
    faults contribute no outcomes but the failure stays visible.
    ``adaptive`` attaches the sampling controller's provenance (plan,
    batches, interval estimates) for CI-driven adaptive campaigns.

    Scenarios under a ``rec`` scheme additionally seed the ``Recovered``
    zero entry (so recovery tables always see the column) and aggregate
    the per-injection rollback metadata into the report's ``recovery``
    dict — both strictly opt-in, keeping every other scheme's report
    byte-identical to the pre-recovery format.
    """
    counts = aggregate_results(results)
    retries = recovery_retries(scenario.hardening)
    recovery = None
    if retries is not None:
        counts.setdefault(Outcome.RECOVERED.value, 0)
        with_meta = [r for r in results if r.recovery is not None]
        recovery = {
            "retries": retries,
            "recovered": counts.get(Outcome.RECOVERED.value, 0),
            "rollbacks": sum(r.recovery["rollbacks"] for r in with_meta),
            "reexecuted_instructions": sum(
                r.recovery["reexecuted_instructions"] for r in with_meta
            ),
            "escalations": sum(1 for r in with_meta if r.recovery.get("escalated")),
            "multi_retry_injections": sum(
                1 for r in with_meta if r.recovery["rollbacks"] >= 2
            ),
        }
    if target_mix is None:
        target_mix = scenario.target_mix_dict()
    return ScenarioReport(
        scenario=scenario,
        counts=counts,
        golden_summary=golden.summary(),
        golden_stats=dict(golden.stats),
        wall_time_seconds=wall_time_seconds,
        results=list(results) if keep_individual_results else [],
        target_mix_label=format_target_mix(target_mix),
        job_failures=list(job_failures) if job_failures else [],
        adaptive=adaptive,
        recovery=recovery,
    )


class ScenarioCampaign:
    """Runs the full four-phase workflow for one scenario, in process."""

    def __init__(self, scenario: Scenario, config: CampaignConfig | None = None):
        self.scenario = scenario
        self.config = config or CampaignConfig()
        self.golden: Optional[GoldenRunResult] = None

    def run_golden(self) -> GoldenRunResult:
        runner = GoldenRunner(checkpoint_interval=self.config.checkpoint_interval)
        mix = self.resolved_target_mix() or {}
        self.golden = runner.run(self.scenario, cache_faults=mix.get(TARGET_CACHE, 0) > 0)
        return self.golden

    def resolved_target_mix(self) -> Optional[dict]:
        """The effective mix: the scenario's own axis wins over the config."""
        scenario_mix = self.scenario.target_mix_dict()
        return scenario_mix if scenario_mix is not None else self.config.target_mix

    def fault_model(self) -> FaultModel:
        """The scenario's fault model; deterministic given (scenario, seed).

        zlib.crc32 is used instead of hash() so the derived seed is
        stable across interpreter invocations and worker processes.  The
        tag is derived from the recovery-stripped scenario id: recovery
        is a response policy, not a fault-model axis, so a rec scheme
        faces the exact fault list of its detect-and-die twin (which is
        what makes their Detected counts directly comparable).  Non-rec
        scenario ids are unchanged by the stripping.
        """
        fault_stream_id = self.scenario.with_hardening(
            compile_scheme(self.scenario.hardening)
        ).scenario_id
        scenario_tag = zlib.crc32(fault_stream_id.encode()) % 100_000
        return FaultModel(
            isa=self.scenario.isa,
            cores=self.scenario.cores,
            seed=self.config.seed + scenario_tag,
            target_mix=self.resolved_target_mix(),
        )

    def build_fault_list(self, count: Optional[int] = None) -> list[FaultDescriptor]:
        """The scenario's fault list, drawn over its golden run."""
        if self.golden is None:
            self.run_golden()
        return self.fault_model().generate(
            total_instructions=self.golden.total_instructions,
            count=count if count is not None else self.config.faults_per_scenario,
            memory_ranges=self.golden.memory_ranges,
        )

    def execute(
        self,
        drain: Callable[[list[FaultDescriptor]], tuple[list[InjectionResult], list[dict]]],
        plan=None,
        prior=None,
        partial: Optional[dict] = None,
        checkpoint: Optional[Callable[[str, dict], None]] = None,
        progress: Callable[[str], None] = lambda message: None,
    ) -> ScenarioReport:
        """The one batch loop every campaign driver runs.

        ``drain(faults)`` injects one batch and returns ``(results,
        job_failures)``.  Without a ``plan`` the campaign is one batch of
        the config's ``faults_per_scenario``, and failed jobs are recorded
        on the report.  With a :class:`~repro.stats.plan.SamplingPlan`
        an adaptive controller draws batches until its stopping rule
        fires; a failed job then fails the scenario, since the
        controller's accounting needs complete batches.  ``partial``
        replays a stored checkpoint first, and ``checkpoint(scenario_id,
        payload)`` persists one after every unconverged batch.  Every
        batch is recorded in ``fault_id`` order, however the drain ran it.
        """
        from repro.stats.controller import AdaptiveController

        start = time.perf_counter()
        if self.golden is None:
            self.run_golden()
        scenario_id = self.scenario.scenario_id
        results: list[InjectionResult] = []
        job_failures: list[dict] = []
        controller = None
        if plan is None:
            batches = [self.build_fault_list()]
            progress(
                f"[inject] {scenario_id}: {len(batches[0])} faults, "
                f"{len(self.golden.checkpoints)} checkpoints"
            )
        else:
            controller = AdaptiveController(campaign=self, plan=plan, prior=prior)
            if partial is not None:
                restored = [InjectionResult.from_record(r) for r in partial.get("results", [])]
                controller.restore(partial.get("batches", []), restored)
                results.extend(restored)
                progress(
                    f"[adapt]  {scenario_id}: restored {len(controller.batches)} batch(es), "
                    f"{controller.spent} faults spent"
                )
            batches = iter(controller.next_batch, None)
        for batch in batches:
            batch_results, failures = drain(batch if controller is None else batch.faults)
            batch_results = sorted(batch_results, key=lambda r: r.fault.fault_id)
            results.extend(batch_results)
            job_failures.extend(failures)
            if controller is None:
                continue
            if failures:
                raise SimulatorError(
                    f"adaptive batch {batch.index} of {scenario_id} lost "
                    f"{len(failures)} job(s) ({failures[0]['error']}); "
                    "adaptive accounting requires complete batches"
                )
            record = controller.record_batch(batch, batch_results)
            progress(
                f"[adapt]  {scenario_id}: batch {record['index']} ({record['size']} faults), "
                f"spent {controller.spent}, half-width {record['half_width']:.4f}"
                + (f", stop: {record['stopping']}" if record["stopping"] else "")
            )
            if checkpoint is not None and controller.stopping is None:
                checkpoint(
                    scenario_id,
                    {
                        "batches": list(controller.batches),
                        "results": [result.as_record() for result in results],
                    },
                )
        return summarize(
            self.scenario,
            self.golden,
            results,
            time.perf_counter() - start,
            keep_individual_results=self.config.keep_individual_results,
            target_mix=self.resolved_target_mix(),
            job_failures=job_failures,
            adaptive=controller.summary() if controller is not None else None,
        )

    def _single_injector(self):
        """A drain that runs every batch in process on one injector."""
        if self.golden is None:
            self.run_golden()
        injector = FaultInjector(
            self.scenario, self.golden, watchdog_multiplier=self.config.watchdog_multiplier
        )
        return lambda faults: (injector.run_many(faults), [])

    def run_adaptive(self, plan, prior=None) -> ScenarioReport:
        """CI-driven adaptive campaign, in process (see :meth:`execute`)."""
        return self.execute(self._single_injector(), plan=plan, prior=prior)

    def run(self) -> ScenarioReport:
        """Fixed-count campaign, in process (see :meth:`execute`)."""
        return self.execute(self._single_injector())

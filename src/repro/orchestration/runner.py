"""Campaign runner: a resilient, resumable suite engine.

Phases one and two (golden run, fault list) execute in the parent
process because they are common to all injections of a scenario; phase
three (the injections) fans out over worker processes; phase four
(assembling the database) runs back in the parent.

Every driver is built from two loops.  The batch loop,
:meth:`ScenarioCampaign.execute`, runs a scenario's batches (a
fixed-count campaign is one batch) and records each in ``fault_id``
order; :meth:`CampaignRunner.run_one` hands it a drain that runs each
batch as jobs on the pool.  The claim loop,
:meth:`CampaignRunner.run_claims`, takes scenarios from a source — the
local suite (:meth:`~CampaignRunner.run_suite`), file leases on a
shared store (:meth:`~CampaignRunner.run_leased`) or HTTP leases
(:class:`repro.service.worker.WorkerAgent`) — and runs each through its
golden, inject and assemble phases, in turn on the loop's thread, with
one heartbeat, one interrupt policy and one failure policy.  So every
driver yields bit-identical reports.

One pool lives for the whole claim loop; with ``workers <= 1`` it runs
jobs in this process.  Each scenario's golden reference is spooled to a
file that every job names (:attr:`CampaignJob.golden_ref`); the process
that runs a job builds one injector from it on its first job of the
scenario and runs the scenario's later jobs on that injector.  With a
:class:`~repro.orchestration.store.CampaignStore`, every finished
scenario is written to its own shard atomically and ``resume=True``
skips scenarios whose shards exist.  A failing scenario becomes a
:class:`~repro.orchestration.store.ScenarioFailure` and the loop goes
on; a failing job is retried and then recorded in the report's
``job_failures``; a ``KeyboardInterrupt`` stops the loop but completed
shards stay on disk.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign, ScenarioReport
from repro.injection.golden import GoldenRunResult
from repro.injection.injector import FaultInjector, InjectionResult
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase
from repro.orchestration.jobs import CampaignJob, JobBatcher
from repro.orchestration.store import (
    DEFAULT_LEASE_TTL,
    CampaignStore,
    LeaseBook,
    LeaseHeartbeat,
    ScenarioFailure,
)
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior

#: This process's one-entry injector cache, ``{golden_ref: injector}``:
#: a process runs all the jobs of its current scenario on one injector,
#: built from the scenario's spool file on its first job.
_INJECTORS: dict[str, FaultInjector] = {}


def _init_worker() -> None:
    """Pool initializer: start with an empty injector cache."""
    _INJECTORS.clear()


def _injector_for(job: CampaignJob) -> FaultInjector:
    """This process's injector for ``job``'s golden, loaded on a miss."""
    injector = _INJECTORS.get(job.golden_ref)
    if injector is None:
        try:
            with open(job.golden_ref, "rb") as handle:
                golden = pickle.load(handle)
        except FileNotFoundError as exc:
            raise SimulatorError(
                f"golden spool file for {job.scenario.scenario_id} disappeared: {exc}"
            ) from exc
        _INJECTORS.clear()
        injector = _INJECTORS[job.golden_ref] = FaultInjector(
            job.scenario, golden, watchdog_multiplier=job.watchdog_multiplier
        )
    return injector


def execute_job(job: CampaignJob) -> list[InjectionResult]:
    """Execute one batch of injections on this process's scenario injector.

    An exception evicts the injector, so a retry starts from a fresh one.
    """
    try:
        return _injector_for(job).run_many(job.faults)
    except BaseException:
        _INJECTORS.pop(job.golden_ref, None)
        raise


def _execute_job_guarded(job: CampaignJob):
    """Run one job, capturing any exception instead of raising.

    Returns ``(job_id, results, None)`` on success and
    ``(job_id, None, "ErrorType: message")`` on failure, so a poisoned
    job cannot sink the other jobs sharing its ``imap`` stream.
    ``KeyboardInterrupt`` is deliberately not captured.
    """
    try:
        return job.job_id, execute_job(job), None
    except Exception as exc:  # noqa: BLE001 — the whole point is capture
        return job.job_id, None, f"{type(exc).__name__}: {exc}"


def _drain_jobs(
    jobs: list[CampaignJob],
    mapper: Callable[..., Iterable[tuple]],
    retries: int,
    progress: Callable[[str], None] = lambda message: None,
) -> tuple[list[InjectionResult], list[dict]]:
    """Collect guarded job executions with bounded retry.

    ``mapper(function, jobs)`` yields the guarded result tuples
    (``imap_unordered`` on a pool, a plain ``map`` in process).  Failed
    jobs are resubmitted up to ``retries`` extra rounds; whatever still
    fails becomes a structured entry of the report's ``job_failures``.
    Results are assembled in job-id order, so the outcome is
    deterministic no matter how workers interleave.
    """
    by_id = {job.job_id: job for job in jobs}
    chunks: dict[int, list[InjectionResult]] = {}
    errors: dict[int, str] = {}
    attempts: dict[int, int] = {}
    outstanding = list(jobs)
    for round_index in range(max(0, retries) + 1):
        failed_ids: list[int] = []
        for job_id, results, error in mapper(_execute_job_guarded, outstanding):
            attempts[job_id] = attempts.get(job_id, 0) + 1
            if error is None:
                chunks[job_id] = results
                errors.pop(job_id, None)
            else:
                errors[job_id] = error
                failed_ids.append(job_id)
        if not failed_ids:
            break
        outstanding = [by_id[job_id] for job_id in sorted(failed_ids)]
        if round_index < retries:
            progress(f"[retry]  {len(outstanding)} job(s) failed, retrying")
    failures = [
        {
            "job_id": job_id,
            "faults": len(by_id[job_id].faults),
            "error": errors[job_id],
            "attempts": attempts[job_id],
        }
        for job_id in sorted(errors)
    ]
    results = [result for job_id in sorted(chunks) for result in chunks[job_id]]
    return results, failures


def pool_context(start_method: Optional[str] = None):
    """A multiprocessing context, falling back to spawn-safe methods.

    ``fork`` is the cheapest start method (workers inherit the parent's
    compiled program cache), but it is unavailable on some platforms
    (Windows; macOS defaults away from it).  When no method is forced,
    fall back through ``fork`` → ``forkserver`` → ``spawn`` → the
    platform default.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    for method in ("fork", "forkserver", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return multiprocessing.get_context()


class PersistentSuitePool:
    """Where a whole claim loop runs its jobs: a worker pool, or this process.

    With ``workers <= 1`` no process is opened and jobs map in this
    process; otherwise they go to a pool through ``imap_unordered``.
    Goldens are spooled to a temp directory, one fresh file per scenario
    run, so a process's cached injector (see :func:`_injector_for`)
    never stands in for another campaign's.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        self.workers = workers
        self._spool = tempfile.TemporaryDirectory(prefix="repro-golden-spool-")
        self._spooled = itertools.count()
        self.pool = None
        self.map = map
        if workers and workers > 1:
            self.pool = pool_context(start_method).Pool(processes=workers, initializer=_init_worker)
            self.map = self.pool.imap_unordered

    def spool(self, scenario_id: str, golden: GoldenRunResult) -> str:
        """Write one golden reference to the spool; returns its path."""
        path = os.path.join(self._spool.name, f"{next(self._spooled)}-{scenario_id}.golden.pickle")
        with open(path, "wb") as handle:
            pickle.dump(golden, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    def __enter__(self) -> "PersistentSuitePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.pool is not None:
            if exc_type is None:
                self.pool.close()
            else:
                self.pool.terminate()
            self.pool.join()
        self._spool.cleanup()


def prepare_store(
    store: CampaignStore,
    suite_ids: list[str],
    config_dict: dict,
    resume: bool,
    plan: Optional[dict] = None,
) -> None:
    """Validate and (re)write a store's manifest for a campaign run.

    The shared entry protocol of the local suite loop, lease-mode
    workers (always resuming) and the coordinator service, so they
    enforce identical rules: a resume must
    match the stored configuration (mismatching keys are named in the
    error), a filtered resume keeps the manifest's scenario-id union,
    and a fresh run refuses a store that already holds a campaign.
    """
    if resume:
        store.check_resumable(suite_ids, config_dict, plan=plan)
        # A filtered resume must not shrink the manifest: keep the
        # union so the full suite can still resume later.
        manifest = store.read_manifest()
        if manifest is not None:
            stored_ids = list(manifest.get("scenario_ids", []))
            known = set(stored_ids)
            suite_ids = stored_ids + [sid for sid in suite_ids if sid not in known]
    elif store.read_manifest() is not None:
        # A fresh run into a populated store would leave stale shards
        # from the previous campaign behind; a later resume would then
        # silently mix the two result sets.
        raise SimulatorError(
            f"campaign store {store.root} already holds a campaign; pass "
            "resume=True to continue it, or point at a fresh directory"
        )
    store.write_manifest(suite_ids, config_dict, plan=plan)


@dataclass
class Claim:
    """One scenario a source hands to :meth:`CampaignRunner.run_claims`."""

    scenario: Scenario
    #: runs the claim instead of the loop's runner (an HTTP grant's campaign)
    runner: Optional["CampaignRunner"] = None
    partial: Optional[dict] = None
    checkpoint: Optional[Callable[[str, dict], None]] = None
    #: the lease to keep alive while the claim runs; ``None``: no lease
    lease_ttl: Optional[float] = None
    owner: str = ""


class ScenarioSource:
    """Where :meth:`CampaignRunner.run_claims` gets scenarios and puts results.

    ``claim()`` returns the next :class:`Claim`, or ``None`` to end the
    loop; ``commit(claim, report)`` returns ``False`` when the claim's
    lease was no longer held; ``fail(claim, phase, exc)`` records a
    failed phase.  Sources that lease also renew (``renew_lease``),
    count discarded results and release an interrupted claim.
    """

    def renew_lease(self, scenario_id: str, owner: str) -> bool:
        return True

    def discard(self, claim: Claim) -> None:
        pass

    def interrupted(self, claim: Optional[Claim]) -> None:
        pass


class _SuiteSource(ScenarioSource):
    """``run_suite``'s source: the suite in order, resumed shards skipped."""

    def __init__(self, runner, scenarios, store, resume, database) -> None:
        self.runner, self.scenarios = runner, scenarios
        self.store, self.resume, self.database = store, resume, database
        self.prior_attempts: dict[str, int] = {}
        self.completed: set = set()
        if store is not None:
            prepare_store(
                store,
                [scenario.scenario_id for scenario in scenarios],
                runner.config.as_dict(),
                resume,
                plan=runner.plan.as_dict() if runner.plan is not None else None,
            )
            self.prior_attempts = {f.scenario_id: f.attempts for f in store.load_failures()}
            if resume:
                self.completed = store.completed_ids()
        self.queue = iter(scenarios)
        self.executed = self.done = 0
        self.start = time.monotonic()

    def claim(self) -> Optional[Claim]:
        for scenario in self.queue:
            scenario_id = scenario.scenario_id
            if scenario_id in self.completed:
                self.database.add_report(self.store.load_shard(scenario_id))
                self.done += 1
                self.runner.progress(f"[skip]   {scenario_id}: resumed from shard")
                continue
            claim = Claim(scenario)
            if self.store is not None and self.runner.plan is not None:
                claim.partial = self.store.load_partial(scenario_id) if self.resume else None
                claim.checkpoint = self.store.write_partial
            return claim
        return None

    def commit(self, claim: Claim, report: ScenarioReport) -> bool:
        self.database.add_report(report)
        if self.store is not None:
            self.store.write_shard(report)
        self.executed += 1
        self.done += 1
        total, failed = len(self.scenarios), len(self.database.failures)
        elapsed = time.monotonic() - self.start
        remaining = total - self.done - failed
        line = (
            f"[suite]  {self.done}/{total} scenarios done"
            + (f", {failed} failed" if failed else "")
            + (f", ETA {elapsed / self.executed * remaining:.0f}s" if remaining > 0 else "")
        )
        runner = self.runner
        if runner.throughput and elapsed > 0:
            line += f", {runner.guest_instructions / elapsed / 1e6:.2f} guest MIPS"
            line += f", {runner.injections / elapsed:.1f} injections/s"
            if runner.last_scenario_throughput is not None:
                line += f", last scenario {runner.last_scenario_throughput[1]:.1f}s"
        runner.progress(line)
        return True

    def fail(self, claim: Claim, phase: str, exc: Exception) -> None:
        scenario_id = claim.scenario.scenario_id
        failure = ScenarioFailure(
            scenario_id, phase, type(exc).__name__, str(exc),
            attempts=self.prior_attempts.get(scenario_id, 0) + 1,
        )
        self.database.add_failure(failure)
        if self.store is not None:
            self.store.write_failure(failure)


class _StoreLeaseSource(ScenarioSource):
    """``run_leased``'s source: file leases on a shared store."""

    def __init__(self, runner, book: LeaseBook, by_id, owner, database) -> None:
        self.runner, self.book, self.by_id = runner, book, by_id
        self.owner, self.database = owner, database
        self.store = book.store

    def claim(self) -> Optional[Claim]:
        lease = self.book.claim(self.owner)
        if lease is None:
            return None
        scenario_id = lease.scenario_id
        self.runner.progress(f"[lease]  {scenario_id}: claimed by {self.owner}")
        claim = Claim(self.by_id[scenario_id], lease_ttl=self.book.ttl, owner=self.owner)
        if self.runner.plan is not None:
            # A reclaimed lease continues its predecessor's batch stream.
            claim.partial = self.store.load_partial(scenario_id)
            claim.checkpoint = lambda sid, payload: self.store.write_partial_leased(
                sid, payload, self.owner
            )
        return claim

    def renew_lease(self, scenario_id: str, owner: str) -> bool:
        return self.store.renew_lease(scenario_id, owner)

    def commit(self, claim: Claim, report: ScenarioReport) -> bool:
        if not self.store.commit_leased(report, self.owner):
            return False
        self.database.add_report(report)
        return True

    def fail(self, claim: Claim, phase: str, exc: Exception) -> None:
        scenario_id = claim.scenario.scenario_id
        self.database.add_failure(
            self.book.fail(self.owner, scenario_id, phase, type(exc).__name__, str(exc))
        )

    def interrupted(self, claim: Optional[Claim]) -> None:
        if claim is not None:
            self.store.release_lease(claim.scenario.scenario_id, self.owner)


class CampaignRunner:
    """Runs fault-injection campaigns over many scenarios.

    Parameters
    ----------
    config:
        Campaign configuration (faults per scenario, seeds, watchdog,
        checkpoint interval).
    workers:
        Number of worker processes; 0 or 1 selects in-process execution.
    faults_per_job:
        Batch size used by the job batcher.
    start_method:
        Multiprocessing start method; ``None`` auto-selects (fork where
        available, spawn otherwise).
    job_retries:
        Extra execution rounds granted to failed jobs before they are
        recorded as ``job_failures`` on the scenario report.
    throughput:
        Report aggregate guest MIPS (injected-run guest instructions
        per wall second, summed across workers), injections per wall
        second and the last scenario's wall time in the suite
        progress/ETA line, so campaign speed regressions are visible
        from the CLI.  The MIPS figure sums the records'
        ``executed_instructions``: a run that converged or was decided
        from the golden run's def-use summary counts the golden
        instruction count, not the instructions it simulated, so
        injections per second is the figure that tracks campaign speed.
    plan:
        A :class:`~repro.stats.plan.SamplingPlan` switches every driver
        (run_one/run_suite/run_leased) into *adaptive* mode: instead of
        a fixed fault count, each scenario draws CI-driven batches from
        its canonical fault stream until the plan's stopping rule fires.
    prior:
        Optional :class:`~repro.stats.prior.MinedPrior` steering the
        adaptive allocation.  Must be identical across distributed
        workers (mine it from a *completed* store, never the one in
        flight) or their draws diverge.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        workers: int = 0,
        faults_per_job: int = 16,
        progress: Optional[Callable[[str], None]] = None,
        start_method: Optional[str] = None,
        job_retries: int = 1,
        throughput: bool = False,
        plan: Optional[SamplingPlan] = None,
        prior: Optional[MinedPrior] = None,
    ) -> None:
        self.config = config or CampaignConfig()
        self.plan = plan
        self.prior = prior
        self.workers = workers
        self.start_method = start_method
        self.batcher = JobBatcher(faults_per_job=faults_per_job)
        self.progress = progress or (lambda message: None)
        self.job_retries = job_retries
        self.throughput = throughput
        #: guest instructions executed by this runner's injection runs
        #: (reset per run_suite; exposed for tests/tooling)
        self.guest_instructions = 0
        #: injections this runner's jobs returned (reset per run_suite)
        self.injections = 0
        #: (guest_instructions, wall_seconds) of the last scenario
        self.last_scenario_throughput: Optional[tuple[int, float]] = None

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------

    def _compute_golden(self, scenario: Scenario) -> ScenarioCampaign:
        """Phase one for one scenario."""
        self.progress(f"[golden] {scenario.scenario_id}")
        campaign = ScenarioCampaign(scenario, self.config)
        campaign.run_golden()
        return campaign

    def run_one(
        self,
        scenario: Scenario,
        pool: Optional[PersistentSuitePool] = None,
        campaign: Optional[ScenarioCampaign] = None,
        partial: Optional[dict] = None,
        checkpoint: Optional[Callable[[str, dict], None]] = None,
    ) -> ScenarioReport:
        """Execute one scenario end to end: golden, fault list, jobs, report.

        :meth:`ScenarioCampaign.execute` with a drain that runs each
        batch as jobs on ``pool`` (a pool of its own without one), all
        naming the golden's spool file.  ``campaign`` supplies a
        pre-computed golden run; ``partial`` and ``checkpoint`` carry an
        adaptive campaign's resume state.
        """
        if pool is None:
            with PersistentSuitePool(self.workers, self.start_method) as pool:
                return self.run_one(scenario, pool, campaign, partial, checkpoint)
        start = time.perf_counter()
        if campaign is None:
            campaign = self._compute_golden(scenario)
        golden_ref = pool.spool(scenario.scenario_id, campaign.golden)
        guest = 0

        def drain(batch):
            nonlocal guest
            jobs = self.batcher.batch(
                scenario,
                golden_ref,
                batch,
                watchdog_multiplier=self.config.watchdog_multiplier,
            )
            results, failures = _drain_jobs(jobs, pool.map, self.job_retries, self.progress)
            guest += sum(result.executed_instructions for result in results)
            self.injections += len(results)
            return results, failures

        try:
            report = campaign.execute(
                drain, self.plan, self.prior, partial, checkpoint, self.progress
            )
        finally:
            os.unlink(golden_ref)
            _INJECTORS.pop(golden_ref, None)
        self.guest_instructions += guest
        self.last_scenario_throughput = (guest, time.perf_counter() - start)
        done = ", ".join(f"{k}={v}" for k, v in report.counts.items())
        if report.job_failures:
            done += f", failed_jobs={len(report.job_failures)}"
        if report.adaptive is not None:
            done += f", spent={report.adaptive['spent']}, stop={report.adaptive['stopping']}"
        self.progress(f"[done]   {scenario.scenario_id}: {done}")
        return report

    def run_claims(self, source: ScenarioSource) -> None:
        """The one claim loop: run every scenario ``source`` hands out.

        One pool serves the loop.  A claim runs the ``golden``,
        ``inject`` and ``assemble`` (commit) phases; an exception in one
        goes to ``source.fail`` and the loop goes on.  A lease is renewed
        by a :class:`LeaseHeartbeat` through the source, and a result
        whose lease was lost is discarded.  ``KeyboardInterrupt`` stops
        the loop: the source releases what it holds, completed shards
        stay on disk.
        """
        claim = None
        try:
            with PersistentSuitePool(self.workers, self.start_method) as pool:
                while (claim := source.claim()) is not None:
                    self._run_claim(source, claim, pool)
                    claim = None
        except KeyboardInterrupt:
            source.interrupted(claim)
            self.progress("[stop]   interrupted — completed scenario shards are preserved")
            raise

    def _run_claim(self, source, claim: Claim, pool) -> None:
        runner, scenario, phase = claim.runner or self, claim.scenario, "golden"
        heartbeat = (
            LeaseHeartbeat(source, scenario.scenario_id, claim.owner, claim.lease_ttl)
            if claim.lease_ttl is not None
            else contextlib.nullcontext()
        )
        try:
            with heartbeat:
                campaign = runner._compute_golden(scenario)
                phase = "inject"
                report = runner.run_one(
                    scenario, pool, campaign=campaign,
                    partial=claim.partial, checkpoint=claim.checkpoint,
                )
            phase = "assemble"
            if not getattr(heartbeat, "lost", False) and source.commit(claim, report):
                return
        except Exception as exc:  # noqa: BLE001 — isolate the scenario
            self.progress(
                f"[fail]   {scenario.scenario_id}: {phase} phase: {type(exc).__name__}: {exc}"
            )
            source.fail(claim, phase, exc)
            return
        self.progress(
            f"[discard] {scenario.scenario_id}: lease not held at commit; "
            "discarding result (a peer reclaims the scenario)"
        )
        source.discard(claim)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_scenario(self, scenario: Scenario) -> ScenarioReport:
        """Run the four-phase workflow for one scenario."""
        return self.run_one(scenario)

    def run_suite(
        self,
        scenarios: Iterable[Scenario],
        database: Optional[ResultsDatabase] = None,
        store: Optional[Union[CampaignStore, str, Path]] = None,
        resume: bool = False,
    ) -> ResultsDatabase:
        """Run a campaign over many scenarios, assembling a results database.

        With a ``store``, every completed scenario is persisted as one
        shard the moment it finishes, and ``resume=True`` skips the
        scenarios whose shards already exist (previously *failed*
        scenarios are retried).  A scenario that raises is recorded as a
        :class:`ScenarioFailure` and the suite continues; an interrupt
        stops the suite but completed shards stay on disk.
        """
        database = database if database is not None else ResultsDatabase()
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self.guest_instructions = 0
        self.injections = 0
        self.last_scenario_throughput = None
        self.run_claims(_SuiteSource(self, list(scenarios), store, resume, database))
        return database

    def run_leased(
        self,
        scenarios: Iterable[Scenario],
        store: Union[CampaignStore, str, Path],
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        database: Optional[ResultsDatabase] = None,
    ) -> ResultsDatabase:
        """Lease-driven execution: partition a shared store with peers.

        The distributed counterpart of :meth:`run_suite`.  Any number of
        processes (or hosts mounting the same store root) call this
        concurrently with the same suite; the store's lease protocol
        guarantees each scenario executes exactly once.  A worker whose
        lease expired mid-run discards its result — the reclaiming
        peer's run is the one that counts — and a scenario that fails is
        not claimed again by this call.  Returns the scenarios *this*
        worker completed; the union of all workers' shards is
        bit-identical to a single-process ``run_suite`` of the same
        suite and seed.
        """
        if not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        by_id = {scenario.scenario_id: scenario for scenario in scenarios}
        database = database if database is not None else ResultsDatabase()
        # Every worker publishes (or checks) the manifest peers claim
        # against; concurrent first workers write identical bytes.
        prepare_store(
            store, list(by_id), self.config.as_dict(), resume=True,
            plan=self.plan.as_dict() if self.plan is not None else None,
        )
        book = LeaseBook(store, list(by_id), lease_ttl)
        owner = owner or f"worker-{os.getpid()}"
        self.run_claims(_StoreLeaseSource(self, book, by_id, owner, database))
        return database

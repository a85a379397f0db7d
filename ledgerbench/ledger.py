"""Injection ledger: fixed campaign mixes, timed end to end.

One run sets a workload up (compile every program, golden-run every
scenario with checkpoints, draw the fault lists, one warm-up injection
per scenario), then runs the workload's campaign driver for a fixed
wall-clock budget:

* ``inprocess`` injects faults round-robin across the scenarios exactly
  as an in-process campaign does: ``FaultInjector.run_one`` followed by
  the JSON serialisation of the result record that a shard stores.
  Each scenario's list is sorted by target kind and injection time and
  visited in bit-reversed order, so any prefix of it spreads evenly over
  the kinds and the run length; a short run therefore samples the same
  mix of targets and of short and long post-fault tails whatever the
  seed.
* ``pooled`` and ``leased`` run whole campaigns of :data:`PASS_FAULTS`
  faults per scenario, again and again, through
  ``CampaignRunner.run_suite`` and ``CampaignRunner.run_leased`` with a
  pool of :data:`WORKERS` processes and a fresh store per pass: golden
  runs, pool start, golden install broadcasts, job batches, shards and
  (leased) file leases with their heartbeat are all on the clock.

Faults come from the campaign's own fault model, seeded by the run's
seed.  Set-up is timed in this process (the first, cold one) and in
:data:`SETUP_PROCESSES` fresh processes; ``setup_s`` is the median.

Correctness is checked three ways: every injection must yield one of
the classifier's outcomes; a fault injected twice (the warm-up fault,
every fault once an in-process list wraps, a sample of each pooled or
leased pass re-run in process) must give the identical record; and one seeded
fault per scenario (among those that needed no rollback) is replayed
from boot on the reference interpreter, without checkpoints or the
block engine, whose outcome and instruction count must match.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import repro.cpu.engine as engine_module
import repro.injection.injector as injector_module
import repro.orchestration.runner as runner_module
from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.classify import NOT_INJECTED, Outcome
from repro.injection.fault import FaultDescriptor
from repro.injection.golden import GoldenRunResult
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario
from repro.orchestration.runner import CampaignRunner
from repro.orchestration.store import CampaignStore
from repro.soc.multicore import MulticoreSystem

from hostclock import REFERENCE_SECONDS, HostClock
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Faults drawn per scenario for the in-process driver; a power of two
#: for the bit-reversed order.
POOL = 512

#: Set-ups timed in fresh processes besides the run's own first one.
SETUP_PROCESSES = 2

#: Worker processes of the pooled and leased drivers.
WORKERS = 2

#: Faults per scenario in one pooled or leased campaign pass.
PASS_FAULTS = 128

#: The target mix of the repository's memory/cache campaign
#: (``scripts/smoke_memory_campaign.py``).
MEMORY_CAMPAIGN_MIX = (("gpr", 0.6), ("memory", 0.3), ("cache", 0.1))

_VALID_OUTCOMES = frozenset(outcome.value for outcome in Outcome)


def _matrix(hardening=None, target_mix=None) -> tuple[Scenario, ...]:
    """IS x armv7/armv8 and LU x armv8, each serial and OpenMP on 2 cores.

    LU on armv7 is left out: its software floating point makes it ~10x
    longer than the rest, and its rare hangs (up to 0.6 s each) alone
    would swing a short run's throughput by ~7% from seed to seed.
    """
    apps_isas = (("IS", "armv7"), ("IS", "armv8"), ("LU", "armv8"))
    return tuple(
        Scenario(app, mode, cores, isa, target_mix=target_mix, hardening=hardening)
        for app, isa in apps_isas
        for mode, cores in (("serial", 1), ("omp", 2))
    )


#: workload name -> (campaign driver, scenarios)
WORKLOADS: dict[str, tuple[str, tuple[Scenario, ...]]] = {
    "regfile": ("inprocess", _matrix()),
    "rec": ("inprocess", _matrix(hardening="dwc+rec")),
    "memhier": ("inprocess", _matrix(target_mix=MEMORY_CAMPAIGN_MIX)),
    "pooled": ("pooled", _matrix()),
    "leased": ("leased", _matrix()),
}


def _bit_reversed(count: int) -> list[int]:
    bits = count.bit_length() - 1
    return [int(format(index, f"0{bits}b")[::-1], 2) for index in range(count)]


def _signature(record: dict) -> dict:
    """A result record without its wall-clock field."""
    return {key: value for key, value in record.items() if key != "wall_time_seconds"}


@dataclass
class Lane:
    """One scenario's golden reference, injector and fault visiting order."""

    scenario: Scenario
    golden: GoldenRunResult
    injector: FaultInjector
    faults: list[FaultDescriptor]
    position: int = 0
    #: fault_id -> signature of its first result
    seen: dict[int, dict] = field(default_factory=dict)
    outcomes: Counter = field(default_factory=Counter)
    latencies: list[float] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)


class InjectionTracer(Tracer):
    """A tracer that knows whether the current injection's fault is applied."""

    fault_applied = False


class ReferenceInjector(FaultInjector):
    """An injector whose systems run on the reference interpreter."""

    def _build_system(self, with_caches: bool = False) -> MulticoreSystem:
        system = injector_module.create_system(
            self.scenario, model_caches=self.model_caches or with_caches, engine=False
        )
        injector_module.launch_scenario(system, self.scenario, self.program)
        if self.recovery_retries is not None:
            system.kernel.recovery_mode = True
        return system


def _check_outcome(scenario_id: str, outcome: str, tally: Tally) -> bool:
    """Count a NotInjected result as failed; False unless the fault was applied."""
    if outcome == NOT_INJECTED:
        tally.failed += 1
        return False
    if outcome not in _VALID_OUTCOMES:
        tally.mismatches.append(f"{scenario_id}: unknown outcome {outcome!r}")
    return True


def _inject(lane: Lane, tally: Tally, tracer: InjectionTracer | None = None) -> float | None:
    """Inject the lane's next fault; returns its wall time, None if it failed."""
    fault = lane.faults[lane.position % len(lane.faults)]
    lane.position += 1
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = lane.injector.run_one(fault)
        if tracer is not None:
            tracer.begin("record.serialise")
        try:
            record = result.as_record()
            json.dumps(record, sort_keys=True)  # the line a campaign shard stores
        finally:
            if tracer is not None:
                tracer.end()
    except SimulatorError as error:
        tally.failed += 1
        print(f"FAILED {lane.scenario.scenario_id} fault {fault.fault_id}: {error}")
        return None
    latency = time.perf_counter() - start
    lane.outcomes[result.outcome] += 1
    applied = _check_outcome(lane.scenario.scenario_id, result.outcome, tally)
    signature = _signature(record)
    first = lane.seen.setdefault(fault.fault_id, signature)
    if first != signature:
        tally.mismatches.append(
            f"{lane.scenario.scenario_id} fault {fault.fault_id} not repeatable: {first} != {signature}"
        )
    return latency if applied else None


def set_up(scenarios, seed: int, tally: Tally, clock: HostClock) -> tuple[list[Lane], float]:
    """Compile, golden-run and draw faults for every scenario, then warm up.

    Returns the lanes and the set-up time in reference-host seconds; a
    probe after every step tracks the host's speed meanwhile.
    """
    mark = len(clock.samples)
    start = time.perf_counter()
    lanes = []
    for scenario in scenarios:
        campaign = ScenarioCampaign(scenario, CampaignConfig(faults_per_scenario=POOL, seed=seed))
        golden = campaign.run_golden()
        ordered = sorted(
            campaign.build_fault_list(),
            key=lambda f: (f.target_kind, f.injection_time, f.fault_id),
        )
        faults = [ordered[index] for index in _bit_reversed(len(ordered))]
        injector = FaultInjector(
            scenario, golden, watchdog_multiplier=campaign.config.watchdog_multiplier
        )
        lanes.append(Lane(scenario, golden, injector, faults))
        clock.probe()
    # The first injection of a scenario decodes and compiles its program
    # for the injection-time system configuration: set-up, not steady state.
    for lane in lanes:
        _inject(lane, tally)
        lane.position = 0
        clock.probe()
    wall = time.perf_counter() - start - sum(clock.samples[mark:])
    return lanes, wall * clock.scale(mark)


def set_up_only(workload: str, seed: int) -> float:
    """One set-up in this process; raises if a warm-up injection went wrong."""
    tally = Tally()
    _lanes, seconds = set_up(WORKLOADS[workload][1], seed, tally, HostClock())
    if tally.failed or tally.mismatches:
        raise SimulatorError(f"set-up warm-up failed: {tally}")
    return seconds


def _set_up_in_fresh_process(workload: str, seed: int) -> float:
    """Time one set-up in a new interpreter, where no cache is warm."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SimulatorError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# campaign drivers
# ---------------------------------------------------------------------------


def _campaign(
    lanes: list[Lane],
    seconds: float,
    tally: Tally,
    clock: HostClock,
    tracer: InjectionTracer | None,
) -> float:
    """Inject whole rounds (one fault per scenario) until ``seconds`` pass.

    A probe follows every round.  Each lane's latencies are kept in
    reference-host seconds, scaled by the median of the probes of the
    five rounds centred on the one that measured them.  Returns the
    loop's wall time without the probes.
    """
    for lane in lanes:
        lane.latencies.clear()
        lane.outcomes.clear()
    mark = len(clock.samples)
    rounds = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        rounds.append([(lane, _inject(lane, tally, tracer)) for lane in lanes])
        clock.probe()
    wall = time.perf_counter() - start - sum(clock.samples[mark:])
    for index, measured in enumerate(rounds):
        scale = clock.scale(mark + max(0, index - 2), mark + index + 3)
        for lane, latency in measured:
            if latency is not None:
                lane.latencies.append(latency * scale)
    return wall


def _check_pass(database, scenarios, tally: Tally) -> dict[str, list[dict]]:
    """Count one pooled or leased pass's results; returns their signatures."""
    signatures: dict[str, list[dict]] = {}
    for failure in database.failures:
        tally.mismatches.append(f"{failure.scenario_id}: {failure.error_type}: {failure.error}")
    for scenario in scenarios:
        scenario_id = scenario.scenario_id
        tally.attempted += PASS_FAULTS
        report = database.reports.get(scenario_id)
        if report is None:
            tally.failed += PASS_FAULTS
            continue
        tally.failed += sum(failure["faults"] for failure in report.job_failures)
        records = []
        for result in report.results:
            _check_outcome(scenario_id, result.outcome, tally)
            records.append(_signature(result.as_record()))
        signatures[scenario_id] = records
    return signatures


@dataclass
class Pass:
    """One pooled or leased campaign pass; times in seconds."""

    injections: int
    wall: float
    #: wall time without the workers' probes, in reference-host seconds
    reference: float
    #: reference seconds per wall second, from the workers' probes
    scale: float


def _fleet_campaign(
    driver: str,
    lanes: list[Lane],
    seed: int,
    seconds: float,
    tally: Tally,
    hook: WorkerHook,
) -> tuple[dict[str, list[dict]], list[Pass]]:
    """Run whole pooled or leased campaigns until ``seconds`` pass.

    Each pass draws its faults with its own campaign seed, derived from
    ``seed``, into a fresh store: one pass's :data:`PASS_FAULTS` faults
    per scenario are too few to average out the rare long runs, several
    passes' different faults are not.  One seeded result per scenario
    and pass is re-run in this process on the set-up's injector and
    must give the identical record.  A pass's wall time is scaled by
    the workers' own probes: they run on the CPUs the injections run
    on, when they run, and so follow the host better than probes
    between passes.  Returns the first pass's record signatures and the
    passes.
    """
    scenarios = [lane.scenario for lane in lanes]
    rng = random.Random(seed)
    first: dict[str, list[dict]] | None = None
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        store = os.path.join(hook.work_dir, f"store-{len(passes)}")
        hook.start_pass(len(passes))
        config = CampaignConfig(faults_per_scenario=PASS_FAULTS, seed=seed * 1000 + len(passes))
        runner = CampaignRunner(config, workers=WORKERS)
        start = time.perf_counter()
        if driver == "pooled":
            database = runner.run_suite(scenarios, store=store)
        else:
            database = runner.run_leased(scenarios, store=store, owner="ledger")
        wall = time.perf_counter() - start
        reports = hook.reports()
        samples = [sample for report in reports for sample in report["probes"]]
        if hook.tracer is not None:
            for report in reports:
                hook.tracer.add_totals(report["totals"])
        scale = REFERENCE_SECONDS / statistics.median(samples)
        if len(CampaignStore(store).completed_ids()) != len(database.reports):
            tally.mismatches.append(f"{driver} pass {len(passes)}: store and results disagree")
        shutil.rmtree(store)
        failed = tally.failed
        signatures = _check_pass(database, scenarios, tally)
        passes.append(
            Pass(
                injections=PASS_FAULTS * len(scenarios) - (tally.failed - failed),
                wall=wall,
                reference=(wall - sum(samples) / WORKERS) * scale,
                scale=scale,
            )
        )
        for lane in lanes:
            records = signatures.get(lane.scenario.scenario_id)
            if records:
                expected = rng.choice(records)
                fault = FaultDescriptor.from_dict(expected)
                got = _signature(lane.injector.run_one(fault).as_record())
                if got != expected:
                    tally.mismatches.append(
                        f"{lane.scenario.scenario_id} fault {fault.fault_id}: "
                        f"{driver} {expected} != in-process {got}"
                    )
        first = signatures if first is None else first
    return first, passes


def _audit(lane: Lane, results: dict, rng: random.Random, tally: Tally) -> None:
    """Replay one seeded fault from boot on the reference interpreter.

    ``results`` maps fault ids to ``(fault, signature)``.  Only faults
    whose run needed no rollback qualify: a rollback restores a
    checkpoint, so without checkpoints its target, and with it the
    recovery record, legitimately differs.
    """
    eligible = sorted(
        fault_id
        for fault_id, (_fault, signature) in results.items()
        if not signature.get("recovery_rollbacks")
        and signature["outcome"] != NOT_INJECTED
    )
    if not eligible:
        return
    fault, expected = results[rng.choice(eligible)]
    oracle = ReferenceInjector(
        lane.scenario,
        lane.golden,
        watchdog_multiplier=lane.injector.watchdog_multiplier,
        use_checkpoints=False,
    )
    replayed = oracle.run_one(fault)
    got = (replayed.outcome, replayed.detail, replayed.executed_instructions)
    want = (expected["outcome"], expected.get("detail", ""), expected["executed_instructions"])
    if got != want:
        tally.mismatches.append(
            f"{lane.scenario.scenario_id} fault {fault.fault_id}: reference replay {got} != {want}"
        )


# ---------------------------------------------------------------------------
# layer instrumentation (--trace 1)
# ---------------------------------------------------------------------------


def _instrument(tracer: InjectionTracer, in_workers: bool) -> None:
    """Wrap the calls an injection makes into each layer with spans.

    ``FaultInjector.run_one`` is the root ``injection`` span.
    ``MulticoreSystem.run`` is split by whether the fault was applied
    yet: ``sim.prefix`` runs from the restored checkpoint to the
    injection point, ``sim.postfault`` covers everything after it
    (including re-execution after a rollback).  Simulated instructions
    and checkpoint fast-forwards are counted.

    With ``in_workers`` the injections run in pool workers: the tracer
    stays disabled in this process, which times only the shard writes,
    and each forked worker enables its copy (see :class:`WorkerHook`).
    """
    tracer.wrap(injector_module, "create_system", "soc.build")
    tracer.wrap(injector_module, "launch_scenario", "soc.launch")
    tracer.wrap(injector_module, "restore_snapshot", "checkpoint.restore")
    tracer.wrap(injector_module, "capture_snapshot", "checkpoint.capture")
    tracer.wrap(injector_module, "classify_run", "injection.classify")
    tracer.wrap(FaultInjector, "_compare", "injection.compare")
    tracer.wrap(engine_module, "_decode_uncached", "engine.decode")
    tracer.wrap(engine_module, "_compile_block", "engine.compile")

    def run_one_wrapper(original):
        def run_one(injector, *args, **kwargs):
            if not tracer.enabled:
                return original(injector, *args, **kwargs)
            tracer.fault_applied = False
            forwards, replays = injector.fast_forwards, injector.boot_replays
            tracer.begin("injection")
            try:
                return original(injector, *args, **kwargs)
            finally:
                tracer.end()
                tracer.counts["fast_forwards"] += injector.fast_forwards - forwards
                tracer.counts["boot_replays"] += injector.boot_replays - replays

        return run_one

    def apply_wrapper(original):
        def apply_fault(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            tracer.begin("injection.apply")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()
                tracer.fault_applied = True

        return apply_fault

    def run_wrapper(original):
        def run(system, *args, **kwargs):
            if not tracer.enabled:
                return original(system, *args, **kwargs)
            layer = "sim.postfault" if tracer.fault_applied else "sim.prefix"
            before = system.total_instructions
            tracer.begin(layer)
            try:
                return original(system, *args, **kwargs)
            finally:
                tracer.end()
                tracer.counts[f"{layer}.instructions"] += system.total_instructions - before

        return run

    tracer.wrap(FaultInjector, "run_one", "injection", wrapper=run_one_wrapper)
    tracer.wrap(FaultInjector, "_apply_fault", "injection.apply", wrapper=apply_wrapper)
    tracer.wrap(MulticoreSystem, "run", "sim", wrapper=run_wrapper)
    if in_workers:
        tracer.enabled = False
        tracer.wrap(CampaignStore, "write_shard", "record.serialise", force=True)


class WorkerHook:
    """Host-speed probes and trace totals from forked pool workers.

    Wraps the orchestration runner's ``execute_job``.  A worker forked
    for a pass runs one probe before each of its jobs, so its probes
    see the same host as its injections, and after each job writes its
    probe times (and, when tracing, its tracer's totals) to its file in
    the pass's directory.
    """

    def __init__(self, work_dir: str, tracer: Tracer | None) -> None:
        self.work_dir = work_dir
        self.tracer = tracer
        self.parent = os.getpid()
        self.pass_dir = ""
        #: this worker's clock and file; unset in the parent
        self.clock: HostClock | None = None
        self.path = ""
        self._original = runner_module.execute_job

    def install(self) -> None:
        original = self._original

        def execute_job(job):
            if self.clock is None and os.getpid() != self.parent:
                self.clock = HostClock()
                self.path = os.path.join(self.pass_dir, f"worker-{os.getpid()}.json")
                if self.tracer is not None:
                    self.tracer.reset()
                    self.tracer.enabled = True
            if self.clock is None:
                return original(job)
            self.clock.probe()
            try:
                return original(job)
            finally:
                totals = self.tracer.totals() if self.tracer is not None else None
                with open(self.path, "w", encoding="utf-8") as handle:
                    json.dump({"probes": self.clock.samples, "totals": totals}, handle)

        runner_module.execute_job = execute_job

    def uninstall(self) -> None:
        runner_module.execute_job = self._original

    def start_pass(self, index: int) -> None:
        """Direct the workers forked from now on to a new directory."""
        self.pass_dir = os.path.join(self.work_dir, f"workers-{index}")
        os.makedirs(self.pass_dir)

    def reports(self) -> list[dict]:
        """What the current pass's workers wrote."""
        reports = []
        for name in sorted(os.listdir(self.pass_dir)):
            with open(os.path.join(self.pass_dir, name), encoding="utf-8") as handle:
                reports.append(json.load(handle))
        return reports


def _layer_metrics(
    tracer: Tracer, injections: int, capacity: float, rollbacks: float, scale: float
) -> dict:
    """Per-injection layer self times (reference-host ms) and layer counts.

    ``capacity`` is the measured wall time times the processes that
    inject; what no span covers of it is the driver's own time.
    """
    per = 1000.0 * scale / injections  # wall seconds over the run -> ms per injection
    self_time = tracer.self_time
    counts = tracer.counts
    total = sum(self_time.values())
    sim_seconds = (self_time["sim.prefix"] + self_time["sim.postfault"]) * scale
    sim_instructions = counts["sim.prefix.instructions"] + counts["sim.postfault.instructions"]
    restored = counts["fast_forwards"] + counts["boot_replays"]
    return {
        "injection_ms": (total * per, "ms"),
        "build_ms": (self_time["soc.build"] * per, "ms"),
        "launch_ms": (self_time["soc.launch"] * per, "ms"),
        "checkpoint_ms": (
            (self_time["checkpoint.restore"] + self_time["checkpoint.capture"]) * per,
            "ms",
        ),
        "prefix_ms": (self_time["sim.prefix"] * per, "ms"),
        "apply_ms": (self_time["injection.apply"] * per, "ms"),
        "postfault_ms": (self_time["sim.postfault"] * per, "ms"),
        "compare_ms": (self_time["injection.compare"] * per, "ms"),
        "classify_ms": (self_time["injection.classify"] * per, "ms"),
        "record_ms": (self_time["record.serialise"] * per, "ms"),
        "jit_ms": ((self_time["engine.decode"] + self_time["engine.compile"]) * per, "ms"),
        "other_ms": (self_time["injection"] * per, "ms"),
        "driver_ms": ((capacity - total) * per, "ms"),
        "layer_coverage_pct": (100.0 * (1.0 - self_time["injection"] / total), "%"),
        "prefix_kinstr": (counts["sim.prefix.instructions"] / injections / 1000.0, "kinstr"),
        "postfault_kinstr": (counts["sim.postfault.instructions"] / injections / 1000.0, "kinstr"),
        "sim_mips": (sim_instructions / sim_seconds / 1e6, "Minstr/s"),
        "fast_forward_pct": (100.0 * counts["fast_forwards"] / max(1, restored), "%"),
        "systems_per_injection": (counts["soc.build"] / injections, "count"),
        "compiles_per_injection": (counts["engine.compile"] / injections, "count"),
        "decodes_per_injection": (counts["engine.decode"] / injections, "count"),
        "rollbacks_per_fault": (rollbacks, "count"),
        "host_scale": (scale, "ratio"),
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Set up, measure and check one workload; returns the result object.

    Every time is in reference-host units (see :mod:`hostclock`).
    Stores, pool spool files and worker span totals go under ``out_dir``.
    """
    driver, scenarios = WORKLOADS[workload]
    tally = Tally()
    clock = HostClock()
    lanes, first_setup = set_up(scenarios, seed, tally, clock)
    setup_times = [first_setup]
    setup_times += [_set_up_in_fresh_process(workload, seed) for _ in range(SETUP_PROCESSES)]
    # Warm-up injections are set-up work: a failure among them still
    # shows as a mismatch, but only the measured injections are counted.
    warmups = tally.attempted
    tally.attempted = tally.failed = 0

    work_dir = os.path.join(out_dir, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = InjectionTracer() if trace else None
    hook = WorkerHook(work_dir, tracer) if driver != "inprocess" else None
    gc.collect()  # start the measured loop without the set-ups' garbage
    mark = len(clock.samples)
    if tracer is not None:
        _instrument(tracer, in_workers=hook is not None)
    try:
        if hook is None:
            wall = _campaign(lanes, seconds, tally, clock, tracer)
        else:
            hook.install()
            first, passes = _fleet_campaign(driver, lanes, seed, seconds, tally, hook)
    finally:
        if hook is not None:
            hook.uninstall()
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    rng = random.Random(seed)
    if driver == "inprocess":
        injections = sum(len(lane.latencies) for lane in lanes)
        throughput = injections / sum(latency for lane in lanes for latency in lane.latencies)
        capacity = wall
        scale = clock.scale(mark)
        signatures = [signature for lane in lanes for signature in lane.seen.values()]
        for lane in lanes:
            by_id = {fault.fault_id: fault for fault in lane.faults}
            results = {fid: (by_id[fid], signature) for fid, signature in lane.seen.items()}
            _audit(lane, results, rng, tally)
        for lane in lanes:
            outcomes = ", ".join(f"{k}={v}" for k, v in sorted(lane.outcomes.items()))
            mean_ms = 1000.0 * statistics.fmean(lane.latencies) if lane.latencies else 0.0
            print(
                f"{lane.scenario.scenario_id:34s} {len(lane.latencies):5d} inj "
                f"{mean_ms:8.2f} ms/inj  {outcomes}"
            )
    else:
        injections = sum(done.injections for done in passes)
        # The median pass: one pass hit by a burst on the shared host
        # moves it less than it moves the total.
        throughput = statistics.median(done.injections / done.reference for done in passes)
        capacity = WORKERS * sum(done.reference / done.scale for done in passes)
        scale = statistics.median(done.scale for done in passes)
        signatures = [signature for records in first.values() for signature in records]
        for lane in lanes:
            records = first.get(lane.scenario.scenario_id, [])
            results = {
                signature["fault_id"]: (FaultDescriptor.from_dict(signature), signature)
                for signature in records
            }
            _audit(lane, results, rng, tally)
        for done in passes:
            print(
                f"{driver} pass: {done.injections} inj in {done.wall:.2f} s, "
                f"{done.injections / done.reference:.1f} inj/s (host scale {done.scale:.3f})"
            )
    for problem in tally.mismatches[:10]:
        print(f"MISMATCH {problem}")
    print(
        f"set-ups {[round(t, 3) for t in setup_times]} s ({warmups} warm-up injections); "
        f"host scale {scale:.3f} reference s per wall s"
    )

    if tracer is not None:
        rollbacks = sum(s.get("recovery_rollbacks") or 0 for s in signatures) / len(signatures)
        metrics = _layer_metrics(tracer, injections, capacity, rollbacks, scale)
        tracer.write_jsonl(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        metrics = {
            "injections_per_s": (throughput, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    return {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

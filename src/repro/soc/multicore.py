"""The multicore system: cores, caches, kernel and the simulation loop.

The system steps cores in a fixed round-robin order with a bounded
burst per core, which makes every simulation fully deterministic — a
prerequisite for comparing faulty runs against the golden execution.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.core import Core
from repro.cpu.statistics import CoreStats, aggregate_stats, load_balance
from repro.errors import DeadlockError, GuestFault, WatchdogTimeout
from repro.kernel.kernel import Kernel
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.soc.config import ProcessorConfig, make_processor_config

#: The segments whose final contents decide an OMM: thread stacks are
#: left out, so a wrong byte there alone never changes an outcome.
COMPARED_SEGMENTS = ["data", "heap"]


class MulticoreSystem:
    """A simulated multicore processor running the mini OS."""

    #: instructions a core runs per turn of the round-robin loop
    burst = 100

    def __init__(
        self,
        config: ProcessorConfig,
        model_caches: bool = True,
        engine: bool = True,
    ):
        self.config = config
        self.arch = config.arch
        self.model_caches = model_caches
        #: False pins every core to the reference interpreter; the
        #: differential tests run both engines over identical workloads
        self.engine = engine
        self.shared_l2 = Cache(config.cache_configs["l2"])
        self.cores: list[Core] = []
        self.kernel = Kernel(self)
        for core_id in range(config.num_cores):
            hierarchy = CacheHierarchy.build(shared_l2=self.shared_l2, configs=config.cache_configs)
            core = Core(
                core_id,
                config.arch,
                caches=hierarchy,
                syscall_handler=self.kernel.handle_syscall,
                model_caches=model_caches,
                use_engine=engine,
            )
            self.cores.append(core)
        self.total_instructions = 0
        self.run_reason: Optional[str] = None
        # Mid-iteration resume point set when run() pauses at a breakpoint:
        # (core_index, instructions the core already used of its burst,
        # progress accumulated so far in the interrupted iteration).
        self._resume: Optional[tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # workload launch helpers (thin wrappers around the kernel)
    # ------------------------------------------------------------------

    def load_process(self, program, name: str = "proc", nthreads_hint: int = 1):
        return self.kernel.launch(program, name=name, nthreads_hint=nthreads_hint)

    def load_mpi_job(self, program, nranks: int, name: str = "mpi"):
        return self.kernel.launch_mpi_job(program, nranks, name=name)

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------

    def _step_core(self, core: Core, budget: int) -> int:
        """Run one core for at most ``budget`` instructions.

        One :meth:`Core.run_burst` call per burst: the per-instruction
        loop lives inside the core's execution engine, which keeps
        state and statistics interpreter-exact at every boundary (and
        at a mid-burst guest fault).
        """
        thread = core.thread
        start = core.stats.instructions
        try:
            core.run_burst(budget)
        except GuestFault as fault:
            self.kernel.handle_fault(core, fault)
        executed = core.stats.instructions - start
        if thread is not None:
            thread.slice_used += executed
            thread.instructions_executed += executed
        return executed

    def run(
        self,
        max_instructions: Optional[int] = None,
        stop_at_instruction: Optional[int] = None,
    ) -> str:
        """Run until every process has terminated.

        Returns ``"completed"`` when all processes terminated,
        ``"breakpoint"`` when ``stop_at_instruction`` was reached, or
        ``"ft_detected"`` when the kernel runs in recovery mode and a
        hardening check fired (the fault injector's rollback loop takes
        over; outside recovery mode a detection simply kills the process
        and the run coasts to its normal end).
        Raises :class:`WatchdogTimeout` the moment ``max_instructions``
        is reached (``WatchdogTimeout.executed`` equals the budget
        exactly — per-core burst budgets are clamped to the remainder,
        so a run never overshoots) and :class:`DeadlockError` when no
        runnable thread exists but live processes remain blocked.

        Pausing is schedule-neutral: a breakpoint stops execution exactly
        at ``stop_at_instruction`` (mid-burst, mid-iteration) and the next
        ``run()`` call continues from that exact point, so a run paused
        any number of times executes the same instruction interleaving as
        an uninterrupted run.  The checkpoint subsystem and the fault
        injector both rely on this guarantee.
        """
        kernel = self.kernel
        resume = self._resume
        self._resume = None
        if stop_at_instruction is not None and self.total_instructions >= stop_at_instruction:
            self._resume = resume  # keep the pause point for the real continuation
            self.run_reason = "breakpoint"
            return "breakpoint"
        if resume is None:
            kernel.schedule()
        while kernel.has_live_processes():
            if resume is None:
                if max_instructions is not None and self.total_instructions >= max_instructions:
                    raise WatchdogTimeout(
                        f"instruction budget of {max_instructions} exhausted", executed=self.total_instructions
                    )
                start_index, start_used, progress = 0, 0, 0
            else:
                start_index, start_used, progress = resume
                resume = None
            for index in range(start_index, len(self.cores)):
                core = self.cores[index]
                burst_used = start_used if index == start_index else 0
                remaining = self.burst - burst_used
                if remaining <= 0:
                    continue
                if core.thread is None:
                    if burst_used == 0:
                        core.stats.idle_cycles += self.burst
                    continue
                budget = remaining
                if stop_at_instruction is not None:
                    budget = min(budget, stop_at_instruction - self.total_instructions)
                if max_instructions is not None:
                    # Exact clamp: the former ``max(1, ...)`` granted every
                    # core after the budget boundary one bonus instruction,
                    # so a run could overshoot ``max_instructions`` by up to
                    # ``len(cores) - 1`` before the top-of-iteration check
                    # raised.  Clamping to the true remainder (and skipping
                    # exhausted cores) makes ``WatchdogTimeout.executed``
                    # exact: ``total_instructions`` never exceeds the budget.
                    budget = min(budget, max_instructions - self.total_instructions)
                    if budget <= 0:
                        continue
                executed = self._step_core(core, budget)
                progress += executed
                self.total_instructions += executed
                if kernel.detection_event is not None:
                    # Checked before the breakpoint: a snapshot taken at
                    # this boundary would capture the killed process, so
                    # the detection must win when both coincide.  The
                    # event is stamped with the exact stop position; the
                    # recovery loop restores a checkpoint over the system
                    # or abandons it, so no resume point is recorded.
                    kernel.detection_event["instruction"] = self.total_instructions
                    self.run_reason = "ft_detected"
                    return "ft_detected"
                if stop_at_instruction is not None and self.total_instructions >= stop_at_instruction:
                    self._resume = (index, burst_used + executed, progress)
                    self.run_reason = "breakpoint"
                    return "breakpoint"
            kernel.schedule()
            if progress == 0 and not kernel.runnable_exists():
                if kernel.has_live_processes():
                    raise DeadlockError(
                        f"no runnable threads but {len(kernel.live_processes())} live process(es) remain"
                    )
                break
        self.run_reason = "completed"
        return "completed"

    # ------------------------------------------------------------------
    # state capture (used by the golden run and the classifier)
    # ------------------------------------------------------------------

    def architectural_state(self) -> tuple:
        return tuple(core.architectural_state() for core in self.cores)

    def memory_snapshot(self) -> dict[str, dict[str, bytes]]:
        """Every process' data and heap (:data:`COMPARED_SEGMENTS`); stacks are not compared."""
        return {
            process.name: process.address_space.snapshot(names=COMPARED_SEGMENTS)
            for process in self.kernel.processes
        }

    def combined_output(self) -> str:
        return self.kernel.combined_output()

    def aggregate_stats(self) -> CoreStats:
        return aggregate_stats([core.stats for core in self.cores])

    def load_balance(self) -> float:
        return load_balance([core.stats for core in self.cores])

    def cache_stats(self) -> dict[str, float]:
        stats: dict[str, float] = {}
        for core in self.cores:
            if core.caches is None:
                continue
            for key, value in core.caches.stats().items():
                stats[f"core{core.core_id}_{key}"] = value
        # The shared L2 is exported exactly once at the SoC level; the
        # per-core hierarchies skip it (owns_l2 is False) so summing the
        # per-core dicts cannot multiply L2 counters by the core count.
        stats.update(self.shared_l2.stats.as_dict("l2_"))
        return stats

    def flush_caches(self) -> None:
        """Invalidate every cache in the SoC: per-core L1s, then the shared L2 once."""
        for core in self.cores:
            if core.caches is not None:
                core.caches.flush(include_l2=False)
        self.shared_l2.flush()

    def cache_faults_pending(self) -> bool:
        """True while an injected flip is still confined to a cached line."""
        if not self.model_caches:
            return False
        caches = [self.shared_l2]
        for core in self.cores:
            caches += (core.caches.l1i, core.caches.l1d)
        return any(cache.pending_lines() for cache in caches)

    def processes_ok(self) -> bool:
        """True when every process exited normally with code 0."""
        return all(
            process.state.value == "exited" and process.exit_code == 0 for process in self.kernel.processes
        )

    def any_process_killed(self) -> bool:
        return any(process.state.value == "killed" for process in self.kernel.processes)


def build_system(
    isa: str = "armv7",
    cores: int = 1,
    model_caches: bool = True,
    engine: bool = True,
) -> MulticoreSystem:
    """Convenience constructor used throughout examples and tests."""
    return MulticoreSystem(make_processor_config(isa, cores), model_caches=model_caches, engine=engine)

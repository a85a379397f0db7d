"""Fault injector: runs one faulty execution and classifies it.

Phase three of the paper's workflow.  A register upset that the golden
run overwrites before reading it, or never accesses again, is decided
from the golden run's def-use summary (:mod:`repro.injection.defuse`)
without restoring or simulating anything: it is Vanished or ONA, with
the golden instruction count, exactly as a run to the end would find.
So is a flipped byte of memory mapped at the injection point whose
golden fate is decided (:mod:`repro.injection.fates`).  Every other
injection restores the nearest golden state at or before
the injection point onto the injector's reused system (a freshly built
system boots from zero when there is none), simulates it up to the
injection time, applies the single bit upset to the live state — a
register, the PC, a data-memory byte or a live cache line — and runs on
until normal termination, abnormal termination or the watchdog budget.

Golden states are the golden checkpoints plus, for cache-less systems,
the states the fault-free prefixes pass through at a finer spacing.
Most faults are masked, and a masked run usually re-joins the golden
run long before it ends: the post-fault run pauses at every golden
state past the injection point and takes the difference between the
live state and it (:func:`~repro.checkpoint.state_diff`).  When there
is none, the run is classified Vanished right there with the golden
instruction count.  When every difference is a register, a register of
a saved thread context, or a byte of writable memory that the rest of
the golden run never reads — written first, never accessed again, or
only loaded into registers that are (see :mod:`repro.injection.fates`)
— the run is the golden run too, and it ends there as the golden run
with the differences that stay: ONA for a register, OMM for a data or
heap byte.  A register or memory fault
decided at its injection point is the same rule applied to the
one-register or one-byte difference there.  ``rec`` runs
converge the same way, before a detection and after a rollback; a
rollback to a golden checkpoint from before the upset (or to boot)
re-executes the golden run, so it ends the run at once.  A converged
``rec`` run is Recovered when it rolled back, Vanished when it did not.
Injectors without checkpoints (the boot-replay oracle,
:class:`ReferenceInjector`) always run to the end and decide nothing.
Every early exit, the decisions at the injection point included, goes
through :meth:`FaultInjector._converged`.

Cache faults need a cache-modelling system: only those injections
build systems that model the cache hierarchy (``with_caches``), and they
restore the golden run's cache residency from the checkpoint, so
that the targeted line population matches a boot replay bit for bit.
The corrupted line's fate (consumed on the next hit, written back with
a dirty eviction, or silently dropped with a clean one) decides whether
the flip ever becomes architectural — see ``repro.memory.cache``.  A
golden run whose mix draws cache faults logs each such event per line,
so a flip that the golden run drops, or never touches again, is decided
right after the prefix, without a post-fault run
(:meth:`FaultInjector._decide_cache`).  The state match ignores caches,
so a cache run converges only once no line holds a pending flip.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.checkpoint import (
    StateDiff,
    SystemSnapshot,
    capture_snapshot,
    nearest_checkpoint,
    restore_snapshot,
    state_diff,
)
from repro.errors import DeadlockError, SimulatorError, WatchdogTimeout
from repro.hardening.schemes import recovery_retries
from repro.injection.classify import NOT_INJECTED, Classification, classify_run
from repro.injection.defuse import NEVER, READ
from repro.injection.fates import MemoryFates
from repro.injection.fault import (
    TARGET_CACHE,
    TARGET_FPR,
    TARGET_GPR,
    TARGET_MEMORY,
    TARGET_PC,
    FaultDescriptor,
)
from repro.injection.golden import GoldenRunResult
from repro.memory.cache import DIRTY_EVICTION, HIT, LineEvents
from repro.npb.suite import Scenario, build_program, create_system, launch_scenario
from repro.soc.multicore import COMPARED_SEGMENTS, MulticoreSystem

#: Fault-free prefix captures per golden checkpoint interval (see
#: :meth:`FaultInjector._run_prefix`).
PREFIX_CAPTURES = 4

#: Stop reason of a faulty run that re-joined the golden run (see
#: :meth:`FaultInjector._run_on`).
CONVERGED = "converged"

#: How a run that re-joined the golden run ends: ``(memory matches,
#: architectural state matches)`` at the golden instruction count.
Verdict = tuple[bool, bool]
GOLDEN: Verdict = (True, True)

#: Differing bytes of writable memory past which a golden state is not
#: followed byte by byte (:func:`~repro.checkpoint.state_diff`).
MAX_DEAD_BYTES = 64


@dataclass
class InjectionResult:
    """Outcome record of one fault injection."""

    fault: FaultDescriptor
    outcome: str
    detail: str
    executed_instructions: int
    wall_time_seconds: float
    scenario_id: str = ""
    #: Recovery metadata, present only for injections run under a
    #: ``rec`` scheme: ``{"rollbacks": int, "reexecuted_instructions":
    #: int, "escalated": bool}``.  ``None`` keeps detect-and-die and
    #: unhardened records (and their serialized form) exactly as before.
    recovery: Optional[dict] = None

    def as_record(self) -> dict:
        record = {
            "scenario_id": self.scenario_id,
            "outcome": self.outcome,
            "detail": self.detail,
            "executed_instructions": self.executed_instructions,
            "wall_time_seconds": round(self.wall_time_seconds, 6),
        }
        if self.recovery is not None:
            record["recovery_rollbacks"] = int(self.recovery.get("rollbacks", 0))
            record["recovery_reexecuted_instructions"] = int(
                self.recovery.get("reexecuted_instructions", 0)
            )
            record["recovery_escalated"] = bool(self.recovery.get("escalated", False))
        record.update(self.fault.as_dict())
        return record

    @classmethod
    def from_record(cls, record: dict) -> "InjectionResult":
        """Rebuild a result from :meth:`as_record` output.

        The flat record merges result and fault fields;
        :meth:`FaultDescriptor.from_dict` picks out the fault's share.
        Records written before the recovery axis existed carry no
        ``recovery_*`` keys and come back with ``recovery=None``.
        """
        recovery = None
        if "recovery_rollbacks" in record:
            recovery = {
                "rollbacks": int(record["recovery_rollbacks"]),
                "reexecuted_instructions": int(
                    record.get("recovery_reexecuted_instructions", 0)
                ),
                "escalated": bool(record.get("recovery_escalated", False)),
            }
        return cls(
            fault=FaultDescriptor.from_dict(record),
            outcome=str(record["outcome"]),
            detail=str(record.get("detail", "")),
            executed_instructions=int(record["executed_instructions"]),
            wall_time_seconds=float(record.get("wall_time_seconds", 0.0)),
            scenario_id=str(record.get("scenario_id", "")),
            recovery=recovery,
        )


class FaultInjector:
    """Runs fault injections for one scenario against its golden reference."""

    #: Unused here: systems model caches only for cache faults
    #: (``with_caches``).  Kept because the ledger benchmark's oracle
    #: subclass reads it when it builds its systems.
    model_caches = False

    #: cores run the block engine; :class:`ReferenceInjector` pins them
    #: to the reference interpreter
    engine = True

    def __init__(
        self,
        scenario: Scenario,
        golden: GoldenRunResult,
        watchdog_multiplier: int = 4,
        use_checkpoints: bool = True,
    ) -> None:
        self.scenario = scenario
        self.golden = golden
        self.watchdog_multiplier = watchdog_multiplier
        self.use_checkpoints = use_checkpoints
        self.program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
        #: bounded rollback attempts of the scenario's recovery policy
        #: (``None`` for detect-and-die and unhardened schemes)
        self.recovery_retries = recovery_retries(scenario.hardening)
        #: injections fast-forwarded from a checkpoint vs simulated from boot
        self.fast_forwards = 0
        self.boot_replays = 0
        #: faulty runs that re-joined the golden run at a golden state,
        #: and ``rec`` runs that ended at a rollback to a clean state
        self.convergences = 0
        self.clean_rollbacks = 0
        #: the convergences decided from the golden run's def-use
        #: summary, before restoring or simulating anything
        self.decided = 0
        #: the convergences at a golden state whose every difference
        #: from it is dead (see :meth:`_verdict`)
        self.dead_states = 0
        self._fates = MemoryFates(golden.defuse) if golden.defuse is not None else None
        #: the golden run's cache line events by cache (each built on first query)
        self._line_events = {name: LineEvents(log) for name, log in golden.cache_events.items()}
        #: the launched system restores reuse, per ``with_caches``
        self._systems: dict[bool, MulticoreSystem] = {}
        #: golden-run states for cache-less systems in ascending order:
        #: the golden checkpoints plus the fault-free prefix captures
        self._golden_states = list(golden.checkpoints)
        counts = golden.checkpoint_instructions()
        #: spacing of the prefix captures (0: none)
        self._capture_step = (
            counts[1] // PREFIX_CAPTURES if use_checkpoints and len(counts) > 1 else 0
        )

    # ------------------------------------------------------------------

    def _build_system(self, with_caches: bool = False) -> MulticoreSystem:
        system = create_system(self.scenario, model_caches=with_caches, engine=self.engine)
        launch_scenario(system, self.scenario, self.program)
        if self.recovery_retries is not None:
            # A hardening detection surfaces as an ``"ft_detected"`` run
            # stop for the rollback loop instead of coasting to the
            # run's fail-stop end.
            system.kernel.recovery_mode = True
        return system

    def _system_at(self, injection_time: int, with_caches: bool = False) -> MulticoreSystem:
        """A system ready to run up to ``injection_time``.

        Restores the latest golden state at or before the injection
        point onto this injector's reused system for the cache model
        (the boot checkpoint, instruction 0, counts as a boot replay);
        with none, a freshly built system boots from zero.  All paths
        reach bit-identical state at the injection point: pausing and
        restoring are schedule-neutral, and restore resets a used system
        completely.  A cache-modelling system restores only from golden
        checkpoints that captured cache state — otherwise the restored
        cache residency (empty) would diverge from a boot replay.
        """
        checkpoint = None
        if self.use_checkpoints:
            states = self.golden.checkpoints if with_caches else self._golden_states
            checkpoint = nearest_checkpoint(states, injection_time)
            if checkpoint is not None and with_caches and not checkpoint.model_caches:
                checkpoint = None
        if checkpoint is None:
            self.boot_replays += 1
            return self._build_system(with_caches=with_caches)
        if checkpoint.instruction_count > 0:
            self.fast_forwards += 1
        else:
            self.boot_replays += 1
        system = self._systems.get(with_caches)
        if system is None:
            system = self._systems[with_caches] = self._build_system(with_caches=with_caches)
        return restore_snapshot(checkpoint, system)

    def _apply_fault(self, system: MulticoreSystem, fault: FaultDescriptor) -> str:
        """Apply ``fault`` to the live system; returns a detail note ("" usually)."""
        if fault.target_kind == TARGET_MEMORY:
            space, segment = self._memory_target(system, fault)
            if segment is None:
                # The target segment (a late-mapped thread stack) does not
                # exist yet at this injection point; the flipped DRAM bit
                # is outside the process image and cannot affect it.
                return "memory target unmapped at injection point; "
            space.flip_bit(fault.address, fault.bit)
            return ""
        if fault.target_kind == TARGET_CACHE:
            return self._apply_cache_fault(system, fault)
        core = system.cores[fault.core_id % len(system.cores)]
        if fault.target_kind == TARGET_GPR:
            core.regs.flip_bit(fault.register_index % core.arch.num_gpr, fault.bit)
        elif fault.target_kind == TARGET_FPR:
            if core.arch.num_fpr == 0:
                raise SimulatorError(f"{core.arch.name} has no FP register file to target")
            core.fregs.flip_bit(fault.register_index % core.arch.num_fpr, fault.bit)
        elif fault.target_kind == TARGET_PC:
            core.pc = (core.pc ^ (1 << fault.bit)) & core.arch.word_mask
        else:
            raise SimulatorError(f"unknown fault target kind {fault.target_kind!r}")
        return ""

    @staticmethod
    def _memory_target(system: MulticoreSystem, fault: FaultDescriptor):
        """The targeted process' address space and the segment hit (or None)."""
        processes = system.kernel.processes
        space = processes[fault.process_index % len(processes)].address_space
        return space, space.find_segment(fault.address)

    def _target_cache(self, system: MulticoreSystem, fault: FaultDescriptor):
        level = fault.cache_level or "l1d"
        core = system.cores[fault.core_id % len(system.cores)]
        if level == "l2":
            cache = system.shared_l2 if system.model_caches else None
        elif level == "l1d":
            cache = core.caches.l1d if core.model_caches else None
        else:
            raise SimulatorError(f"unknown cache level {level!r}")
        if cache is None:
            raise SimulatorError("cache fault requested but the system does not model caches")
        return cache

    def _install_cache_sink(self, system: MulticoreSystem, fault: FaultDescriptor) -> None:
        """Attach the architectural-commit sink for ``fault`` to ``system``.

        Pending line corruption travels inside cache snapshots, but the
        sink is a live closure over one system's cache and address
        space — it must be re-attached whenever the run continues on a
        freshly built system (rollback restores during recovery).
        """
        cache = self._target_cache(system, fault)
        space = system.kernel.processes[
            fault.process_index % len(system.kernel.processes)
        ].address_space

        def sink(line: int, byte_offset: int, bit: int) -> None:
            # The corrupted copy became architecturally visible: commit the
            # flip to the backing memory of the chosen process.  Radiation
            # does not respect page protections, but a line outside the
            # process image (or a read-only text line, whose semantics come
            # from the decoded program) has nothing architectural to corrupt.
            address = cache.line_base(line) + byte_offset
            segment = space.find_segment(address)
            if segment is None or not segment.perms.write:
                return
            space.flip_bit(address, bit)

        cache.fault_sink = sink

    def _apply_cache_fault(self, system: MulticoreSystem, fault: FaultDescriptor) -> str:
        level = fault.cache_level or "l1d"
        cache = self._target_cache(system, fault)
        target = cache.inject_resident_fault(fault.register_index, fault.bit)
        if target is None:
            return f"{level} holds no resident line; fault landed in an invalid entry; "
        self._install_cache_sink(system, fault)
        return ""

    def _compare(self, system: MulticoreSystem) -> tuple[bool, bool, bool]:
        output_matches = system.combined_output() == self.golden.output
        memory_matches = system.memory_snapshot() == self.golden.memory_snapshots
        state_matches = system.architectural_state() == self.golden.final_state
        return output_matches, memory_matches, state_matches

    # ------------------------------------------------------------------
    # convergence: the faulty run re-joins the golden run
    # ------------------------------------------------------------------

    def _snapshots_track(self, system: MulticoreSystem, fault: FaultDescriptor) -> bool:
        """False when the applied fault flipped memory that snapshots omit.

        Snapshots hold writable memory only.  A flip in a read-only
        segment is invisible to a checkpoint match and survives a
        restore, so its run must not converge and its system must not
        be reused.
        """
        if fault.target_kind != TARGET_MEMORY:
            return True
        segment = self._memory_target(system, fault)[1]
        return segment is None or segment.perms.write

    def _verdict(self, diff: StateDiff) -> Optional[Verdict]:
        """How the run ends when every difference in ``diff`` is dead.

        ``diff`` is the difference between the faulty run and the golden
        run at golden instruction count ``diff.instruction_count``.  A
        register is dead when the golden run writes it next or never
        accesses it again (:meth:`DefUseSummary.next_access`), and so is
        a register of a ready or blocked thread's saved context
        (:meth:`DefUseSummary.context_access`; a stale context is always
        dead); a byte of writable memory when its golden fate
        (:meth:`~repro.injection.fates.MemoryFates.fate`) is decided.
        With every difference dead, the rest of the run executes the
        golden run's instructions on the golden run's values, and it
        ends after the golden instruction count with what stays wrong:
        ONA when a register does (the architectural state differs), OMM
        when a data or heap byte does (:data:`COMPARED_SEGMENTS`), and
        Vanished otherwise.  None when a difference is not dead.
        """
        summary = self.golden.defuse
        if summary is None or diff.undecided is not None:
            return None
        time = diff.instruction_count
        memory_matches = state_matches = True
        for core, register in diff.registers:
            access = summary.next_access(core, register, time)
            if access == READ:
                return None
            state_matches = state_matches and access != NEVER
        for tid, register in diff.contexts:
            access = summary.context_access(tid, register, time)
            if access == READ:
                return None
            state_matches = state_matches and access != NEVER
        for process, name, first, end in diff.memory:
            for address in range(first, end):
                fate = self._fates.fate(process, address, time)
                if fate is None:
                    return None
                byte_stays, register_stays = fate
                state_matches = state_matches and not register_stays
                memory_matches = memory_matches and not (byte_stays and name in COMPARED_SEGMENTS)
        return memory_matches, state_matches

    def _converged(
        self, state: Optional[SystemSnapshot | StateDiff], system: Optional[MulticoreSystem]
    ) -> Optional[Verdict]:
        """The verdict of a faulty run that is the golden run from here
        on, or None.

        Every early exit asks this one method.  With ``system`` paused
        at golden ``state``'s instruction count, the run has converged
        when its state equals ``state``, or when every difference is
        dead (:meth:`_verdict`; ``dead_states`` counts those): the
        simulator is deterministic, so the rest of it is the golden run.
        ``system`` None stands for a rollback to ``state`` itself, a
        golden checkpoint at or before the injection point (boot when
        ``state`` is None): the re-execution starts from fault-free
        state and is the golden run by construction.  A :class:`StateDiff`
        as ``state`` (``system`` None) is a register, memory or cache
        fault at its injection point, decided before any post-fault run
        (``decided``).  While a cache of ``system`` holds a pending
        flip, which the state match cannot see, nothing converges.
        """
        if system is None:
            if isinstance(state, StateDiff):
                verdict = self._verdict(state)
                if verdict is not None:
                    self.convergences += 1
                    self.decided += 1
                return verdict
            self.clean_rollbacks += 1
            return GOLDEN
        if system.cache_faults_pending():
            return None
        summary = self.golden.defuse
        count = state.instruction_count

        def dead(core: int, register: int) -> bool:
            return summary.next_access(core, register, count) != READ

        diff = state_diff(state, system, None if summary is None else dead, MAX_DEAD_BYTES)
        if diff.empty:
            self.convergences += 1
            return GOLDEN
        verdict = self._verdict(diff)
        if verdict is not None:
            self.convergences += 1
            self.dead_states += 1
        return verdict

    def _run_on(
        self,
        system: MulticoreSystem,
        budget: int,
        converge: bool,
        captures: Optional[list] = None,
    ) -> tuple[str, Optional[Verdict]]:
        """Run the faulty ``system`` on; returns its stop reason, or
        ``CONVERGED`` with the verdict of :meth:`_converged`.

        With ``converge`` the run pauses at each golden state past its
        current instruction and stops there once :meth:`_converged`
        holds.  With a ``captures`` list it also pauses at the golden
        checkpoint schedule past its current instruction and, unless it
        converged there, appends a snapshot of the live run (rollback
        candidates, see :meth:`_run_with_recovery`).  Pausing is
        schedule-neutral, so a run that never converges ends exactly as
        an uninterrupted one; with neither it is one run to the end.
        """
        here = system.total_instructions
        states = {}
        if converge:
            states = {
                state.instruction_count: state
                for state in self._golden_states
                if state.instruction_count > here
            }
        schedule = set()
        if captures is not None:
            schedule = {count for count in self.golden.checkpoint_instructions() if count > here}
        for point in sorted(schedule.union(states)):
            reason = system.run(max_instructions=budget, stop_at_instruction=point)
            if reason != "breakpoint":
                return reason, None
            if point in states:
                verdict = self._converged(states[point], system)
                if verdict:
                    return CONVERGED, verdict
            if point in schedule:
                captures.append(capture_snapshot(system))
        return system.run(max_instructions=budget), None

    # ------------------------------------------------------------------
    # checkpoint-rollback recovery (``rec`` schemes)
    # ------------------------------------------------------------------

    def _run_with_recovery(
        self,
        system: MulticoreSystem,
        fault: FaultDescriptor,
        budget: int,
        tracked: bool,
        converge: bool,
    ) -> tuple[MulticoreSystem, dict, Optional[Verdict], bool, bool]:
        """Forward-run ``system`` under the detect→rollback→re-execute policy.

        ``system`` sits at the injection point with the fault freshly
        applied.  The run proceeds under the *same absolute* watchdog
        budget as a detect-and-die run — rollbacks rewind the
        instruction counter, so re-executed spans are not double-charged
        and the Hang semantics are unchanged; bounded retries are what
        keep a persistently re-detecting run finite.

        Rollback candidates are (a) the golden run's checkpoints at or
        before the injection point — state from before the upset is
        fault-free — and (b) snapshots the policy captures of the
        *faulty* run itself at the golden checkpoint schedule beyond the
        injection point, latent corruption included (a real system
        cannot checkpoint cleaner state than it has).  A detection rolls
        back to the latest candidate at or before the detection point;
        a re-detection walks strictly below the previous restore point
        to escape corruption that predates the nearest snapshot, with
        boot (instruction 0) as the final implicit candidate.  When the
        retry budget is exhausted — or nothing earlier remains — the
        detection escalates to the fail-stop ``Detected`` terminal
        state.

        With ``converge``, every pass stops as soon as its state equals
        a golden state (see :meth:`_run_on`): the rest is
        the golden run, which no hardening check trips, so no further
        detection can follow.  A rollback to a clean candidate — (a) or
        boot — ends the run the same way without simulating, once its
        rollback is counted.  A rollback to a live snapshot (b) may
        carry latent corruption, so it re-executes; it restores onto
        the current system, and only boot and untracked read-only
        memory flips (which a restore would not undo) build a fresh one.

        Returns ``(final_system, recovery_meta, verdict,
        watchdog_expired, deadlocked)``, the verdict of
        :meth:`_converged` when the run converged and None otherwise; a
        converged run's final system is left wherever the run stopped.
        """
        with_caches = fault.target_kind == TARGET_CACHE
        candidates: list = []
        if self.use_checkpoints:
            for checkpoint in self.golden.checkpoints:
                if checkpoint.instruction_count > fault.injection_time:
                    break
                if checkpoint.instruction_count == 0:
                    continue  # boot is the implicit final candidate
                if system.model_caches and not checkpoint.model_caches:
                    continue
                candidates.append(checkpoint)
        rollbacks = 0
        reexecuted = 0
        escalated = False
        watchdog_expired = False
        deadlocked = False
        reason = None
        verdict: Optional[Verdict] = None
        floor: Optional[int] = None
        try:
            reason, verdict = self._run_on(
                system, budget, converge, captures=candidates if self.use_checkpoints else None
            )
            while reason == "ft_detected":
                detected_at = system.kernel.detection_event.get(
                    "instruction", system.total_instructions
                )
                if rollbacks >= self.recovery_retries:
                    escalated = True
                    break
                limit = detected_at if floor is None else floor - 1
                snapshot = None
                for candidate in candidates:  # ascending instruction order
                    if candidate.instruction_count <= limit:
                        snapshot = candidate
                    else:
                        break
                restore_at = snapshot.instruction_count if snapshot is not None else 0
                if floor is not None and restore_at >= floor:
                    escalated = True  # nothing strictly earlier remains
                    break
                rollbacks += 1
                reexecuted += detected_at - restore_at
                floor = restore_at
                if converge and restore_at <= fault.injection_time:
                    verdict = self._converged(snapshot, None)
                    if verdict:
                        reason = CONVERGED
                        break
                if snapshot is None or not tracked:
                    system = self._build_system(with_caches=with_caches)
                if snapshot is not None:
                    restore_snapshot(snapshot, system)
                if with_caches:
                    # The snapshot carries any still-pending corrupted
                    # line; the commit sink is a live closure, which
                    # restore drops, and must be re-attached.
                    self._install_cache_sink(system, fault)
                # No re-capture on re-execution: the restore floor only
                # ever moves down and the simulator is deterministic, so
                # the first pass's snapshots remain the complete
                # candidate set.
                reason, verdict = self._run_on(system, budget, converge)
        except WatchdogTimeout:
            watchdog_expired = True
        except DeadlockError:
            deadlocked = True
        recovery = {
            "rollbacks": rollbacks,
            "reexecuted_instructions": reexecuted,
            "escalated": escalated,
        }
        return (
            system,
            recovery,
            verdict if reason == CONVERGED else None,
            watchdog_expired,
            deadlocked,
        )

    # ------------------------------------------------------------------

    def _run_prefix(self, system: MulticoreSystem, injection_time: int, budget: int) -> str:
        """Run the fault-free ``system`` up to ``injection_time``.

        A cache-less system also captures its state at every multiple of
        the capture step it passes that no golden state is held for yet.
        The prefix is fault-free, so each capture is a golden-run state:
        later injections restore from it and converge at it just as at
        a golden checkpoint, which spaces those points ``PREFIX_CAPTURES``
        times closer without the golden run's captures of cache state.
        """
        step = self._capture_step
        if step and not system.model_caches:
            held = {state.instruction_count for state in self._golden_states}
            first = system.total_instructions // step * step + step
            for point in range(first, injection_time + 1, step):
                if point in held:
                    continue
                reason = system.run(max_instructions=budget, stop_at_instruction=point)
                if reason != "breakpoint":
                    return reason
                insort(
                    self._golden_states,
                    capture_snapshot(system),
                    key=attrgetter("instruction_count"),
                )
        return system.run(max_instructions=budget, stop_at_instruction=injection_time)

    def _decide(self, fault: FaultDescriptor) -> Optional[Verdict]:
        """The verdict on a GPR or memory ``fault`` that needs no run, or None.

        At its injection point the faulty state differs from the golden
        run in the flipped register or byte alone, so :meth:`_converged`
        decides it from that one-item :class:`StateDiff`: a register
        is Vanished when the golden run writes it next and ONA when it
        never accesses it again; a byte as its golden fate says
        (:meth:`_verdict`).  None when the register or byte is not dead,
        for a memory target not provably mapped and writable at the
        injection point (:meth:`_byte_diff`), for other targets, for
        a fault past the end of the run (which is never injected) and
        for checkpoint-less injectors, which stay plain boot replays.
        """
        summary = self.golden.defuse
        if (
            summary is None
            or not self.use_checkpoints
            or not 0 <= fault.injection_time <= self.golden.total_instructions
        ):
            return None
        if fault.target_kind == TARGET_GPR:
            register = (fault.core_id % summary.num_cores, fault.register_index % summary.num_gpr)
            diff = StateDiff(fault.injection_time, [register])
        elif fault.target_kind == TARGET_MEMORY:
            diff = self._byte_diff(fault)
            if diff is None:
                return None
        else:
            return None
        return self._converged(diff, None) or None

    def _byte_diff(self, fault: FaultDescriptor) -> Optional[StateDiff]:
        """The one-byte :class:`StateDiff` a memory ``fault`` makes at its
        injection point, or None when its segment may be unmapped or
        read-only there.

        Processes are all launched before the run starts, and segments
        are mapped as threads start and never unmapped, so a byte of a
        writable segment that the nearest golden state at or before the
        injection point holds is mapped there too.  Anything else (a
        thread stack mapped later, or a read-only segment, whose flip
        snapshots do not track) runs.
        """
        state = nearest_checkpoint(self._golden_states, fault.injection_time)
        if state is None:
            return None
        processes = state.kernel["processes"]
        process = fault.process_index % len(processes)
        address = fault.address
        for name, base, size, _data in processes[process]["memory"]["segments"]:
            if base <= address < base + size:
                return StateDiff(
                    fault.injection_time, memory=[(process, name, address, address + 1)]
                )
        return None

    def _decide_cache(self, system: MulticoreSystem, fault: FaultDescriptor) -> Optional[Verdict]:
        """The verdict on a cache ``fault`` just applied to ``system``, or None.

        A pending flip changes no residency, dirty bit or LRU order, so
        the faulty run is the golden run up to the flipped line's next
        event in the golden run's log of the cache
        (:class:`~repro.memory.cache.LineEvents`).  With no event left,
        a clean eviction or a flush next, the flip never becomes
        architectural and :meth:`_converged` decides the run from the
        empty :class:`StateDiff` at the injection point; so it does when
        the cache held no line to flip.  A hit (the golden run's may be
        a same-line fast-path hit, which the log holds too) or a dirty
        eviction commits the flip, and the run goes on.
        """
        if not self.use_checkpoints:
            return None
        level = fault.cache_level or "l1d"
        name = "l2" if level == "l2" else f"core{fault.core_id % len(system.cores)}_l1d"
        events = self._line_events.get(name)
        if events is None:
            return None
        cache = self._target_cache(system, fault)
        for line in cache.pending_lines():
            if events.next_event(line, cache.stats.accesses) in (HIT, DIRTY_EVICTION):
                return None
        return self._converged(StateDiff(fault.injection_time), None) or None

    def run_one(self, fault: FaultDescriptor) -> InjectionResult:
        """Execute a single fault injection and classify its outcome."""
        start = time.perf_counter()
        watchdog_expired = False
        deadlocked = False
        detail_prefix = ""
        recovery: Optional[dict] = None
        verdict = self._decide(fault)
        injected = verdict is not None
        if not injected:
            with_caches = fault.target_kind == TARGET_CACHE
            system = self._system_at(fault.injection_time, with_caches=with_caches)
            budget = self.golden.watchdog_budget(self.watchdog_multiplier)
            try:
                reason = self._run_prefix(system, fault.injection_time, budget)
                if reason == "breakpoint":
                    detail_prefix = self._apply_fault(system, fault)
                    injected = True
                    if with_caches:
                        verdict = self._decide_cache(system, fault)
                    if verdict is None:
                        tracked = self._snapshots_track(system, fault)
                        if not tracked:
                            self._systems = {
                                key: kept for key, kept in self._systems.items() if kept is not system
                            }
                        # Flips in memory the snapshots leave out
                        # (``tracked`` false) never converge, and
                        # checkpoint-less injectors stay plain boot
                        # replays that check the rest.  A cache run
                        # converges only once no line holds a pending
                        # flip (see :meth:`_converged`).
                        converge = self.use_checkpoints and tracked
                        if self.recovery_retries is None:
                            verdict = self._run_on(system, budget, converge)[1]
                        else:
                            system, recovery, verdict, watchdog_expired, deadlocked = (
                                self._run_with_recovery(system, fault, budget, tracked, converge)
                            )
            except WatchdogTimeout:
                watchdog_expired = True
            except DeadlockError:
                deadlocked = True
        elapsed = time.perf_counter() - start
        if not injected and (watchdog_expired or deadlocked):
            # The fault-free prefix never reached the injection point: the
            # golden run completed within this budget, so this is a broken
            # configuration (pathologically small watchdog budget), not a
            # fault outcome — surface it instead of misfiling the run.
            what = "watchdog expired" if watchdog_expired else "deadlock"
            raise SimulatorError(
                f"{what} at {system.total_instructions} instructions before the "
                f"injection point of fault {fault.fault_id} "
                f"(t={fault.injection_time}, budget={budget})"
            )
        if not injected:
            # The workload finished before the injection point was reached:
            # no bit was flipped, so the run says nothing about fault
            # behaviour.  Report it explicitly instead of letting it pose
            # as a (masking-rate-inflating) Vanished outcome.
            return InjectionResult(
                fault=fault,
                outcome=NOT_INJECTED,
                detail="completed before injection point; fault not applied",
                executed_instructions=system.total_instructions,
                wall_time_seconds=elapsed,
                scenario_id=self.scenario.scenario_id,
            )
        if verdict and recovery is None and self.recovery_retries is not None:
            # Decided before any run: the golden run never detects.
            recovery = {"rollbacks": 0, "reexecuted_instructions": 0, "escalated": False}
        if verdict:
            # The rest of the run is the golden run: it ends exactly as
            # the golden run did, after the golden instruction count —
            # with whatever dead difference nothing accessed still wrong.
            output_matches = all_zero = True
            memory_matches, state_matches = verdict
            killed = detected = False
            executed = self.golden.total_instructions
        else:
            output_matches, memory_matches, state_matches = self._compare(system)
            killed = system.any_process_killed()
            all_zero = system.processes_ok()
            # The hardening trap kills the process with the distinct
            # ``ft_detected`` kind; it must classify as Detected, not UT.
            detected = any(p.fault_kind == "ft_detected" for p in system.kernel.processes)
            executed = system.total_instructions
        fault_detail = ""
        if killed:
            kinds = {p.fault_kind for p in system.kernel.processes if p.fault_kind}
            fault_detail = "process killed: " + ", ".join(sorted(kinds))
        classification: Classification = classify_run(
            any_process_killed=killed,
            all_exited_zero=all_zero,
            watchdog_expired=watchdog_expired,
            deadlocked=deadlocked,
            output_matches=output_matches,
            memory_matches=memory_matches,
            state_matches=state_matches,
            fault_detail=fault_detail,
            fault_detected=detected,
            recovery_rollbacks=recovery["rollbacks"] if recovery else 0,
        )
        return InjectionResult(
            fault=fault,
            outcome=classification.outcome.value,
            detail=detail_prefix + classification.detail,
            executed_instructions=executed,
            wall_time_seconds=time.perf_counter() - start,
            scenario_id=self.scenario.scenario_id,
            recovery=recovery,
        )

    def run_many(self, faults: list[FaultDescriptor]) -> list[InjectionResult]:
        return [self.run_one(fault) for fault in faults]


class ReferenceInjector(FaultInjector):
    """The boot-replay oracle: every fault on a fresh system booted from
    zero on the reference interpreter.

    With no golden state to restore or re-join, nothing is decided early
    and every run ends where a plain simulation ends; differential tests
    hold :class:`FaultInjector`'s records to this injector's.
    """

    engine = False

    def __init__(self, scenario: Scenario, golden: GoldenRunResult, watchdog_multiplier: int = 4) -> None:
        super().__init__(scenario, golden, watchdog_multiplier, use_checkpoints=False)

"""System-wide checkpoints of a :class:`MulticoreSystem`.

A :class:`SystemSnapshot` captures everything that determines the rest
of a simulation: per-core architectural state and counters, the cache
state (residency, write-back dirty bits and any pending injected line
faults — the population cache-fault injections target after a restore),
every process' writable memory, the full kernel state (threads,
scheduler queue, synchronisation objects, message queues) and the
SoC-level instruction counter, including the mid-iteration resume
point of a paused run.  Restoring a snapshot onto a freshly launched
system therefore continues the simulation with the exact instruction
interleaving of an uninterrupted run — the determinism guarantee the
fault injector relies on when it fast-forwards to an injection point
instead of re-simulating from boot.  The same guarantee lets the
injector end a faulty run early: once :func:`snapshot_matches` finds
its live state equal to a golden-run snapshot, the rest of the run
is the golden run's.

Snapshots are plain picklable data (ints, strings, bytes, tuples,
dicts): object identities such as "this core runs that thread" are
encoded as (pid, tid) pairs, so snapshots can be shipped to worker
processes of a campaign pool.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import SimulatorError
from repro.soc.multicore import MulticoreSystem


@dataclass
class SystemSnapshot:
    """Full simulator state at one instruction boundary."""

    instruction_count: int
    run_reason: Optional[str]
    resume: Optional[tuple]
    cores: list[dict] = field(default_factory=list)
    kernel: dict = field(default_factory=dict)
    shared_l2: Optional[dict] = None
    model_caches: bool = False

    def approx_bytes(self) -> int:
        """Rough memory footprint: the captured segment contents dominate."""
        total = 0
        for process in self.kernel.get("processes", ()):
            for _name, _base, _size, data in process["memory"]["segments"]:
                total += len(data)
            total += len(process["output"])
        return total


def capture_snapshot(system: MulticoreSystem) -> SystemSnapshot:
    """Capture the complete state of ``system``.

    The system may be mid-run (paused at a breakpoint) or untouched
    since launch; it is not modified.
    """
    cores = []
    for core in system.cores:
        entry = core.capture_state()
        thread = core.thread
        entry["thread"] = None if thread is None else (thread.process.pid, thread.tid)
        if core.model_caches:
            entry["caches"] = {
                "l1i": core.caches.l1i.dump_state(),
                "l1d": core.caches.l1d.dump_state(),
            }
        else:
            entry["caches"] = None
        cores.append(entry)
    return SystemSnapshot(
        instruction_count=system.total_instructions,
        run_reason=system.run_reason,
        resume=system._resume,
        cores=cores,
        kernel=system.kernel.capture_state(),
        shared_l2=system.shared_l2.dump_state() if system.model_caches else None,
        model_caches=system.model_caches,
    )


def restore_snapshot(snapshot: SystemSnapshot, system: MulticoreSystem) -> MulticoreSystem:
    """Restore ``snapshot`` onto ``system`` (in place) and return it.

    ``system`` must be a system on which the same workload was launched
    (same scenario, same core count), either freshly built or already
    run: process and thread creation are deterministic, so the
    snapshot's (pid, tid) references resolve against its kernel state.
    Restore overwrites everything a used system carries over from its
    earlier run — threads and stacks spawned after the snapshot are
    dropped, a pending hardening detection is cleared and every cache
    loses its fault sink — so the continuation matches a fresh restore.

    Cache state is only restored when ``system`` models caches; a
    snapshot captured on a cache-modelling golden run restores cleanly
    onto a cache-less injection system because cache residency affects
    cycle counts only, never execution semantics.
    """
    if len(snapshot.cores) != len(system.cores):
        raise SimulatorError(
            f"checkpoint captured {len(snapshot.cores)} cores, system has {len(system.cores)}"
        )
    system.kernel.restore_state(snapshot.kernel)
    for core, entry in zip(system.cores, snapshot.cores):
        core.restore_state(entry)
        reference = entry["thread"]
        if reference is None:
            core.thread = None
            core.mem = None
            core.text = []
        else:
            thread = system.kernel.thread_by_ids(*reference)
            core.thread = thread
            core.text = thread.process.program.instructions
            core.text_base = system.kernel.loader.text_base
            core.mem = thread.process.address_space
        # The restored text is usually the same shared program object
        # (decode-cache hit), but dropping the per-core decoded
        # reference keeps restore correct even if the caller swaps in a
        # differently mutated text image.
        core.invalidate_decode()
        if core.model_caches and entry["caches"] is not None:
            core.caches.l1i.load_state(entry["caches"]["l1i"])
            core.caches.l1d.load_state(entry["caches"]["l1d"])
    if system.model_caches and snapshot.shared_l2 is not None:
        system.shared_l2.load_state(snapshot.shared_l2)
    system.total_instructions = snapshot.instruction_count
    system.run_reason = snapshot.run_reason
    system._resume = snapshot.resume
    return system


def snapshot_matches(snapshot: SystemSnapshot, system: MulticoreSystem) -> bool:
    """True when ``system`` is in exactly the state ``snapshot`` captured.

    Compares the instruction count and resume point, every core's
    registers, PC, flags, halt state and thread, and the whole kernel
    capture (threads, scheduler, writable memory including stacks,
    output, semaphores, mutexes and message queues).  The simulator is
    deterministic, so on a match the rest of ``system``'s run equals the
    run that took ``snapshot``.

    ``CoreStats`` counters are not compared: a cache-less system counts
    other cycles than a cache-modelling one (golden runs model caches),
    and the simulator only ever reads those counters as deltas.  Cache
    contents are not compared either; they affect cycle counts only,
    except for pending injected line faults, so callers must not use
    this test while a corrupted line may still be pending.
    """
    if (
        system.total_instructions != snapshot.instruction_count
        or system._resume != snapshot.resume
        or len(system.cores) != len(snapshot.cores)
    ):
        return False
    for core, entry in zip(system.cores, snapshot.cores):
        thread = core.thread
        if (
            core.pc != entry["pc"]
            or core.regs.snapshot() != entry["gprs"]
            or core.fregs.snapshot() != entry["fprs"]
            or (core.flag_n, core.flag_z, core.flag_c, core.flag_v) != entry["flags"]
            or core.halted != entry["halted"]
            or (None if thread is None else (thread.process.pid, thread.tid)) != entry["thread"]
        ):
            return False
    return system.kernel.capture_state() == snapshot.kernel


def nearest_checkpoint(
    checkpoints: Sequence[SystemSnapshot], instruction: int
) -> Optional[SystemSnapshot]:
    """Latest checkpoint at or before ``instruction`` (None when absent).

    ``checkpoints`` must be sorted by ``instruction_count``, which is how
    the golden runner records them.
    """
    if not checkpoints:
        return None
    counts = [checkpoint.instruction_count for checkpoint in checkpoints]
    index = bisect_right(counts, instruction) - 1
    if index < 0:
        return None
    return checkpoints[index]

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
injector end a faulty run early: once ``state_diff(snapshot,
system).empty`` finds its live state equal to a golden-run snapshot,
the rest of the run is the golden run's.  :func:`state_diff` also says
what differs when the states are not equal, which lets the injector
end runs whose every difference is dead.

Restore sets each core's ``text`` and ``text_base``; the core re-decodes
when either differs from its decoded view.  Decoded text is immutable,
so that is the whole of what a restore owes the block engine.

Snapshots are plain picklable data (ints, strings, bytes, tuples,
dicts): object identities such as "this core runs that thread" are
encoded as (pid, tid) pairs, so snapshots can be shipped to worker
processes of a campaign pool.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.errors import SimulatorError
from repro.kernel.threads import ThreadState
from repro.memory.main_memory import AddressSpace
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
        if core.model_caches and entry["caches"] is not None:
            core.caches.l1i.load_state(entry["caches"]["l1i"])
            core.caches.l1d.load_state(entry["caches"]["l1d"])
    if system.model_caches and snapshot.shared_l2 is not None:
        system.shared_l2.load_state(snapshot.shared_l2)
    system.total_instructions = snapshot.instruction_count
    system.run_reason = snapshot.run_reason
    system._resume = snapshot.resume
    return system


@dataclass
class StateDiff:
    """What differs between a live system and a golden snapshot.

    Registers, the integer registers of saved thread contexts and
    writable memory are listed difference by difference, since a golden
    run can tell what each of them meets next (see
    :meth:`repro.injection.injector.FaultInjector._verdict`).  A saved
    context is read only by its thread's next attach, so a ready or
    blocked thread's context goes to ``contexts``; a running thread's
    context is overwritten by its next detach before anything reads it,
    and an exited thread's is never read, so such a context is
    ``stale`` and dead whatever differs in it.  Anything else that
    differs is named in ``undecided``, and the diff stops there: the
    lists are then incomplete.
    """

    #: golden instruction count both states sit at
    instruction_count: int
    #: (core index, register) of every differing integer register
    registers: list[tuple[int, int]] = field(default_factory=list)
    #: (process index, segment name, first address, end address) of
    #: every run of differing bytes in writable memory
    memory: list[tuple[int, str, int, int]] = field(default_factory=list)
    #: (thread id, register) of every differing integer register in the
    #: saved context of a ready or blocked thread
    contexts: list[tuple[int, int]] = field(default_factory=list)
    #: thread id of every running or exited thread whose context differs
    stale: list[int] = field(default_factory=list)
    #: the first difference outside the lists, None when there is none
    undecided: Optional[str] = None

    @property
    def empty(self) -> bool:
        return (
            not self.registers
            and not self.memory
            and not self.contexts
            and not self.stale
            and self.undecided is None
        )


#: Span below which :func:`_differing_runs` compares byte by byte.
_LEAF_BYTES = 64


def _differing_runs(
    live: bytearray, golden: bytes, base: int, limit: int
) -> Optional[list[tuple[int, int]]]:
    """``[first, end)`` address runs where ``live`` differs from ``golden``,
    in address order; None past ``limit`` differing bytes.

    Halves the span while its halves differ, comparing each half in
    place (``bytes.startswith`` on a memoryview copies nothing), so a
    few differing bytes cost a few dozen comparisons whatever the size.
    """
    runs: list[tuple[int, int]] = []
    found = 0
    with memoryview(live) as view:
        spans = [(0, len(golden))]
        while spans:
            first, end = spans.pop()
            if golden.startswith(view[first:end], first):
                continue
            if end - first > _LEAF_BYTES:
                middle = (first + end) // 2
                spans += ((middle, end), (first, middle))
                continue
            for offset in range(first, end):
                if live[offset] != golden[offset]:
                    found += 1
                    if found > limit:
                        return None
                    address = base + offset
                    if runs and runs[-1][1] == address:
                        runs[-1] = (runs[-1][0], address + 1)
                    else:
                        runs.append((address, address + 1))
    return runs


def memory_diff(
    space: AddressSpace, captured: dict, limit: int
) -> Optional[list[tuple[str, int, int]]]:
    """(segment name, first address, end address) of every run of bytes in
    which ``space`` differs from its ``capture_contents()`` ``captured``.

    None when something other than segment contents differs (the set or
    geometry of the writable segments, or the access counters) and when
    more than ``limit`` bytes differ.  Segment data is compared in
    place against the captured bytes, and bytes are located only inside
    segments that differ.
    """
    if (space.read_count, space.write_count, space.bytes_read, space.bytes_written) != captured[
        "counters"
    ]:
        return None
    writable = [segment for segment in space.segments if segment.perms.write]
    if len(writable) != len(captured["segments"]):
        return None
    runs = []
    for segment, (name, base, size, data) in zip(writable, captured["segments"]):
        if segment.name != name or segment.base != base or segment.size != size:
            return None
        if segment.data != data:
            located = _differing_runs(segment.data, data, base, limit)
            if located is None:
                return None
            limit -= sum(end - first for first, end in located)
            runs.extend((name, first, end) for first, end in located)
    return runs


#: Thread states whose saved context is never read again as it is.
_STALE_CONTEXTS = (ThreadState.RUNNING.value, ThreadState.EXITED.value)


def _context_diff(diff: StateDiff, live: list[dict], golden: list[dict]) -> Optional[str]:
    """Add the differing saved GPRs of ``live``'s threads to ``diff``;
    the first other thread difference, None when there is none."""
    if len(live) != len(golden):
        return "threads"
    for thread, captured in zip(live, golden):
        if thread == captured:
            continue
        tid = thread["tid"]
        if any(value != captured[key] for key, value in thread.items() if key != "context"):
            return f"thread {tid}"
        if thread["state"] in _STALE_CONTEXTS:
            diff.stale.append(tid)
            continue
        context, golden_context = thread["context"], captured["context"]
        if context is None or golden_context is None or context[1:] != golden_context[1:]:
            return f"thread {tid} context"
        diff.contexts.extend(
            (tid, register)
            for register, (value, golden_value) in enumerate(zip(context[0], golden_context[0]))
            if value != golden_value
        )
    return None


def state_diff(
    snapshot: SystemSnapshot,
    system: MulticoreSystem,
    decidable: Optional[Callable[[int, int], bool]] = None,
    max_bytes: int = 0,
) -> StateDiff:
    """The differences between ``system`` and the state ``snapshot`` captured.

    Compares, cheapest first: the instruction count and resume point;
    every core's integer registers, PC, FPRs, flags, halt state and
    thread; the kernel capture without memory (threads with their saved
    contexts, scheduler, output, synchronisation objects, message
    queues); and last every process' writable memory
    (:func:`memory_diff`).  A register difference that
    ``decidable(core, register)`` rejects (every one, without
    ``decidable``) and more than ``max_bytes`` differing bytes end the
    diff like any other undecided difference, so the defaults stop at
    the first difference of any kind.  With ``decidable``,
    saved contexts are listed too: the integer registers of a ready or
    blocked thread's context (its FPRs, PC and flags stay undecided) and
    every stale context.

    An empty diff means ``system`` is in exactly the state ``snapshot``
    captured; the simulator is deterministic, so the rest of
    ``system``'s run then equals the run that took ``snapshot``.
    ``CoreStats`` counters are not compared: a cache-less system counts
    other cycles than a cache-modelling one (golden runs model caches),
    and the simulator only ever reads those counters as deltas.  Cache
    contents are not compared either; they affect cycle counts only,
    except for pending injected line faults.  A flip still pending in
    a cache is no difference here, so callers must first check that
    none is (:meth:`MulticoreSystem.cache_faults_pending`), as
    ``FaultInjector._converged`` does.
    """
    diff = StateDiff(snapshot.instruction_count)
    if (
        system.total_instructions != snapshot.instruction_count
        or system._resume != snapshot.resume
        or len(system.cores) != len(snapshot.cores)
    ):
        diff.undecided = "instruction count or resume point"
        return diff
    for index, (core, entry) in enumerate(zip(system.cores, snapshot.cores)):
        values = core.regs.snapshot()
        if values != entry["gprs"]:
            for register, (live, golden) in enumerate(zip(values, entry["gprs"])):
                if live != golden:
                    if decidable is None or not decidable(index, register):
                        diff.undecided = f"core {index} register {register}"
                        return diff
                    diff.registers.append((index, register))
        thread = core.thread
        if (
            core.pc != entry["pc"]
            or core.fregs.snapshot() != entry["fprs"]
            or (core.flag_n, core.flag_z, core.flag_c, core.flag_v) != entry["flags"]
            or core.halted != entry["halted"]
            or (None if thread is None else (thread.process.pid, thread.tid)) != entry["thread"]
        ):
            diff.undecided = f"core {index} PC, FPRs, flags, halt or thread"
            return diff
    kernel = system.kernel.capture_state(memory=False)
    golden = snapshot.kernel
    for key, value in kernel.items():
        if key != "processes" and value != golden[key]:
            diff.undecided = f"kernel {key}"
            return diff
    if len(kernel["processes"]) != len(golden["processes"]):
        diff.undecided = "kernel processes"
        return diff
    for index, (live, captured) in enumerate(zip(kernel["processes"], golden["processes"])):
        for key, value in live.items():
            if value != captured[key]:
                undecided: Optional[str] = key
                if key == "threads" and decidable is not None:
                    undecided = _context_diff(diff, value, captured[key])
                    if undecided is None:
                        continue
                diff.undecided = f"process {index} {undecided}"
                return diff
    for index, (process, captured) in enumerate(zip(system.kernel.processes, golden["processes"])):
        runs = memory_diff(process.address_space, captured["memory"], max_bytes)
        if runs is None:
            diff.undecided = f"process {index} segment map, access counters or too many bytes"
            return diff
        max_bytes -= sum(end - first for _name, first, end in runs)
        diff.memory.extend((index, *run) for run in runs)
    return diff


def nearest_checkpoint(
    checkpoints: Sequence[SystemSnapshot], instruction: int
) -> Optional[SystemSnapshot]:
    """Latest checkpoint at or before ``instruction`` (None when absent).

    ``checkpoints`` must be sorted by ``instruction_count``, which is how
    the golden runner records them.
    """
    index = bisect_right(checkpoints, instruction, key=attrgetter("instruction_count"))
    return checkpoints[index - 1] if index else None

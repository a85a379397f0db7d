"""The golden run's def-use summary against what the registers really see.

The summary (:mod:`repro.injection.defuse`) predicts, from the engine's
block log and static masks, each GPR's next access from any instruction
count.  The oracle here is independent of both: it runs the scenario on
the reference interpreter with recording register files, placing every
access at its global position with a ``Core.trace_hook`` counter, so
kernel accesses (syscall arguments and results, context loads and
saves) are observed, not modelled.

The per-syscall register roles the summary uses are checked the same
way, by running every system call through ``Kernel.handle_syscall``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter

import pytest

from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.defuse import NEVER, READ, WRITE, build_summary, instruction_roles
from repro.isa.arch import ARMV7, ARMV8
from repro.isa.instructions import Instr, Op
from repro.isa.registers import RegisterFile
from repro.kernel.syscalls import ANY_RANK, SYSCALL_ROLES, Syscall
from repro.kernel.threads import ThreadState
from repro.npb.suite import Scenario, build_program, create_system, launch_scenario
from repro.soc.multicore import build_system

LANES = [
    Scenario(app, mode, cores, isa)
    for app, isa in (("IS", "armv7"), ("IS", "armv8"), ("LU", "armv8"))
    for mode, cores in (("serial", 1), ("omp", 2))
] + [
    Scenario("IS", "mpi", 2, "armv7"),
    Scenario("IS", "mpi", 2, "armv8"),
    Scenario("LU", "mpi", 2, "armv8"),
    Scenario("IS", "omp", 4, "armv8"),
]

#: Seeded instruction counts checked per lane, besides the boundaries.
SEEDED_TIMES = 200


#: Kind of a context save in the trace: the value goes two ways.
SAVE = "save"


class Trace:
    """Every register access of a run, placed at its global position.

    The trace hook counts instructions as they start, so an access
    during an instruction (its SVC handler included) sits at the
    count before it; the scheduler runs between instructions, so its
    context loads and saves sit at the count after the last one.

    A context save and load note the thread the core holds.  A save
    hands the value on two ways: the core keeps a copy until its next
    access there, and the thread's context keeps one until the thread's
    next load, on any core, after which it meets what that core does
    next.  The value is read if either copy is, stays if neither is read
    and either stays, and is overwritten if both are (a copy never
    loaded again is dropped: contexts are not part of the final state).
    """

    def __init__(self) -> None:
        self.count = 0
        self.sequence = 0
        self.scheduling = False
        self.enabled = False
        #: (core, register) -> [(position, kind, sequence, tid)] in access
        #: order; ``tid`` is the thread of a context save or load
        self.accesses: dict[tuple[int, int], list[tuple]] = {}
        #: positions of context loads and saves
        self.switches: set[int] = set()
        #: tid -> [(sequence, position, core)] of the thread's context
        #: loads, in order
        self.loads: dict[int, list[tuple[int, int, int]]] = {}
        #: tid -> [(position, is a save)] of the thread's context saves
        #: and loads, in order
        self.switched: dict[int, list[tuple[int, bool]]] = {}

    def note(self, core_id: int, registers, kind: str, thread=None) -> None:
        if not self.enabled:
            return
        position = self.count if self.scheduling else self.count - 1
        self.sequence += 1
        tid = None
        if thread is not None:
            tid = thread.tid
            self.switches.add(position)
            self.switched.setdefault(tid, []).append((position, kind == SAVE))
            if kind != SAVE:
                self.loads.setdefault(tid, []).append((self.sequence, position, core_id))
        for register in registers:
            self.accesses.setdefault((core_id, register), []).append(
                (position, kind, self.sequence, tid)
            )

    def _after_load(self, load: tuple[int, int, int], register: int) -> tuple[int, int, int]:
        """The copy a context load puts on its core: (core, register, the
        index of the core's next access of the register)."""
        sequence, _position, core_id = load
        accesses = self.accesses[(core_id, register)]
        return core_id, register, bisect_left(accesses, sequence, key=itemgetter(2)) + 1

    def _fate(self, copies: list[tuple[int, int, int]]) -> str:
        """What the copies meet: each ``(core, register, index)`` is the
        value a core holds before its ``index``-th access of the register."""
        fate = WRITE
        while copies:
            core_id, register, at = copies.pop()
            accesses = self.accesses.get((core_id, register), [])
            if at == len(accesses):
                fate = NEVER
                continue
            _position, kind, sequence, tid = accesses[at]
            if kind == READ:
                return READ
            if kind == SAVE:
                copies.append((core_id, register, at + 1))
                loads = self.loads.get(tid, [])
                at = bisect_left(loads, (sequence,))
                if at < len(loads):
                    copies.append(self._after_load(loads[at], register))
        return fate

    def next_access(self, core_id: int, register: int, time: int) -> str:
        accesses = self.accesses.get((core_id, register), [])
        return self._fate([(core_id, register, bisect_left(accesses, (time, "")))])

    def context_access(self, tid: int, register: int, time: int) -> str:
        """What a register of ``tid``'s saved context at ``time`` meets:
        the copy its first load at or after ``time`` puts on a core."""
        loads = self.loads.get(tid, [])
        at = bisect_left(loads, time, key=itemgetter(1))
        if at == len(loads):
            return WRITE
        return self._fate([self._after_load(loads[at], register)])

    def saved(self, tid: int, time: int) -> bool:
        """True when ``tid``'s last context switch before ``time`` saved it."""
        switched = self.switched.get(tid, [])
        at = bisect_left(switched, (time,))
        return at > 0 and switched[at - 1][1]


class TracedRegs(RegisterFile):
    def __init__(self, core, trace: Trace) -> None:
        super().__init__(core.arch)
        self.core = core
        self.core_id = core.core_id
        self.trace = trace

    def read(self, index):
        self.trace.note(self.core_id, (index,), READ)
        return super().read(index)

    def read_signed(self, index):
        self.trace.note(self.core_id, (index,), READ)
        return super().read_signed(index)

    def write(self, index, value):
        self.trace.note(self.core_id, (index,), WRITE)
        super().write(index, value)

    def snapshot(self):
        self.trace.note(self.core_id, range(self.num_regs), SAVE, self.core.thread)
        return super().snapshot()

    def restore(self, snapshot):
        self.trace.note(self.core_id, range(self.num_regs), WRITE, self.core.thread)
        super().restore(snapshot)


def _trace_run(scenario: Scenario) -> tuple[Trace, list[int]]:
    """The oracle trace and the position of every burst start."""
    trace = Trace()
    system = create_system(scenario, engine=False)
    bursts: list[int] = []
    step_core = system._step_core

    def traced_step_core(core, budget):
        bursts.append(system.total_instructions)
        return step_core(core, budget)

    def hook(core, pc):
        trace.count += 1

    system._step_core = traced_step_core

    for core in system.cores:
        core.regs = TracedRegs(core, trace)
        core.trace_hook = hook
    launch_scenario(system, scenario)
    schedule = system.kernel.schedule

    def traced_schedule():
        trace.scheduling = True
        try:
            schedule()
        finally:
            trace.scheduling = False

    system.kernel.schedule = traced_schedule
    trace.enabled = True
    assert system.run() == "completed"
    trace.enabled = False
    return trace, bursts


@pytest.mark.parametrize("scenario", LANES, ids=lambda s: s.scenario_id)
def test_summary_matches_the_traced_registers(scenario):
    golden = ScenarioCampaign(scenario, CampaignConfig(seed=3)).run_golden()
    summary = golden.defuse
    assert summary is not None and summary.num_cores == scenario.cores
    trace, bursts = _trace_run(scenario)
    total = golden.total_instructions
    assert trace.count == total
    rng = random.Random(f"defuse-{scenario.scenario_id}")
    boundaries = set(bursts) | trace.switches
    times = {rng.randrange(total + 1) for _ in range(SEEDED_TIMES)} | {0, total}
    times |= {t + delta for t in boundaries for delta in (-1, 0, 1) if 0 <= t + delta <= total}
    kinds = {READ: 0, WRITE: 0, NEVER: 0}
    wrong = []
    for time in sorted(times):
        for core in range(scenario.cores):
            for register in range(summary.num_gpr):
                want = trace.next_access(core, register, time)
                got = summary.next_access(core, register, time)
                kinds[want] += 1
                if got != want:
                    wrong.append((time, core, register, got, want))
    assert not wrong, f"{len(wrong)} wrong, first {wrong[:5]}"
    assert kinds[WRITE] and kinds[NEVER]
    # the saved context of every thread not running at a checked time
    contexts = {READ: 0, WRITE: 0, NEVER: 0}
    for time in sorted(times):
        for tid in sorted(trace.switched):
            switched = trace.switched[tid]
            if switched[0][0] < time and not trace.saved(tid, time):
                continue
            for register in range(summary.num_gpr):
                want = trace.context_access(tid, register, time)
                got = summary.context_access(tid, register, time)
                contexts[want] += 1
                if got != want:
                    wrong.append((time, tid, register, got, want))
    assert not wrong, f"{len(wrong)} wrong contexts, first {wrong[:5]}"
    assert contexts[READ] and contexts[WRITE], contexts


def test_an_interpreter_run_builds_no_summary():
    # Interpreter bursts log no blocks; a summary of the kernel events
    # alone would call registers never read that the run reads.
    scenario = Scenario("IS", "serial", 1, "armv8")
    system = create_system(scenario, engine=False)
    launch_scenario(system, scenario)
    log: list = []
    system.cores[0].access_log = log
    assert system.run() == "completed"
    assert log
    assert build_summary(log, 1, system.arch, system.total_instructions) is None


# ---------------------------------------------------------------------------
# per-syscall register roles
# ---------------------------------------------------------------------------


class RecordingRegs(RegisterFile):
    """Integer register file that records read/written indices."""

    def __init__(self, arch, values):
        super().__init__(arch)
        self._values = list(values)
        self.reads: set[int] = set()
        self.writes: set[int] = set()

    def read(self, index):
        self.reads.add(index)
        return super().read(index)

    def read_signed(self, index):
        self.reads.add(index)
        return super().read_signed(index)

    def write(self, index, value):
        self.writes.add(index)
        super().write(index, value)


def _spawn(kernel, process):
    return kernel._spawn_thread(process, kernel.loader.text_base, 0)


def _arrange(call: Syscall, kernel, process, block: bool) -> tuple:
    """Prepare the kernel for ``call`` and return its arguments."""
    if call == Syscall.THREAD_JOIN:
        return (_spawn(kernel, process).tid if block else 999,)
    if call == Syscall.SEM_WAIT:
        process.semaphores[1] = 0 if block else 1
        return (1,)
    if call == Syscall.BARRIER_WAIT:
        return (1, 2 if block else 1)
    if call == Syscall.MUTEX_LOCK:
        if block:
            process.mutexes[1] = _spawn(kernel, process)
        return (1,)
    if call == Syscall.MSG_RECV:
        if not block:
            kernel._queue(process.job_id, process.rank).append((0, 0, b""))
        return (ANY_RANK, 0, 0, ANY_RANK)
    return {
        Syscall.EXIT: (0,),
        Syscall.WRITE_INT: (5,),
        Syscall.WRITE_FLOAT: (0x3F800000,),
        Syscall.WRITE_CHAR: (65,),
        Syscall.SBRK: (16,),
        Syscall.THREAD_CREATE: (kernel.loader.text_base, 0),
        Syscall.THREAD_EXIT: (0,),
        Syscall.SEM_POST: (1,),
        Syscall.MUTEX_UNLOCK: (1,),
        Syscall.MSG_SEND: (0, 0, 0, 0),
        Syscall.MSG_PROBE: (ANY_RANK, ANY_RANK),
    }.get(call, ())


CASES = [(call, False) for call in Syscall] + [
    (call, True) for call in Syscall if SYSCALL_ROLES[call].blocks
]


def test_every_syscall_has_roles():
    assert set(SYSCALL_ROLES) == set(Syscall)


@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=lambda a: a.name)
@pytest.mark.parametrize(
    "call,block", CASES, ids=lambda v: v.name if isinstance(v, Syscall) else ("blocks" if v else "completes")
)
def test_syscall_registers_match_their_roles(arch, call, block):
    system = build_system(arch.name, cores=1, model_caches=False)
    system.load_process(build_program("IS", "serial", arch.name))
    kernel = system.kernel
    kernel.schedule()
    core = system.cores[0]
    thread = core.thread
    process = thread.process
    abi = arch.abi
    args = _arrange(call, kernel, process, block)
    regs = RecordingRegs(arch, core.regs.snapshot())
    for register, value in zip(abi.arg_regs, args):
        regs._values[register] = value
    core.regs = regs
    kernel.handle_syscall(core, int(call))

    roles = SYSCALL_ROLES[call]
    read = roles.args if not (roles.float_arg and arch.has_hw_float) else 0
    assert regs.reads == set(abi.arg_regs[:read])
    blocked = thread.state == ThreadState.BLOCKED
    assert blocked == block
    assert regs.writes == ({abi.ret_reg} if roles.returns and not blocked else set())
    if blocked:
        # The result arrives with the next attach, which the log
        # records as a write of every register.
        assert core.thread is None
    # The summary's SVC masks: a call that may block reads the return
    # register instead of writing it, since the run decides which.
    uses, defs = instruction_roles(Instr(Op.SVC, imm=int(call)), arch)
    assert set(uses) == regs.reads | ({abi.ret_reg} if roles.blocks and roles.returns else set())
    assert set(defs) == (set() if roles.blocks else regs.writes)

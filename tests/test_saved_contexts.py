"""Register values followed through context switches.

A detach does not read a register: it hands the value on twice, to the
core (until the core's next attach) and to the thread's saved context
(until the thread's next attach, on any core).  The def-use summary
follows both copies (:mod:`repro.injection.defuse`), and a golden state
whose saved contexts differ is decided through
:meth:`DefUseSummary.context_access`.  ``tests/test_defuse.py`` checks
the summary against a traced run; these tests check the decisions the
injector makes from it: a stale context is dead, a context that its
thread's next attach reads is not, and faults whose first access is a
detach, or a return-register flip before a blocking call, end with the
record a boot replay writes.
"""

from __future__ import annotations

import random

import pytest

from repro.checkpoint import capture_snapshot, restore_snapshot, state_diff
from repro.cpu.core import CoreContext
from repro.cpu.engine import Block
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.defuse import READ
from repro.injection.fault import TARGET_GPR, FaultDescriptor
from repro.injection.injector import GOLDEN, MAX_DEAD_BYTES, FaultInjector, ReferenceInjector
from repro.kernel.kernel import DETACH, SVC_DETACH, WAKE_ATTACH
from repro.kernel.threads import ThreadState
from repro.npb.suite import Scenario, create_system, launch_scenario
from test_injector_fastpath import _records

OMP = Scenario("IS", "omp", 2, "armv8")

#: Lanes whose threads switch cores: OpenMP on 2 and 4 cores, MPI on 2.
SWITCHING_LANES = [
    Scenario("IS", "omp", 2, "armv7"),
    Scenario("IS", "omp", 2, "armv8"),
    Scenario("LU", "omp", 2, "armv8"),
    Scenario("IS", "omp", 4, "armv8"),
    Scenario("IS", "mpi", 2, "armv7"),
    Scenario("IS", "mpi", 2, "armv8"),
    Scenario("LU", "mpi", 2, "armv8"),
]

#: Faults whose first access is a detach, per lane.
DETACH_FAULTS = 8


def _everything_decidable(_core: int, _register: int) -> bool:
    return True


def _golden(scenario: Scenario):
    return ScenarioCampaign(scenario, CampaignConfig(seed=11)).run_golden()


@pytest.fixture(scope="module")
def omp():
    golden = _golden(OMP)
    return golden, FaultInjector(OMP, golden)


def _restored(scenario: Scenario, snapshot):
    system = create_system(scenario)
    launch_scenario(system, scenario)
    return restore_snapshot(snapshot, system)


def _flip_context(system, tid: int, register: int = None, fpr: int = None) -> None:
    thread = next(t for p in system.kernel.processes for t in p.threads if t.tid == tid)
    context = thread.context
    gprs, fprs = list(context.gprs), list(context.fprs)
    if register is not None:
        gprs[register] ^= 1 << 3
    if fpr is not None:
        fprs[fpr] ^= 1 << 3
    thread.context = CoreContext(tuple(gprs), tuple(fprs), context.pc, context.flags)


def _threads(snapshot) -> dict[int, str]:
    return {
        thread["tid"]: thread["state"]
        for process in snapshot.kernel["processes"]
        for thread in process["threads"]
    }


def test_a_running_threads_context_is_dead(omp):
    # A running thread's saved context is overwritten by its next detach
    # before anything loads it, whatever differs in it (FPRs included).
    golden, injector = omp
    checkpoint = golden.checkpoints[-1]
    assert set(_threads(checkpoint).values()) == {ThreadState.RUNNING.value}
    system = _restored(OMP, checkpoint)
    _flip_context(system, 1, register=5)
    _flip_context(system, 2, fpr=1)
    assert not state_diff(checkpoint, system).empty
    diff = state_diff(checkpoint, system, _everything_decidable, MAX_DEAD_BYTES)
    assert diff.stale == [1, 2] and not diff.contexts and diff.undecided is None
    assert injector._verdict(diff) == GOLDEN
    before = injector.dead_states
    assert injector._converged(checkpoint, system) == GOLDEN
    assert injector.dead_states == before + 1


def test_an_exited_threads_context_is_dead(omp):
    # A worker thread exits a few dozen instructions before its process
    # does; nothing loads its context again.
    golden, injector = omp
    system = create_system(OMP)
    launch_scenario(system, OMP)
    stop = golden.total_instructions - 200
    exited: list[int] = []
    while not exited:
        assert system.run(stop_at_instruction=stop) == "breakpoint", "no thread exited before the end"
        exited = [t.tid for p in system.kernel.processes for t in p.threads if t.state == ThreadState.EXITED]
        stop += 4
    snapshot = capture_snapshot(system)
    live = _restored(OMP, snapshot)
    _flip_context(live, exited[0], register=2)
    diff = state_diff(snapshot, live, _everything_decidable, MAX_DEAD_BYTES)
    assert diff.stale == exited[:1] and not diff.contexts and diff.undecided is None
    assert injector._verdict(diff) == GOLDEN


def test_a_context_its_next_attach_reads_is_not_decided(omp):
    golden, injector = omp
    summary = golden.defuse
    checkpoint = next(
        checkpoint
        for checkpoint in golden.checkpoints
        if ThreadState.BLOCKED.value in _threads(checkpoint).values()
    )
    time = checkpoint.instruction_count
    tid = next(t for t, state in _threads(checkpoint).items() if state == ThreadState.BLOCKED.value)
    kinds = {register: summary.context_access(tid, register, time) for register in range(summary.num_gpr)}
    read = next(register for register, kind in kinds.items() if kind == READ)
    dead = next(register for register, kind in kinds.items() if kind != READ)

    system = _restored(OMP, checkpoint)
    _flip_context(system, tid, register=read)
    diff = state_diff(checkpoint, system, _everything_decidable, MAX_DEAD_BYTES)
    assert diff.contexts == [(tid, read)] and not diff.stale and diff.undecided is None
    assert injector._verdict(diff) is None
    assert injector._converged(checkpoint, system) is None
    # a register the attach overwrites or that no one reads again is dead
    system = _restored(OMP, checkpoint)
    _flip_context(system, tid, register=dead)
    assert injector._verdict(state_diff(checkpoint, system, _everything_decidable)) is not None
    # the FPRs of a context that will be loaded stay undecided
    system = _restored(OMP, checkpoint)
    _flip_context(system, tid, fpr=0)
    assert state_diff(checkpoint, system, _everything_decidable).undecided is not None


def _switches(scenario: Scenario) -> tuple[list[tuple[int, int, str, int]], object]:
    """``(position, core, event, tid)`` of every attach and detach of
    the scenario's run, placed as the summary places them, and its ABI."""
    system = create_system(scenario)
    launch_scenario(system, scenario)
    log: list = []
    for core in system.cores:
        core.access_log = log
    assert system.run() == "completed"
    count = 0
    switches = []
    for item in log:
        if isinstance(item, Block):
            count += item.length
        elif len(item) == 3:
            core_id, event, tid = item
            switches.append((count - 1 if event == SVC_DETACH else count, core_id, event, tid))
    return switches, system.arch.abi


def _gpr_fault(fault_id: int, time: int, core: int, register: int, bit: int = 4) -> FaultDescriptor:
    return FaultDescriptor(
        fault_id, injection_time=time, core_id=core, target_kind=TARGET_GPR,
        register_index=register, bit=bit,
    )


@pytest.mark.parametrize("scenario", SWITCHING_LANES, ids=lambda s: s.scenario_id)
def test_faults_first_read_by_a_detach_match_the_boot_replay(scenario):
    # At a detach's position nothing but the detach touches a register
    # that is no system call argument or result: the blocking SVC is the
    # last instruction of its block.
    golden = _golden(scenario)
    summary = golden.defuse
    switches, abi = _switches(scenario)
    attaches = {
        tid: [position for position, _c, event, t in switches if t == tid and event not in (DETACH, SVC_DETACH)]
        for tid in summary.attaches
    }
    assert attaches == {tid: [entry[0] for entry in entries] for tid, entries in summary.attaches.items()}
    untouched = [r for r in range(summary.num_gpr) if r not in abi.arg_regs and r != abi.ret_reg]
    detaches = [(position, core) for position, core, event, _t in switches if event in (DETACH, SVC_DETACH)]
    rng = random.Random(f"detach-{scenario.scenario_id}")
    faults = [
        _gpr_fault(index, position, core, rng.choice(untouched))
        for index, (position, core) in enumerate(rng.sample(detaches, min(DETACH_FAULTS, len(detaches))))
    ]
    fast = FaultInjector(scenario, golden)
    records = _records(fast.run_many(faults))
    assert fast.decided > 0, scenario.scenario_id
    reference = ReferenceInjector(scenario, golden)
    assert records == _records(reference.run_many(faults))


def test_a_return_register_flip_before_a_woken_call_matches_the_boot_replay():
    # The blocking call reads the return register (it is the first
    # argument too); when the call blocks, the flipped value goes to the
    # core and to the saved context, and the wake attach writes the
    # call's result over the context's copy.
    for scenario in (OMP, Scenario("IS", "mpi", 2, "armv8")):
        golden = _golden(scenario)
        switches, abi = _switches(scenario)
        blocked = [
            (position, core)
            for index, (position, core, event, tid) in enumerate(switches)
            if event == SVC_DETACH
            and next((e for _p, _c, e, t in switches[index + 1 :] if t == tid), None) == WAKE_ATTACH
        ]
        assert blocked, scenario.scenario_id
        faults = [
            _gpr_fault(index, position, core, abi.ret_reg, bit)
            for index, (position, core) in enumerate(blocked[:4])
            for bit in (0, 9)
        ]
        fast = FaultInjector(scenario, golden)
        records = _records(fast.run_many(faults))
        reference = ReferenceInjector(scenario, golden)
        assert records == _records(reference.run_many(faults)), scenario.scenario_id


def test_a_blocked_threads_return_register_is_overwritten_by_its_wake(omp):
    # The same rule on the saved context alone: a flipped return register
    # of a thread blocked at a golden state is decided, and running on
    # from that state ends exactly as the golden run.
    golden, injector = omp
    abi = create_system(OMP).arch.abi
    checkpoint = next(
        checkpoint
        for checkpoint in golden.checkpoints
        if ThreadState.BLOCKED.value in _threads(checkpoint).values()
    )
    tid = next(t for t, state in _threads(checkpoint).items() if state == ThreadState.BLOCKED.value)
    time = checkpoint.instruction_count
    attach = next(entry for entry in golden.defuse.attaches[tid] if entry[0] >= time)
    assert attach[2] >> abi.ret_reg & 1  # the wake writes it
    system = _restored(OMP, checkpoint)
    _flip_context(system, tid, register=abi.ret_reg)
    diff = state_diff(checkpoint, system, _everything_decidable, MAX_DEAD_BYTES)
    assert diff.contexts == [(tid, abi.ret_reg)]
    assert injector._verdict(diff) == GOLDEN
    assert system.run() == "completed"
    assert system.total_instructions == golden.total_instructions
    assert system.combined_output() == golden.output
    assert system.memory_snapshot() == golden.memory_snapshots
    assert system.architectural_state() == golden.final_state

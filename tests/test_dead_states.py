"""Dead-state decisions: a faulty run ends once every difference is dead.

At a golden state where the faulty run differs from the golden run
only in registers and bytes of writable memory that the rest of the
golden run provably never reads (``FaultInjector._verdict``), the run
ends there with the golden instruction count.  These tests pin what
must not be decided: a stack byte that is loaded into a register read
next (so a rule on the segment name alone would be wrong), every run
that may not converge at all, and a cache run while its corrupted line
is still pending.  ``tests/test_injector_fastpath.py``
checks the decided records against boot replays on seeded fault lists.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import restore_snapshot, state_diff
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.fault import TARGET_MEMORY, FaultDescriptor
from repro.injection.injector import GOLDEN, MAX_DEAD_BYTES, FaultInjector, ReferenceInjector
from repro.kernel.loader import TEXT_BASE
from repro.npb.suite import Scenario, create_system, launch_scenario
from test_injector_fastpath import _records

SCENARIO = Scenario("IS", "serial", 1, "armv8")


@pytest.fixture(scope="module")
def lane():
    campaign = ScenarioCampaign(SCENARIO, CampaignConfig(seed=11))
    return campaign, campaign.run_golden()


def _memory_fault(fault_id: int, time: int, address: int, bit: int) -> FaultDescriptor:
    return FaultDescriptor(
        fault_id, injection_time=time, core_id=0, target_kind=TARGET_MEMORY,
        register_index=0, bit=bit, address=address,
    )


def _stack(golden):
    """(base, end) of the main thread's stack."""
    return next(
        (base, base + size)
        for base, size, name in golden.memory_ranges[0]
        if name.startswith("stack")
    )


def test_a_stack_byte_loaded_into_a_live_register_is_not_decided(lane):
    # Saved registers sit in stack slots until an epilogue reloads them.
    # A flipped byte of one whose reloaded register is read next (a
    # return address, say) is live: the run crashes or corrupts the
    # output, so calling stack bytes dead by their segment would be wrong.
    _campaign, golden = lane
    injector = FaultInjector(SCENARIO, golden)
    base, end = _stack(golden)
    found = None
    for checkpoint in golden.checkpoints[1:]:
        time = checkpoint.instruction_count
        for address in range(end - 8, end - 512, -1):
            if injector._fates.fate(0, address, time) is not None:
                continue
            fault = _memory_fault(len(golden.checkpoints), time, address, 7)
            dead_states = injector.dead_states
            result = injector.run_one(fault)
            if result.outcome in ("UT", "OMM"):
                found = checkpoint, fault, result
                break
        if found:
            break
    assert found, "no live stack byte changes an outcome"
    checkpoint, fault, result = found
    assert injector.dead_states == dead_states
    system = create_system(SCENARIO, model_caches=False)
    launch_scenario(system, SCENARIO)
    restore_snapshot(checkpoint, system)
    system.kernel.processes[0].address_space.flip_bit(fault.address, fault.bit)
    diff = state_diff(checkpoint, system, max_bytes=MAX_DEAD_BYTES)
    assert [(name, first) for _p, name, first, _end in diff.memory] == [
        (next(name for b, s, name in golden.memory_ranges[0] if b == base), fault.address)
    ]
    assert injector._verdict(diff) is None
    assert not injector._converged(checkpoint, system)
    reference = ReferenceInjector(SCENARIO, golden)
    assert _records([result]) == _records([reference.run_one(fault)])


def test_a_never_read_heap_byte_is_decided_omm(lane):
    # The positive control: a heap byte the golden run never touches
    # after the flip stays wrong to the end, so the run is decided at
    # its injection point, before any restore, as the boot replay's OMM.
    _campaign, golden = lane
    injector = FaultInjector(SCENARIO, golden)
    time = golden.checkpoints[2].instruction_count + 5
    heap = next(base for base, _size, name in golden.memory_ranges[0] if name == "heap")
    address = next(
        address
        for address in range(heap, heap + 4096)
        if injector._fates.fate(0, address, time) == (True, False)
    )
    fault = _memory_fault(0, time, address, 3)
    result = injector.run_one(fault)
    assert injector.decided == 1 and injector.dead_states == 0
    assert injector.fast_forwards == injector.boot_replays == 0
    assert result.outcome == "OMM"
    reference = ReferenceInjector(SCENARIO, golden)
    assert _records([result]) == _records([reference.run_one(fault)])


def test_runs_that_may_not_converge_make_no_dead_state_decisions(lane):
    campaign, golden = lane
    faults = campaign.build_fault_list(120)
    fast = FaultInjector(SCENARIO, golden)
    dead = []
    for fault in faults:
        before = fast.dead_states
        fast.run_one(fault)
        if fast.dead_states > before:
            dead.append(fault)
    assert dead  # the seeded register faults do end in dead states
    # a checkpoint-less injector is a plain boot replay
    replay = FaultInjector(SCENARIO, golden, use_checkpoints=False)
    assert _records(replay.run_many(dead[:4])) == _records(fast.run_many(dead[:4]))
    assert replay.dead_states == replay.convergences == 0
    # a read-only flip is invisible to snapshots
    text = [
        _memory_fault(index, fault.injection_time, TEXT_BASE + 4 * index, index % 8)
        for index, fault in enumerate(dead[:6])
    ]
    untracked = FaultInjector(SCENARIO, golden)
    untracked.run_many(text)
    assert untracked.dead_states == untracked.convergences == 0
    # a corrupted cache line may still be pending: the state match
    # ignores caches, so no golden state ends the run until it is not
    checkpoint = golden.checkpoints[2]
    system = create_system(SCENARIO, model_caches=True)
    launch_scenario(system, SCENARIO)
    restore_snapshot(checkpoint, system)
    assert fast._converged(checkpoint, system) == GOLDEN
    system.cores[0].caches.l1d.inject_resident_fault(0, 5)
    assert system.cache_faults_pending()
    convergences = fast.convergences
    assert fast._converged(checkpoint, system) is None
    assert fast.convergences == convergences

"""Differential tests of the injector's fast path.

``FaultInjector.run_one`` restores golden states onto one reused system
per injector, captures more golden states during fault-free prefixes,
and ends a faulty run as soon as its state equals one of them.  None of
this may change a single record: every record must equal the one
:class:`ReferenceInjector` produces, a checkpoint-less injector that
boots a fresh system for every fault on the reference interpreter.
Running the same faults in the opposite order on one injector catches
state that leaks from one reuse of a system into the next.

Under a ``rec`` scheme the rollback candidates are checkpoints, so a
checkpoint-less injector legitimately recovers differently.  There the
oracle is the same checkpointed injector on the reference interpreter
with its one convergence test patched to never match: it re-executes
every rollback and runs every pass to the end.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import capture_snapshot, restore_snapshot, state_diff
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.defuse import NEVER, WRITE
from repro.injection.fault import TARGET_CACHE, TARGET_GPR, TARGET_MEMORY, FaultDescriptor
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector, ReferenceInjector
from repro.kernel.loader import TEXT_BASE
from repro.npb.suite import Scenario, create_system, launch_scenario

SCENARIOS = [
    Scenario(app, mode, cores, isa)
    for app, isa in (("IS", "armv7"), ("IS", "armv8"), ("LU", "armv8"))
    for mode, cores in (("serial", 1), ("omp", 2))
] + [
    Scenario(app, "mpi", 2, isa)
    for app, isa in (("IS", "armv7"), ("IS", "armv8"), ("LU", "armv8"))
]

#: Register, PC, memory and cache faults in one list.
TARGET_MIX = {"gpr": 0.4, "pc": 0.1, "memory": 0.3, "cache": 0.2}

#: Seeded faults drawn per scenario from the campaign's fault model.
FAULTS = 20


def _records(results) -> list[dict]:
    records = []
    for result in results:
        record = result.as_record()
        del record["wall_time_seconds"]
        records.append(record)
    return records


@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda s: s.scenario_id)
def lane(request):
    """A scenario's golden run and its fault list.

    Besides the seeded draws, the list carries GPR faults on every core
    in the first instructions: they restore the boot checkpoint onto a
    used system, before any thread stack beyond the main one exists.
    """
    scenario = request.param
    campaign = ScenarioCampaign(scenario, CampaignConfig(seed=13, target_mix=TARGET_MIX))
    golden = campaign.run_golden()
    faults = campaign.build_fault_list(FAULTS)
    for offset, time in enumerate((1, 40, 120)):
        for core in range(scenario.cores):
            faults.append(
                FaultDescriptor(
                    FAULTS + offset * scenario.cores + core,
                    injection_time=time,
                    core_id=core,
                    target_kind=TARGET_GPR,
                    register_index=offset + 1,
                    bit=offset + 3,
                )
            )
    return golden, faults


def test_reused_converging_injector_matches_fresh_reference(lane):
    golden, faults = lane
    fast = FaultInjector(golden.scenario, golden)
    forward = _records(fast.run_many(faults))
    reference = ReferenceInjector(golden.scenario, golden)
    assert not reference._build_system().engine  # the reference interpreter
    assert forward == _records(reference.run_many(faults))
    assert reference.fast_forwards == 0 and reference.convergences == 0
    assert fast.fast_forwards > 0
    assert len(fast._golden_states) > len(golden.checkpoints)  # prefix captures

    backward = _records(fast.run_many(faults[::-1]))[::-1]
    assert backward == forward
    if golden.scenario.app == "IS" and golden.scenario.isa == "armv7":
        assert fast.convergences > 0


# ---------------------------------------------------------------------------
# rollback recovery: live convergence and clean rollbacks
# ---------------------------------------------------------------------------

REC_SCENARIOS = [
    Scenario(app, mode, cores, isa, hardening=scheme)
    for app, isa in (("IS", "armv7"), ("LU", "armv8"))
    for mode, cores in (("serial", 1), ("omp", 2))
    for scheme in ("dwc+rec", "dwc+rec1")
]

#: Enough seeded faults that every rec lane detects and rolls back.
REC_FAULTS = 40


def _rec_lane(scenario: Scenario):
    campaign = ScenarioCampaign(scenario, CampaignConfig(seed=13, target_mix=TARGET_MIX))
    return campaign.run_golden(), campaign.build_fault_list(REC_FAULTS)


def _no_exit_oracle(golden, monkeypatch) -> FaultInjector:
    """The checkpointed injector on the reference interpreter, without early exits."""
    oracle = FaultInjector(golden.scenario, golden)
    oracle.engine = False
    monkeypatch.setattr(oracle, "_converged", lambda state, system: False)
    return oracle


@pytest.fixture(scope="module", params=REC_SCENARIOS, ids=lambda s: s.scenario_id)
def rec_lane(request):
    """Fast-path results of a rec lane, which exit each fault took, and the oracle's records."""
    golden, faults = _rec_lane(request.param)
    fast = FaultInjector(golden.scenario, golden)
    results, exits = [], []
    for fault in faults:
        matches, cleans = fast.convergences, fast.clean_rollbacks
        results.append(fast.run_one(fault))
        exits.append(
            "clean" if fast.clean_rollbacks > cleans
            else "match" if fast.convergences > matches
            else None
        )
    with pytest.MonkeyPatch.context() as monkeypatch:
        oracle = _no_exit_oracle(golden, monkeypatch)
        expected = _records(oracle.run_many(faults))
    assert oracle.convergences == oracle.clean_rollbacks == 0
    return golden, faults, fast, results, exits, expected


def test_rec_fast_path_matches_the_checkpointed_oracle(rec_lane):
    golden, faults, fast, results, exits, expected = rec_lane
    forward = _records(results)
    assert forward == expected
    assert "match" in exits and "clean" in exits
    assert any(record["recovery_rollbacks"] for record in forward)

    backward = _records(fast.run_many(faults[::-1]))[::-1]
    assert backward == forward


def test_clean_rollback_record_shape(rec_lane):
    # A rollback to a golden checkpoint from before the upset, or to
    # boot, ends the run without re-executing; its record must still
    # read as the full re-execution's.
    golden, _faults, _fast, results, exits, expected = rec_lane
    clean = [
        (result.as_record(), want)
        for result, how, want in zip(results, exits, expected)
        if how == "clean"
    ]
    assert clean
    for record, want in clean:
        assert record["outcome"] == "Recovered"
        assert record["detail"].endswith("golden output reproduced")
        assert record["executed_instructions"] == golden.total_instructions
        assert record["recovery_rollbacks"] >= 1
        assert not record["recovery_escalated"]
        assert (
            record["recovery_reexecuted_instructions"]
            == want["recovery_reexecuted_instructions"]
            > 0
        )


def test_exhausted_rec1_retries_still_escalate(monkeypatch):
    # LU-OMP-2 has detections whose nearest rollback candidate is a
    # live snapshot that re-detects: with one retry they must escalate.
    golden, faults = _rec_lane(Scenario("LU", "omp", 2, "armv8", hardening="dwc+rec1"))
    escalated = [
        result
        for result in FaultInjector(golden.scenario, golden).run_many(faults)
        if result.recovery["escalated"]
    ]
    assert escalated
    for result in escalated:
        assert result.outcome == "Detected"
        assert result.recovery["rollbacks"] == 1
        assert "persisted through 1 rollback(s)" in result.detail
    oracle = _no_exit_oracle(golden, monkeypatch)
    assert _records(escalated) == _records(oracle.run_many([r.fault for r in escalated]))


def test_pending_cache_line_survives_a_rollback():
    # The detection comes after a live snapshot that still holds the
    # corrupted line.  Restoring that snapshot brings the line back, the
    # re-attached commit sink makes it architectural again, the run
    # re-detects and walks back to a clean checkpoint: two rollbacks.
    # A restore that left the sink off would recover after one.
    scenario = Scenario("LU", "serial", 1, "armv8", hardening="dwc+rec")
    golden = ScenarioCampaign(scenario, CampaignConfig()).run_golden()
    fault = FaultDescriptor(
        49,
        injection_time=3807,
        core_id=0,
        target_kind=TARGET_CACHE,
        register_index=533179,
        bit=213,
        cache_level="l1d",
    )
    result = FaultInjector(scenario, golden).run_one(fault)
    assert result.outcome == "Recovered"
    assert result.recovery == {
        "rollbacks": 2,
        "reexecuted_instructions": 10306,
        "escalated": False,
    }
    assert result.executed_instructions == golden.total_instructions


@pytest.fixture(scope="module")
def golden_omp():
    scenario = Scenario("IS", "omp", 2, "armv8")
    return GoldenRunner(model_caches=True, checkpoint_interval=4096).run(
        scenario, collect_stats=False
    )


def test_read_only_flip_neither_converges_nor_reuses_its_system(golden_omp):
    # Snapshots hold writable memory only, so a flip in the text image
    # is invisible to the state match and would survive a restore.
    fault = FaultDescriptor(
        0,
        injection_time=golden_omp.checkpoints[1].instruction_count + 7,
        core_id=0,
        target_kind=TARGET_MEMORY,
        register_index=0,
        bit=0,
        address=TEXT_BASE,
    )
    injector = FaultInjector(golden_omp.scenario, golden_omp)
    record = _records([injector.run_one(fault)])
    assert injector.convergences == 0
    assert not injector._systems
    reference = ReferenceInjector(golden_omp.scenario, golden_omp)
    assert record == _records([reference.run_one(fault)])


# ---------------------------------------------------------------------------
# the state match and restore onto a used system
# ---------------------------------------------------------------------------


def _system_at(golden, index: int, model_caches: bool = False):
    system = create_system(golden.scenario, model_caches=model_caches)
    launch_scenario(system, golden.scenario)
    return restore_snapshot(golden.checkpoints[index], system)


def _late_stack(golden):
    """(index, stack name) of the first checkpoint with a thread stack the boot one lacks."""

    def stacks(checkpoint):
        segments = checkpoint.kernel["processes"][0]["memory"]["segments"]
        return {name for name, _base, _size, _data in segments if name.startswith("stack")}

    boot = stacks(golden.checkpoints[0])
    for index, checkpoint in enumerate(golden.checkpoints):
        extra = stacks(checkpoint) - boot
        if extra:
            return index, sorted(extra)[0]
    raise AssertionError("no checkpoint maps a thread stack after boot")


def test_match_follows_the_golden_run_and_ignores_stats(golden_omp):
    # A cache-less system counts other cycles than the cache-modelling
    # golden run; running it from one checkpoint to the next must still
    # match, and so must any change to its CoreStats counters.
    system = _system_at(golden_omp, 1)
    target = golden_omp.checkpoints[2]
    system.run(stop_at_instruction=target.instruction_count)
    assert state_diff(target, system).empty
    system.cores[0].stats.cycles += 12345
    system.cores[1].stats.loads += 1
    assert state_diff(target, system).empty
    assert not state_diff(golden_omp.checkpoints[1], system).empty


def test_match_rejects_a_flipped_dead_stack_byte(golden_omp):
    system = _system_at(golden_omp, 2)
    space = system.kernel.processes[0].address_space
    stack = next(s for s in space.segments if s.name.startswith("stack"))
    space.flip_bit(stack.base, 0)  # the far end of the stack: never used
    assert not state_diff(golden_omp.checkpoints[2], system).empty


def test_match_rejects_another_resume_point(golden_omp):
    checkpoint = golden_omp.checkpoints[2]
    system = _system_at(golden_omp, 2)
    assert state_diff(checkpoint, system).empty
    index, used, progress = system._resume
    system._resume = (index, used, progress + 1)
    assert not state_diff(checkpoint, system).empty


def test_restore_unmaps_stacks_mapped_after_the_checkpoint(golden_omp):
    index, stack_name = _late_stack(golden_omp)
    system = _system_at(golden_omp, index)
    space = system.kernel.processes[0].address_space
    stack = space.segment_by_name(stack_name)
    restore_snapshot(golden_omp.checkpoints[0], system)
    assert space.find_segment(stack.base) is None
    assert all(segment.name != stack_name for segment in space.segments)
    # Running on spawns the thread again, on a stack mapped afresh.
    system.run(stop_at_instruction=golden_omp.checkpoints[index].instruction_count)
    assert state_diff(golden_omp.checkpoints[index], system).empty


def test_restore_drops_a_stale_fault_sink(golden_omp):
    system = _system_at(golden_omp, 2, model_caches=True)
    caches = [system.shared_l2] + [
        cache for core in system.cores for cache in (core.caches.l1i, core.caches.l1d)
    ]
    for cache in caches:
        cache.fault_sink = lambda line, byte_offset, bit: None
    restore_snapshot(golden_omp.checkpoints[1], system)
    assert all(cache.fault_sink is None for cache in caches)


def test_restore_onto_a_used_system_equals_a_fresh_restore(golden_omp):
    used = _system_at(golden_omp, 1)
    used.run()
    target = golden_omp.checkpoints[2]
    restore_snapshot(target, used)
    fresh = _system_at(golden_omp, 2)
    assert capture_snapshot(used) == capture_snapshot(fresh)


# ---------------------------------------------------------------------------
# register faults decided from the golden run's def-use summary
# ---------------------------------------------------------------------------

DECIDED_SCENARIOS = SCENARIOS + [
    Scenario("IS", "mpi", 2, "armv7"),
    Scenario("IS", "mpi", 2, "armv8"),
    Scenario("LU", "mpi", 2, "armv8"),
]


def _verdict_faults(golden, first_id: int) -> list[FaultDescriptor]:
    """One GPR fault the summary calls write-first and one it calls never-read."""
    summary = golden.defuse
    faults = []
    for wanted in (WRITE, NEVER):
        fault = next(
            FaultDescriptor(
                first_id + len(faults),
                injection_time=time,
                core_id=core,
                target_kind=TARGET_GPR,
                register_index=register,
                bit=5,
            )
            for time in [*range(7, golden.total_instructions, 331), golden.total_instructions]
            for core in range(summary.num_cores)
            for register in range(summary.num_gpr)
            if summary.next_access(core, register, time) == wanted
        )
        faults.append(fault)
    return faults


def test_decided_register_faults_match_the_boot_replay():
    # The paper's register-file mix plus one fault of each decided
    # class: every record the summary decides must be the one a boot
    # replay on the reference interpreter writes, in either order on
    # one injector, and the state match past the injection point must
    # still end the runs it used to.
    matched_past_injection = 0
    for scenario in DECIDED_SCENARIOS:
        campaign = ScenarioCampaign(scenario, CampaignConfig(seed=17))
        golden = campaign.run_golden()
        faults = campaign.build_fault_list(24)
        faults += _verdict_faults(golden, len(faults))
        fast = FaultInjector(scenario, golden)
        decided = []
        forward = []
        for fault in faults:
            before = fast.decided
            forward += _records([fast.run_one(fault)])
            if fast.decided > before:
                decided.append(len(forward) - 1)
        outcomes = {forward[index]["outcome"] for index in decided}
        assert outcomes == {"Vanished", "ONA"}, scenario.scenario_id
        reference = ReferenceInjector(scenario, golden)
        expected = _records(reference.run_many([faults[index] for index in decided]))
        assert [forward[index] for index in decided] == expected, scenario.scenario_id
        assert reference.decided == reference.convergences == 0
        backward = _records(fast.run_many(faults[::-1]))[::-1]
        assert backward == forward, scenario.scenario_id
        matched_past_injection += fast.convergences - fast.decided
    assert matched_past_injection > 0


# ---------------------------------------------------------------------------
# memory and cache faults decided without a post-fault run
# ---------------------------------------------------------------------------

#: The memory campaign mix (``scripts/records_digest.py``'s ``memhier``).
MEMHIER_MIX = {"gpr": 0.6, "memory": 0.3, "cache": 0.1}

MEMHIER_SCENARIOS = [Scenario("IS", "serial", 1, "armv7"), Scenario("LU", "omp", 2, "armv8")]


@pytest.fixture(scope="module", params=MEMHIER_SCENARIOS, ids=lambda s: s.scenario_id)
def memhier_lane(request):
    """The memory and cache faults of a seeded memhier draw, run on the
    fast path, with the faults the injector decided."""
    scenario = request.param
    campaign = ScenarioCampaign(scenario, CampaignConfig(seed=29, target_mix=MEMHIER_MIX))
    golden = campaign.run_golden()
    faults = [
        fault
        for fault in campaign.build_fault_list(400)
        if fault.target_kind in (TARGET_MEMORY, TARGET_CACHE)
    ]
    fast = FaultInjector(scenario, golden)
    records, decided = [], []
    for fault in faults:
        before = fast.decided
        records += _records([fast.run_one(fault)])
        decided.append(fast.decided > before)
    return golden, faults, fast, records, decided


def test_decided_memory_and_cache_faults_match_the_boot_replay(memhier_lane):
    golden, faults, fast, records, decided = memhier_lane
    reference = ReferenceInjector(golden.scenario, golden)
    expected = _records(reference.run_many(faults))
    assert records == expected
    assert reference.decided == reference.convergences == 0
    for kind in (TARGET_MEMORY, TARGET_CACHE):
        kinds = [fault.target_kind == kind for fault in faults]
        assert any(k and d for k, d in zip(kinds, decided)), kind
        assert any(k and not d for k, d in zip(kinds, decided)), kind
    # A consumed line that changes the outcome: decided as masked, it
    # would read Vanished.
    assert any(
        record["target_kind"] == TARGET_CACHE and not was and record["outcome"] != "Vanished"
        for record, was in zip(expected, decided)
    )
    backward = _records(fast.run_many(faults[::-1]))[::-1]
    assert backward == records


def test_decided_cache_faults_leave_the_line_unconsumed(memhier_lane):
    # A decided cache fault never reaches memory: it reads Vanished with
    # the golden instruction count, as the boot replay does.
    golden, faults, _fast, records, decided = memhier_lane
    cache = [
        record
        for fault, record, was in zip(faults, records, decided)
        if was and fault.target_kind == TARGET_CACHE
    ]
    assert cache
    for record in cache:
        assert record["outcome"] == "Vanished"
        assert record["executed_instructions"] == golden.total_instructions


def test_unmapped_and_read_only_memory_targets_still_run():
    scenario = Scenario("IS", "omp", 2, "armv8")
    golden = ScenarioCampaign(scenario, CampaignConfig(target_mix=MEMHIER_MIX)).run_golden()
    index, stack_name = _late_stack(golden)
    base = next(base for base, _size, name in golden.memory_ranges[0] if name == stack_name)
    faults = [
        # a worker's stack, flipped before the worker is spawned
        FaultDescriptor(
            0, injection_time=1, core_id=0, target_kind=TARGET_MEMORY,
            register_index=0, bit=1, address=base + 64,
        ),
        # the text image, which snapshots do not hold
        FaultDescriptor(
            1, injection_time=golden.checkpoints[index].instruction_count + 3, core_id=0,
            target_kind=TARGET_MEMORY, register_index=0, bit=0, address=TEXT_BASE,
        ),
    ]
    injector = FaultInjector(scenario, golden)
    for fault in faults:
        assert injector._decide(fault) is None
    records = _records(injector.run_many(faults))
    assert injector.decided == 0
    assert injector.fast_forwards + injector.boot_replays == len(faults)
    assert records[0]["detail"].startswith("memory target unmapped")
    assert records == _records(ReferenceInjector(scenario, golden).run_many(faults))

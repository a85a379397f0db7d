"""Determinism tests of the checkpoint/restore subsystem.

The contract under test: restoring a checkpoint onto a freshly launched
system and running to completion is *bitwise identical* to a straight
run — same output, same memory contents, same architectural state, same
instruction counts, same per-core statistics.  This is what lets the
fault injector fast-forward to an injection point instead of replaying
from boot without changing a single campaign outcome.
"""

from __future__ import annotations

import pickle
import random
import zlib

import pytest

from repro.checkpoint import SystemSnapshot, capture_snapshot, nearest_checkpoint, restore_snapshot
from repro.errors import SimulatorError
from repro.injection.golden import MAX_CHECKPOINTS, GoldenRunner
from repro.npb.suite import Scenario, create_system, instruction_budget, launch_scenario

#: The small determinism matrix: two applications across every
#: parallelisation model and both ISAs (serial, OpenMP and MPI exercise
#: disjoint kernel paths: scheduling, sync primitives, message passing).
APP_MODE_CORES = [
    ("IS", "serial", 1),
    ("IS", "omp", 2),
    ("IS", "mpi", 2),
    ("EP", "serial", 1),
    ("EP", "omp", 2),
    ("EP", "mpi", 2),
]
SCENARIOS = [
    Scenario(app, mode, cores, isa)
    for isa in ("armv8", "armv7")
    for app, mode, cores in APP_MODE_CORES
]


def _fresh(scenario: Scenario):
    system = create_system(scenario, model_caches=False)
    launch_scenario(system, scenario)
    return system


def _fingerprint(system) -> tuple:
    """Everything a straight run and a restored run must agree on."""
    return (
        system.combined_output(),
        system.memory_snapshot(),
        system.architectural_state(),
        system.total_instructions,
        [core.stats.counters() for core in system.cores],
        [p.state.value for p in system.kernel.processes],
        dict(system.kernel.syscall_counts),
    )


_REFERENCE_CACHE: dict[str, tuple] = {}


def _reference(scenario: Scenario) -> tuple:
    """Fingerprint of an uninterrupted run (cached per scenario)."""
    key = scenario.scenario_id
    if key not in _REFERENCE_CACHE:
        system = _fresh(scenario)
        system.run(max_instructions=instruction_budget(scenario))
        _REFERENCE_CACHE[key] = _fingerprint(system)
    return _REFERENCE_CACHE[key]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.scenario_id)
class TestDeterminismMatrix:
    def test_restore_then_run_is_bitwise_identical(self, scenario):
        reference = _reference(scenario)
        golden = GoldenRunner(model_caches=False, checkpoint_interval=512).run(
            scenario, collect_stats=False
        )
        # The checkpointed golden run itself must match the uninterrupted run.
        assert golden.output == reference[0]
        assert golden.memory_snapshots == reference[1]
        assert golden.final_state == reference[2]
        assert golden.total_instructions == reference[3]
        assert len(golden.checkpoints) >= 2  # boot snapshot + at least one pause
        # Restoring any checkpoint and running to completion reproduces it too.
        for checkpoint in (golden.checkpoints[len(golden.checkpoints) // 2], golden.checkpoints[-1]):
            system = restore_snapshot(checkpoint, _fresh(scenario))
            assert system.total_instructions == checkpoint.instruction_count
            system.run(max_instructions=golden.watchdog_budget())
            assert _fingerprint(system) == reference

    def test_checkpoints_are_monotonic_and_bounded(self, scenario):
        golden = GoldenRunner(model_caches=False, checkpoint_interval=512).run(
            scenario, collect_stats=False
        )
        counts = golden.checkpoint_instructions()
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)
        assert len(counts) <= MAX_CHECKPOINTS + 1
        assert counts[-1] <= golden.total_instructions


class TestRandomBoundaries:
    """Property-style: any pause point is a valid, exact checkpoint."""

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario("IS", "omp", 2, "armv8"),
            Scenario("IS", "mpi", 2, "armv8"),
            Scenario("EP", "omp", 2, "armv7"),
        ],
        ids=lambda s: s.scenario_id,
    )
    def test_random_checkpoint_boundaries(self, scenario):
        reference = _reference(scenario)
        total = reference[3]
        budget = instruction_budget(scenario)
        rng = random.Random(0xC0FFEE ^ zlib.crc32(scenario.scenario_id.encode()))
        for _ in range(4):
            boundary = rng.randint(1, total - 1)
            paused = _fresh(scenario)
            assert paused.run(max_instructions=budget, stop_at_instruction=boundary) == "breakpoint"
            assert paused.total_instructions == boundary
            snapshot = capture_snapshot(paused)
            restored = restore_snapshot(snapshot, _fresh(scenario))
            # The restored system is indistinguishable from the paused one...
            assert _fingerprint(restored) == _fingerprint(paused)
            # ...and both finish exactly like the uninterrupted run.
            restored.run(max_instructions=budget)
            paused.run(max_instructions=budget)
            assert _fingerprint(restored) == reference
            assert _fingerprint(paused) == reference


class TestSnapshotApi:
    def test_snapshots_pickle_cleanly(self):
        scenario = Scenario("IS", "serial", 1, "armv8")
        system = _fresh(scenario)
        system.run(max_instructions=instruction_budget(scenario), stop_at_instruction=5_000)
        snapshot = pickle.loads(pickle.dumps(capture_snapshot(system)))
        assert isinstance(snapshot, SystemSnapshot)
        assert snapshot.instruction_count == 5_000
        assert snapshot.approx_bytes() > 0
        restored = restore_snapshot(snapshot, _fresh(scenario))
        assert _fingerprint(restored) == _fingerprint(system)

    def test_nearest_checkpoint_selection(self):
        checkpoints = [
            SystemSnapshot(instruction_count=c, run_reason=None, resume=None) for c in (0, 100, 200)
        ]
        assert nearest_checkpoint(checkpoints, 0).instruction_count == 0
        assert nearest_checkpoint(checkpoints, 99).instruction_count == 0
        assert nearest_checkpoint(checkpoints, 100).instruction_count == 100
        assert nearest_checkpoint(checkpoints, 10_000).instruction_count == 200
        assert nearest_checkpoint([], 50) is None
        assert nearest_checkpoint(checkpoints[1:], 50) is None

    def test_restore_rejects_mismatched_system(self):
        scenario = Scenario("IS", "serial", 1, "armv8")
        system = _fresh(scenario)
        snapshot = capture_snapshot(system)
        other = create_system(Scenario("IS", "omp", 4, "armv8"), model_caches=False)
        with pytest.raises(SimulatorError):
            restore_snapshot(snapshot, other)

    def test_restore_rejects_mismatched_workload(self):
        snapshot = capture_snapshot(_fresh(Scenario("IS", "serial", 1, "armv8")))
        other = _fresh(Scenario("EP", "serial", 1, "armv8"))
        with pytest.raises(SimulatorError):
            restore_snapshot(snapshot, other)

    def test_checkpointing_disabled_with_zero_interval(self):
        golden = GoldenRunner(model_caches=False, checkpoint_interval=0).run(
            Scenario("EP", "serial", 1, "armv8"), collect_stats=False
        )
        assert golden.checkpoints == []
        assert golden.summary()["checkpoints"] == 0

    def test_negative_interval_rejected(self):
        with pytest.raises(SimulatorError):
            GoldenRunner(checkpoint_interval=-1)

    def test_bare_golden_runner_skips_checkpoints_by_default(self):
        golden = GoldenRunner(model_caches=False).run(
            Scenario("EP", "serial", 1, "armv8"), collect_stats=False
        )
        assert golden.checkpoints == []
        campaign_default = GoldenRunner(model_caches=False, checkpoint_interval=None).run(
            Scenario("EP", "serial", 1, "armv8"), collect_stats=False
        )
        assert len(campaign_default.checkpoints) >= 2

    def test_cache_state_round_trips(self):
        scenario = Scenario("EP", "serial", 1, "armv8")
        system = create_system(scenario, model_caches=True)
        launch_scenario(system, scenario)
        system.run(max_instructions=instruction_budget(scenario), stop_at_instruction=3_000)
        snapshot = capture_snapshot(system)
        fresh = create_system(scenario, model_caches=True)
        launch_scenario(fresh, scenario)
        restored = restore_snapshot(snapshot, fresh)
        assert restored.cache_stats() == system.cache_stats()
        restored.run(max_instructions=instruction_budget(scenario))
        system.run(max_instructions=instruction_budget(scenario))
        assert restored.cache_stats() == system.cache_stats()
        assert _fingerprint(restored) == _fingerprint(system)

"""Golden execution: the fault-free reference run of a scenario.

Phase one of the paper's four-stage workflow.  The golden run records
everything the classifier needs to detect misbehaviour (executed
instruction count, final memory state, program output, architectural
state) plus the microarchitectural statistics consumed by the
data-mining stage.

The golden run also records periodic :class:`SystemSnapshot`
checkpoints.  Injection runs restore the nearest checkpoint at or
before their injection point instead of re-simulating from boot, which
turns the quadratic cost of a campaign (every injection replays the
whole prefix) into a near-linear one.  Pausing for a checkpoint is
schedule-neutral (see :meth:`MulticoreSystem.run`), so a checkpointed
golden run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.checkpoint import SystemSnapshot, capture_snapshot
from repro.errors import SimulatorError
from repro.injection.defuse import DefUseSummary, build_summary
from repro.memory.main_memory import TAG_SHIFT
from repro.npb.suite import Scenario, build_program, create_system, instruction_budget, launch_scenario
from repro.profiling.stats_collector import collect_microarch_stats

#: Base checkpoint spacing (instructions) when no interval is requested.
DEFAULT_CHECKPOINT_INTERVAL = 4096

#: Checkpoint count cap: when a run outgrows it, every other checkpoint
#: is dropped and the interval doubles, bounding memory at ~2x the cap.
MAX_CHECKPOINTS = 48


@dataclass
class GoldenRunResult:
    """Reference behaviour of one scenario."""

    scenario: Scenario
    total_instructions: int
    output: str
    memory_snapshots: dict[str, dict[str, bytes]]
    final_state: tuple
    exit_ok: bool
    wall_time_seconds: float
    stats: dict[str, float] = field(default_factory=dict)
    load_balance_pct: float = 0.0
    process_names: list[str] = field(default_factory=list)
    checkpoints: list[SystemSnapshot] = field(default_factory=list)
    #: per-process injectable memory layout: one (base, size, name) list
    #: per process (data, heap and thread stacks), index-aligned with
    #: ``process_names``; derived from the loader's final segment map
    memory_ranges: list[list[tuple[int, int, str]]] = field(default_factory=list)
    #: each core's integer-register next-access table, from which the
    #: injector decides write-first and never-read register faults, with
    #: the memory accesses the memory fates come from
    defuse: Optional[DefUseSummary] = None
    #: the line events of every cache a cache fault can target (see
    #: :meth:`~repro.memory.cache.Cache.record`), keyed ``"core<i>_l1d"``
    #: and ``"l2"``; empty unless the run recorded them
    cache_events: dict[str, array] = field(default_factory=dict)

    def watchdog_budget(self, multiplier: int = 4, floor: int = 50_000) -> int:
        return max(floor, multiplier * self.total_instructions)

    def checkpoint_instructions(self) -> list[int]:
        return [checkpoint.instruction_count for checkpoint in self.checkpoints]

    def summary(self) -> dict:
        return {
            "scenario": self.scenario.scenario_id,
            "instructions": self.total_instructions,
            "exit_ok": self.exit_ok,
            "wall_time_seconds": round(self.wall_time_seconds, 4),
            "load_balance_pct": round(self.load_balance_pct, 3),
            "processes": len(self.process_names),
            "checkpoints": len(self.checkpoints),
        }


class GoldenRunner:
    """Runs scenarios without faults and captures their reference behaviour.

    Parameters
    ----------
    model_caches:
        Model the cache hierarchy (needed for the profiling statistics).
    checkpoint_interval:
        Base spacing between checkpoints in instructions.  ``None``
        selects :data:`DEFAULT_CHECKPOINT_INTERVAL`; ``0`` (the
        constructor default — bare golden runs for profiling or analysis
        have no use for snapshots) disables checkpointing.  Campaigns
        enable checkpointing through ``CampaignConfig``.  Long runs
        adaptively double the spacing so at most ~:data:`MAX_CHECKPOINTS`
        snapshots are kept.
    """

    def __init__(self, model_caches: bool = True, checkpoint_interval: Optional[int] = 0):
        self.model_caches = model_caches
        self.checkpoint_interval = self._resolve_interval(checkpoint_interval)

    @staticmethod
    def _resolve_interval(checkpoint_interval: Optional[int]) -> int:
        if checkpoint_interval is None:
            return DEFAULT_CHECKPOINT_INTERVAL
        if checkpoint_interval < 0:
            raise SimulatorError(f"invalid checkpoint interval {checkpoint_interval}")
        return checkpoint_interval

    def run(
        self, scenario: Scenario, collect_stats: bool = True, cache_faults: bool = False
    ) -> GoldenRunResult:
        """Run ``scenario`` fault-free; ``cache_faults`` (with caches
        modelled) also records the line events of every cache a cache
        fault can target, from which the injector decides such faults."""
        interval = self.checkpoint_interval
        program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
        system = create_system(scenario, model_caches=self.model_caches)
        launch_scenario(system, scenario, program)
        budget = instruction_budget(scenario)
        access_log: list = []
        for core in system.cores:
            core.access_log = access_log
        accesses = array("q")
        for index, process in enumerate(system.kernel.processes):
            process.address_space.record(access_log, accesses, index << TAG_SHIFT)
        caches = {}
        if cache_faults and system.model_caches:
            caches = {f"core{core.core_id}_l1d": core.caches.l1d for core in system.cores}
            caches["l2"] = system.shared_l2
        cache_events = {name: array("q") for name in caches}
        for name, cache in caches.items():
            cache.record(cache_events[name])
        start = time.perf_counter()
        checkpoints: list[SystemSnapshot] = []
        if interval:
            checkpoints.append(capture_snapshot(system))  # boot state, instruction 0
            next_stop = interval
            while True:
                reason = system.run(max_instructions=budget, stop_at_instruction=next_stop)
                if reason != "breakpoint":
                    break
                checkpoints.append(capture_snapshot(system))
                next_stop += interval
                if len(checkpoints) > MAX_CHECKPOINTS:
                    checkpoints = checkpoints[::2]
                    interval *= 2
                    next_stop = checkpoints[-1].instruction_count + interval
        else:
            reason = system.run(max_instructions=budget)
        elapsed = time.perf_counter() - start
        for core in system.cores:
            core.access_log = None
        for process in system.kernel.processes:
            process.address_space.record(None)
        for cache in caches.values():
            cache.record(None)
        if reason != "completed":
            raise SimulatorError(f"golden run of {scenario.scenario_id} did not complete ({reason})")
        if not system.processes_ok():
            summary = system.kernel.process_summary()
            raise SimulatorError(f"golden run of {scenario.scenario_id} terminated abnormally: {summary}")
        stats = collect_microarch_stats(system, program) if collect_stats else {}
        return GoldenRunResult(
            scenario=scenario,
            total_instructions=system.total_instructions,
            output=system.combined_output(),
            memory_snapshots=system.memory_snapshot(),
            final_state=system.architectural_state(),
            exit_ok=True,
            wall_time_seconds=elapsed,
            stats=stats,
            load_balance_pct=system.load_balance(),
            process_names=[p.name for p in system.kernel.processes],
            checkpoints=checkpoints,
            memory_ranges=[
                process.address_space.injectable_ranges() for process in system.kernel.processes
            ],
            defuse=build_summary(
                access_log, len(system.cores), system.arch, system.total_instructions, accesses
            ),
            cache_events=cache_events,
        )

"""The golden memory fates against what memory really sees.

:class:`repro.injection.fates.MemoryFates` places the golden run's
logged memory accesses by walking its block log.  The oracle here is
independent of both: it runs the scenario on the reference interpreter
with recording register files (the def-use test's :class:`Trace`) and
recording address spaces, placing every guest load and store and every
kernel copy at its global position with a ``Core.trace_hook`` counter,
and follows each byte through the recorded accesses itself.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest

from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.defuse import NEVER, READ, WRITE
from repro.injection.fates import MemoryFates
from repro.isa.instructions import Op
from repro.npb.suite import Scenario, create_system, launch_scenario
from test_defuse import LANES, Trace, TracedRegs

#: Seeded instruction counts checked per lane.
SEEDED_TIMES = 60


class MemoryTrace:
    """Every memory access of a run: ``(position, first, end, kind)`` per process."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        #: the instruction each core started last, as (core id, Instr)
        self.current = None
        self.accesses: dict[int, list[tuple[int, int, int, object]]] = {}

    def watch(self, process: int, space) -> None:
        accesses = self.accesses.setdefault(process, [])
        read, write = space.read, space.write
        read_bytes, write_bytes = space.read_bytes, space.write_bytes

        def note(first, size, kind):
            if self.trace.enabled:
                accesses.append((self.trace.count - 1, first, first + size, kind))

        def traced_read(address, size, *args):
            core_id, instr = self.current
            note(address, size, READ if instr.op == Op.FLDR else (core_id, instr.rd))
            return read(address, size, *args)

        def traced_write(address, value, size, *args):
            note(address, size, WRITE)
            write(address, value, size, *args)

        def traced_read_bytes(address, length):
            note(address, length, READ)
            return read_bytes(address, length)

        def traced_write_bytes(address, data):
            note(address, len(data), WRITE)
            write_bytes(address, data)

        space.read, space.write = traced_read, traced_write
        space.read_bytes, space.write_bytes = traced_read_bytes, traced_write_bytes

    def fate(self, process: int, address: int, time: int):
        """What :meth:`MemoryFates.fate` must answer, from the recorded accesses."""
        accesses = self.accesses.get(process, [])
        register_stays = False
        for position, first, end, kind in accesses[bisect_left(accesses, (time,)) :]:
            if not first <= address < end:
                continue
            if kind == WRITE:
                return False, register_stays
            if kind == READ:
                return None
            access = self.trace.next_access(*kind, position + 1)
            if access == READ:
                return None
            register_stays = register_stays or access == NEVER
        return True, register_stays


def _traced_run(scenario: Scenario) -> tuple[MemoryTrace, list]:
    """The oracle's memory trace and each process' writable segments at the end."""
    trace = Trace()
    memory = MemoryTrace(trace)
    system = create_system(scenario, engine=False)

    def hook(core, pc):
        trace.count += 1
        memory.current = (core.core_id, core.text[(pc - core.text_base) >> 2])

    for core in system.cores:
        core.regs = TracedRegs(core, trace)
        core.trace_hook = hook
    launch_scenario(system, scenario)
    for index, process in enumerate(system.kernel.processes):
        memory.watch(index, process.address_space)
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
    segments = [
        [(segment.base, segment.end) for segment in process.address_space.segments if segment.perms.write]
        for process in system.kernel.processes
    ]
    return memory, segments


@pytest.mark.parametrize("scenario", LANES, ids=lambda s: s.scenario_id)
def test_fates_match_the_traced_memory(scenario):
    golden = ScenarioCampaign(scenario, CampaignConfig(seed=3)).run_golden()
    fates = MemoryFates(golden.defuse)
    memory, segments = _traced_run(scenario)
    total = golden.total_instructions
    assert memory.trace.count == total
    rng = random.Random(f"fates-{scenario.scenario_id}")
    times = sorted({rng.randrange(total + 1) for _ in range(SEEDED_TIMES)} | {0, total})
    seen = {"written first": 0, "never accessed": 0, "loads decide": 0, "undecided": 0}
    wrong = []
    for time in times:
        for process, accesses in memory.accesses.items():
            # the bytes the next few accesses and GPR loads touch, and a
            # few anywhere
            after = accesses[bisect_left(accesses, (time,)) :]
            loads = [access for access in after[:400] if access[3].__class__ is tuple][:4]
            addresses = {
                first + rng.randrange(end - first) for _p, first, end, _kind in after[:6] + loads
            }
            for base, end in rng.sample(segments[process], min(2, len(segments[process]))):
                addresses.add(rng.randrange(base, end))
            for address in sorted(addresses):
                want = memory.fate(process, address, time)
                got = fates.fate(process, address, time)
                if got != want:
                    wrong.append((time, process, hex(address), got, want))
                first_kind = next(
                    (kind for _p, first, end, kind in after if first <= address < end), None
                )
                if want is None:
                    seen["undecided"] += 1
                elif first_kind.__class__ is tuple:
                    seen["loads decide"] += 1
                else:
                    seen["never accessed" if want[0] else "written first"] += 1
    assert not wrong, f"{len(wrong)} wrong, first {wrong[:5]}"
    # LU's integer loads mostly feed registers that are read next
    assert all(count for kind, count in seen.items() if kind != "loads decide"), seen
    assert seen["loads decide"] or scenario.app == "LU", seen

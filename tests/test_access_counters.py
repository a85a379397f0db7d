"""Address-space access counters: block engine against ``Core.step``.

Compiled loads and stores go through the address space's uncounted
sized accessors (``load4``, ``store8``, ...); the engine adds the
burst's loads, stores and bytes moved to the four counters on every
exit, a guest fault included.  The counters are part of the kernel
capture that the injector's convergence exit compares, so a batching
slip would not fail a run: it would only make convergence stop firing.
These tests compare ``AddressSpace.stats()`` and the captured
``counters`` with the reference interpreter's wherever control leaves
the engine.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu import engine as block_engine
from repro.errors import AlignmentFault, MemoryFault
from repro.isa.arch import ARMV7, ARMV8
from repro.isa.instructions import Instr, Op
from repro.npb.suite import Scenario, build_program, create_system, launch_scenario

from test_engine import DATA_BASE, bare_core, cached_core, random_program

FACTORIES = [bare_core, cached_core]
FACTORY_IDS = ["no-caches", "with-caches"]


def _counters(space):
    return space.stats(), space.capture_contents()["counters"]


def _reference_counters(text, arch, steps, factory):
    """Counters after every instruction of an interpreter run, and its fault."""
    core = factory(arch, use_engine=False)
    core.text = text
    seen = [_counters(core.mem)]
    error = None
    try:
        for _ in range(steps):
            core.step()
            seen.append(_counters(core.mem))
    except Exception as exc:  # noqa: BLE001 — compared against the engine's
        error = exc
    return seen, error, _counters(core.mem)


@pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
def test_random_programs_match_at_every_pause(arch, factory, monkeypatch):
    """Random bursts on compiled code: the counters agree after each one."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    compared = 0
    for seed in range(20):
        rng = random.Random(31_000 + seed)
        text = random_program(rng, arch)
        steps = 500
        seen, ref_error, ref_final = _reference_counters(list(text), arch, steps, factory)
        core = factory(arch, use_engine=True)
        core.text = list(text)
        error = None
        try:
            while core.stats.instructions < steps:
                core.run_burst(min(rng.randint(1, 29), steps - core.stats.instructions))
                assert _counters(core.mem) == seen[core.stats.instructions]
                compared += 1
        except Exception as exc:  # noqa: BLE001
            error = exc
        assert type(error) is type(ref_error)
        assert _counters(core.mem) == ref_final
    assert compared > 200


MID_BLOCK_FAULTS = {
    "unmapped-load": (
        [
            Instr(Op.MOVI, rd=1, imm=DATA_BASE + 0x40),
            Instr(Op.STR, rd=1, rn=1, imm=0),
            Instr(Op.LDR, rd=2, rn=1, imm=8),
            Instr(Op.MOVI, rd=3, imm=0x800000),
            Instr(Op.LDRB, rd=4, rn=1, imm=3),
            Instr(Op.LDR, rd=4, rn=3, imm=0),
            Instr(Op.STR, rd=2, rn=1, imm=16),  # never executes
            Instr(Op.HALT),
        ],
        MemoryFault,
    ),
    "misaligned-store": (
        [
            Instr(Op.MOVI, rd=1, imm=DATA_BASE + 0x40),
            Instr(Op.LDR, rd=2, rn=1, imm=0),
            Instr(Op.STRB, rd=2, rn=1, imm=5),
            Instr(Op.STR, rd=2, rn=1, imm=8),
            Instr(Op.STR, rd=2, rn=1, imm=2),
            Instr(Op.LDR, rd=3, rn=1, imm=0),  # never executes
            Instr(Op.HALT),
        ],
        AlignmentFault,
    ),
}


@pytest.mark.parametrize("budget", [50, 3, 1], ids=["one-burst", "tails", "single-steps"])
@pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
@pytest.mark.parametrize("program", sorted(MID_BLOCK_FAULTS))
def test_fault_mid_block_keeps_the_completed_accesses(program, factory, budget, monkeypatch):
    """A fault inside a compiled block or prefix counts exactly the
    accesses before it, as the interpreter does."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    text, expected = MID_BLOCK_FAULTS[program]
    _seen, ref_error, ref_final = _reference_counters(list(text), ARMV8, 50, factory)
    assert type(ref_error) is expected
    core = factory(ARMV8, use_engine=True)
    core.text = list(text)
    with pytest.raises(expected) as raised:
        while core.run_burst(budget) == budget:
            pass
    assert str(raised.value) == str(ref_error)
    assert _counters(core.mem) == ref_final
    assert ref_final[0]["reads"] and ref_final[0]["writes"]


SYSTEMS = [Scenario("IS", "omp", 2, "armv8"), Scenario("IS", "mpi", 2, "armv7")]


def _system_counters(scenario, model_caches, engine, stops):
    """Every process's counters at each stop and at the end of the run."""
    program = build_program(scenario.app, scenario.mode, scenario.isa)
    system = create_system(scenario, model_caches=model_caches, engine=engine)
    launch_scenario(system, scenario, program)
    seen = []
    for stop in stops:
        assert system.run(stop_at_instruction=stop) == "breakpoint"
        seen.append([_counters(p.address_space) for p in system.kernel.processes])
    assert system.run() == "completed"
    seen.append([_counters(p.address_space) for p in system.kernel.processes])
    return seen


@pytest.mark.parametrize("model_caches", [False, True], ids=["no-caches", "with-caches"])
@pytest.mark.parametrize("scenario", SYSTEMS, ids=lambda s: s.scenario_id)
def test_systems_match_the_interpreter(scenario, model_caches):
    """Whole runs, one address space per MPI rank, paused mid-burst."""
    rng = random.Random(f"counters-{scenario.scenario_id}-{model_caches}")
    stops = sorted(rng.sample(range(1, 20_000), 8))
    engine = _system_counters(scenario, model_caches, True, stops)
    reference = _system_counters(scenario, model_caches, False, stops)
    assert engine == reference
    assert len(engine[-1]) == (scenario.cores if scenario.mode == "mpi" else 1)
    assert all(stats["reads"] and stats["writes"] for stats, _ in engine[-1])

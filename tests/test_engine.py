"""Differential and determinism tests for the pre-decoded block engine.

The engine (:mod:`repro.cpu.engine`) must be bit-identical to the seed
interpreter (``Core.step``) at every instruction boundary: architectural
state, ``CoreStats`` counters, guest output, fault type and fault PC.
These tests compare the two execution paths over randomized bare-metal
programs, full-system workloads, mid-superblock pauses, fault
injections and the watchdog contract.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu import engine as block_engine
from repro.cpu.core import Core
from repro.cpu.fpu import double_to_bits
from repro.errors import AlignmentFault, GuestFault, InstructionFault, SimulatorError, WatchdogTimeout
from repro.isa.arch import ARMV7, ARMV8
from repro.isa.instructions import Cond, Instr, Op
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.main_memory import AddressSpace
from repro.npb.suite import Scenario, build_program, create_system, launch_scenario

DATA_BASE = 0x1000
DATA_SIZE = 0x800


def bare_core(arch=ARMV8, use_engine=True):
    core = Core(0, arch, caches=None, model_caches=False, use_engine=use_engine)
    space = AddressSpace("bare")
    space.map("data", DATA_BASE, DATA_SIZE)
    core.mem = space
    core.text_base = 0
    core.pc = 0
    return core


#: Deliberately tiny caches so the random programs exercise evictions,
#: set conflicts and L2 traffic within a few hundred instructions.
SMALL_CACHE_CONFIGS = {
    "l1i": CacheConfig("l1i", 256, 2, 64, hit_latency=1, miss_penalty=10),
    "l1d": CacheConfig("l1d", 256, 2, 64, hit_latency=2, miss_penalty=10),
    "l2": CacheConfig("l2", 1024, 4, 64, hit_latency=12, miss_penalty=80),
}


def cached_core(arch=ARMV8, use_engine=True):
    """A bare core with cache modelling on (private tiny hierarchy)."""
    core = Core(
        0,
        arch,
        caches=CacheHierarchy.build(configs=SMALL_CACHE_CONFIGS),
        model_caches=True,
        use_engine=use_engine,
    )
    space = AddressSpace("bare")
    space.map("data", DATA_BASE, DATA_SIZE)
    core.mem = space
    core.text_base = 0
    core.pc = 0
    return core


# ---------------------------------------------------------------------------
# randomized differential: engine vs reference interpreter on bare cores
# ---------------------------------------------------------------------------

_INT3 = [Op.ADD, Op.SUB, Op.RSB, Op.MUL, Op.MULHU, Op.UDIV, Op.SDIV, Op.AND,
         Op.ORR, Op.EOR, Op.BIC, Op.LSL, Op.LSR, Op.ASR]
_INTI = [Op.ADDI, Op.SUBI, Op.ANDI, Op.ORRI, Op.EORI, Op.LSLI, Op.LSRI, Op.ASRI, Op.MULI]
_FP3 = [Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX]
_FP1 = [Op.FSQRT, Op.FNEG, Op.FABS, Op.FMOV]
_CONDS = list(Cond)


def random_program(rng: random.Random, arch, length: int = 120) -> list[Instr]:
    """A random but mostly-valid program with loops, memory and branches.

    Register 1 holds a mapped data pointer; branch targets may point
    anywhere in the text (including backwards — loops feed the engine's
    hot compile tier).  Occasional wild memory accesses exercise the
    fault-parity paths.
    """
    data_regs = (0, 2, 3, 4, 5)
    instrs: list[Instr] = [Instr(Op.MOVI, rd=1, imm=DATA_BASE + 0x200)]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            op = rng.choice(_INT3)
            instrs.append(Instr(op, rd=rng.choice(data_regs), rn=rng.choice(data_regs),
                                rm=rng.choice(data_regs)))
        elif roll < 0.48:
            op = rng.choice(_INTI)
            instrs.append(Instr(op, rd=rng.choice(data_regs), rn=rng.choice(data_regs),
                                imm=rng.randint(-64, 64)))
        elif roll < 0.56:
            instrs.append(Instr(Op.MOVI, rd=rng.choice(data_regs),
                                imm=rng.randint(-(1 << 20), 1 << 20)))
        elif roll < 0.64:
            if rng.random() < 0.5:
                instrs.append(Instr(Op.CMP, rn=rng.choice(data_regs), rm=rng.choice(data_regs)))
            else:
                instrs.append(Instr(Op.CMPI, rn=rng.choice(data_regs), imm=rng.randint(-32, 32)))
            instrs.append(Instr(Op.CSET, rd=rng.choice(data_regs), cond=rng.choice(_CONDS)))
        elif roll < 0.74:
            # memory through the pointer register (rarely: a wild base)
            base = 1 if rng.random() < 0.92 else rng.choice(data_regs)
            offset = rng.randrange(-0x40, 0x40) * arch.word_bytes
            kind = rng.random()
            if arch.has_hw_float and kind < 0.2:
                foffset = rng.randrange(-0x20, 0x20) * arch.float_bytes
                fop = Op.FLDR if kind < 0.1 else Op.FSTR
                instrs.append(Instr(fop, rd=rng.randrange(0, 6), rn=base, imm=foffset))
            elif kind < 0.6:
                instrs.append(Instr(Op.LDR, rd=rng.choice(data_regs), rn=base, imm=offset))
            else:
                instrs.append(Instr(Op.STR, rd=rng.choice(data_regs), rn=base, imm=offset))
        elif roll < 0.80 and arch.has_hw_float:
            fr = rng.randrange(0, 6)
            sub = rng.random()
            if sub < 0.3:
                instrs.append(Instr(Op.FMOVI, rd=fr, imm=double_to_bits(rng.uniform(-8, 8))))
            elif sub < 0.6:
                instrs.append(Instr(rng.choice(_FP3), rd=fr, rn=rng.randrange(0, 6),
                                    rm=rng.randrange(0, 6)))
            elif sub < 0.8:
                instrs.append(Instr(rng.choice(_FP1), rd=fr, rn=rng.randrange(0, 6)))
            else:
                instrs.append(Instr(Op.FCMP, rn=rng.randrange(0, 6), rm=rng.randrange(0, 6)))
        elif roll < 0.92:
            target = rng.randrange(0, length)
            kind = rng.random()
            if kind < 0.4:
                instrs.append(Instr(Op.BCC, cond=rng.choice(_CONDS), imm=target))
            elif kind < 0.7:
                instrs.append(Instr(Op.CBNZ, rn=rng.choice(data_regs), imm=target))
            elif kind < 0.9:
                instrs.append(Instr(Op.CBZ, rn=rng.choice(data_regs), imm=target))
            else:
                instrs.append(Instr(Op.B, imm=target))
        elif roll < 0.97:
            instrs.append(Instr(rng.choice([Op.NOP, Op.WFI, Op.MOV, Op.MVN, Op.TST]),
                                rd=rng.choice(data_regs), rn=rng.choice(data_regs),
                                rm=rng.choice(data_regs)))
        else:
            instrs.append(Instr(Op.HALT))
    instrs.append(Instr(Op.HALT))
    return instrs


def _state(core: Core):
    return core.architectural_state(), core.stats.counters(), bytes(core.mem.segments[0].data)


def _full_state(core: Core):
    """Architectural state plus the complete cache state, if modelled."""
    if core.caches is None:
        return _state(core)
    hierarchy = core.caches
    return (
        _state(core),
        hierarchy.l1i.dump_state(),
        hierarchy.l1d.dump_state(),
        hierarchy.l2.dump_state(),
    )


def _run_reference(text, arch, steps: int, factory=bare_core):
    """Interpreter reference: plain step() loop, faults captured."""
    core = factory(arch, use_engine=False)
    core.text = text
    error = None
    executed = 0
    try:
        for _ in range(steps):
            core.step()
            executed += 1
    except Exception as exc:  # noqa: BLE001 — compared against the engine's
        error = exc
    return core, executed, error


def _run_engine(text, arch, steps: int, rng: random.Random, factory=bare_core):
    """Engine run in random-size bursts (exercises mid-block resume)."""
    core = factory(arch, use_engine=True)
    core.text = text
    error = None
    executed = 0
    try:
        while executed < steps:
            chunk = min(rng.randint(1, 23), steps - executed)
            done = core.run_burst(chunk)
            executed += done
            assert done == chunk  # bare cores have no thread to detach
    except Exception as exc:  # noqa: BLE001
        executed = core.stats.instructions
        error = exc
    return core, executed, error


@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
@pytest.mark.parametrize("seed", range(20))
def test_random_programs_bit_identical(arch, seed):
    rng = random.Random(1000 * seed + (0 if arch is ARMV7 else 1))
    text = random_program(rng, arch)
    steps = 700
    ref_core, ref_executed, ref_error = _run_reference(list(text), arch, steps)
    eng_core, eng_executed, eng_error = _run_engine(list(text), arch, steps, rng)
    assert type(eng_error) is type(ref_error), (ref_error, eng_error)
    if ref_error is not None:
        assert str(eng_error) == str(ref_error)
    assert eng_executed == ref_executed
    assert _state(eng_core) == _state(ref_core)


@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
def test_random_programs_compiled_tier(arch, monkeypatch):
    """Force immediate superblock compilation and re-run the differential."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    for seed in range(8):
        rng = random.Random(5000 + seed)
        text = random_program(rng, arch)
        ref_core, ref_executed, ref_error = _run_reference(list(text), arch, 700)
        eng_core, eng_executed, eng_error = _run_engine(list(text), arch, 700, rng)
        assert type(eng_error) is type(ref_error)
        assert eng_executed == ref_executed
        assert _state(eng_core) == _state(ref_core)


#: NaNs with non-default payloads: quiet, signalling, negative and with
#: the payload in the high mantissa bits (Python's own NaN is 0x7ff8 << 48).
NAN_PAYLOADS = (
    0x7FF8_0000_0000_1234,
    0x7FF0_0000_0000_0001,
    0xFFF8_0000_DEAD_BEEF,
    0x7FFC_0000_0000_0000,
)


def nan_payload_program() -> list[Instr]:
    """FP arithmetic, moves and memory round trips over NaN payloads, in a loop."""
    data = DATA_BASE + 0x100
    text = [Instr(Op.MOVI, rd=1, imm=data), Instr(Op.MOVI, rd=2, imm=12)]
    for register, bits in enumerate(NAN_PAYLOADS):
        text.append(Instr(Op.FMOVI, rd=register, imm=bits))
    text.append(Instr(Op.FMOVI, rd=4, imm=double_to_bits(1.5)))
    loop = len(text)
    text += [
        Instr(Op.FADD, rd=5, rn=0, rm=4),
        Instr(Op.FSUB, rd=6, rn=4, rm=1),
        Instr(Op.FMUL, rd=7, rn=2, rm=3),
        Instr(Op.FDIV, rd=8, rn=3, rm=4),
        Instr(Op.FMIN, rd=9, rn=1, rm=4),
        Instr(Op.FMAX, rd=10, rn=4, rm=2),
        Instr(Op.FSQRT, rd=11, rn=0),
        Instr(Op.FNEG, rd=12, rn=1),
        Instr(Op.FABS, rd=13, rn=2),
        Instr(Op.FMOV, rd=14, rn=3),
        Instr(Op.FCMP, rn=5, rm=6),
        Instr(Op.CSET, rd=3, cond=Cond.HS),
        Instr(Op.FCVTZS, rd=4, rn=7),
        Instr(Op.FSTR, rd=12, rn=1, imm=0),
        Instr(Op.FLDR, rd=15, rn=1, imm=0),
        Instr(Op.FMOVGR, rd=5, rn=15),
        Instr(Op.STR, rd=5, rn=1, imm=8),
        Instr(Op.LDR, rd=0, rn=1, imm=8),
        Instr(Op.FMOVRG, rd=0, rn=0),
        Instr(Op.SUBI, rd=2, rn=2, imm=1),
        Instr(Op.CBNZ, rn=2, imm=loop),
        Instr(Op.HALT),
    ]
    return text


@pytest.mark.parametrize("threshold", [1, block_engine._COMPILE_THRESHOLD], ids=["compiled", "tiered"])
def test_nan_payloads_bit_identical(threshold, monkeypatch):
    """NaN results keep their payload bits identically on both paths."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", threshold)
    text = nan_payload_program()
    steps = 2 + len(NAN_PAYLOADS) + 1 + 21 * 12 + 1
    ref_core, ref_executed, ref_error = _run_reference(list(text), ARMV8, steps)
    eng_core, eng_executed, eng_error = _run_engine(
        list(text), ARMV8, steps, random.Random(threshold)
    )
    assert ref_error is None and eng_error is None
    assert ref_core.halted and eng_core.halted
    assert eng_executed == ref_executed == steps
    assert _state(eng_core) == _state(ref_core)
    fprs = ref_core.fregs.snapshot()
    payloads = {
        bits
        for bits in fprs
        if bits & 0x7FF0_0000_0000_0000 == 0x7FF0_0000_0000_0000 and bits & 0xF_FFFF_FFFF_FFFF
    }
    assert len(payloads - {0x7FF8_0000_0000_0000}) >= 4, [hex(bits) for bits in fprs]


def test_engine_pause_at_every_boundary_matches_interpreter():
    """run_burst(k) then run_burst(rest) equals a straight interpreter run."""
    rng = random.Random(42)
    text = random_program(rng, ARMV8, length=60)
    total = 300
    reference, _, _ = _run_reference(list(text), ARMV8, total)
    expected = _state(reference)
    for k in range(0, total + 1, 7):
        core = bare_core(ARMV8, use_engine=True)
        core.text = list(text)
        assert core.run_burst(k) == k
        assert core.stats.instructions == k  # exact boundary, mid-superblock
        assert core.run_burst(total - k) == total - k
        assert _state(core) == expected


# ---------------------------------------------------------------------------
# cache-modelling differential: every tier vs the interpreter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
@pytest.mark.parametrize("seed", range(10))
def test_random_programs_with_caches_bit_identical(arch, seed):
    """Randomized differential with cache modelling on: architectural
    state, counters, memory AND full cache state (residency in LRU
    order, dirty lines, counters) must be bit-identical."""
    rng = random.Random(7000 * seed + (0 if arch is ARMV7 else 1))
    text = random_program(rng, arch)
    steps = 700
    ref_core, ref_executed, ref_error = _run_reference(list(text), arch, steps, cached_core)
    eng_core, eng_executed, eng_error = _run_engine(list(text), arch, steps, rng, cached_core)
    assert type(eng_error) is type(ref_error), (ref_error, eng_error)
    if ref_error is not None:
        assert str(eng_error) == str(ref_error)
    assert eng_executed == ref_executed
    assert _full_state(eng_core) == _full_state(ref_core)


@pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
def test_random_programs_with_caches_compiled_tier(arch, monkeypatch):
    """Force immediate superblock compilation on the cached tier."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    compiled_blocks = 0
    for seed in range(6):
        rng = random.Random(9000 + seed)
        text = random_program(rng, arch)
        ref_core, ref_executed, ref_error = _run_reference(list(text), arch, 700, cached_core)
        eng_core, eng_executed, eng_error = _run_engine(list(text), arch, 700, rng, cached_core)
        assert type(eng_error) is type(ref_error)
        assert eng_executed == ref_executed
        assert _full_state(eng_core) == _full_state(ref_core)
        if eng_core._decoded is not None:
            compiled_blocks += sum(
                1 for block in eng_core._decoded.entries if block.compiled is not None
            )
    # the cached configuration must actually reach the fused tier —
    # a silent fallback to step closures would pass the differential
    # while losing the whole point of this path
    assert compiled_blocks > 0


def test_engine_pause_at_every_boundary_with_caches():
    """Pause/resume mid-superblock with caches on: the deopt stepping
    tier and the fused cached tier must agree at every boundary."""
    rng = random.Random(43)
    text = random_program(rng, ARMV8, length=60)
    total = 300
    reference, _, _ = _run_reference(list(text), ARMV8, total, cached_core)
    expected = _full_state(reference)
    for k in range(0, total + 1, 7):
        core = cached_core(ARMV8, use_engine=True)
        core.text = list(text)
        assert core.run_burst(k) == k
        assert core.stats.instructions == k  # exact boundary, mid-superblock
        assert core.run_burst(total - k) == total - k
        assert _full_state(core) == expected


# ---------------------------------------------------------------------------
# fault parity on the engine path
# ---------------------------------------------------------------------------

class TestFaultParity:
    def _both(self, text, arch=ARMV8, steps=50):
        ref = _run_reference(list(text), arch, steps)
        eng = _run_engine(list(text), arch, steps, random.Random(7))
        return ref, eng

    def _assert_parity(self, text, expected_type, arch=ARMV8):
        (ref_core, ref_exec, ref_err), (eng_core, eng_exec, eng_err) = self._both(text, arch)
        assert type(ref_err) is expected_type
        assert type(eng_err) is expected_type
        assert str(eng_err) == str(ref_err)
        assert eng_exec == ref_exec
        assert _state(eng_core) == _state(ref_core)

    def test_fetch_outside_text(self):
        self._assert_parity([Instr(Op.NOP), Instr(Op.B, imm=100)], InstructionFault)

    def test_fall_off_end_of_text(self):
        self._assert_parity([Instr(Op.MOVI, rd=2, imm=3), Instr(Op.NOP)], InstructionFault)

    def test_unmapped_load_mid_block(self):
        text = [
            Instr(Op.MOVI, rd=2, imm=9),
            Instr(Op.MOVI, rd=3, imm=0x800000),
            Instr(Op.ADDI, rd=2, rn=2, imm=1),
            Instr(Op.LDR, rd=4, rn=3, imm=0),
            Instr(Op.MOVI, rd=5, imm=1),  # never executes
            Instr(Op.HALT),
        ]
        (ref_core, _, ref_err), (eng_core, _, eng_err) = self._both(text)
        assert isinstance(ref_err, GuestFault) and isinstance(eng_err, GuestFault)
        assert str(eng_err) == str(ref_err)
        # the faulting instruction's PC advance and fetch cycle committed
        assert eng_core.pc == ref_core.pc == 4 * 4
        assert _state(eng_core) == _state(ref_core)

    def test_misaligned_store_parity(self):
        text = [
            Instr(Op.MOVI, rd=1, imm=DATA_BASE + 2),
            Instr(Op.STR, rd=1, rn=1, imm=0),
            Instr(Op.HALT),
        ]
        self._assert_parity(text, AlignmentFault)

    def test_undefined_opcode_parity(self):
        class FakeOp(int):
            pass

        text = [Instr(Op.NOP), Instr(FakeOp(999)), Instr(Op.HALT)]
        self._assert_parity(text, InstructionFault)

    def test_svc_without_kernel_parity(self):
        text = [Instr(Op.MOVI, rd=2, imm=1), Instr(Op.SVC, imm=3), Instr(Op.HALT)]
        self._assert_parity(text, SimulatorError)

    def test_unknown_condition_parity(self):
        text = [Instr(Op.CMPI, rn=0, imm=0), Instr(Op.BCC, cond=77, imm=0), Instr(Op.HALT)]
        self._assert_parity(text, SimulatorError)


# ---------------------------------------------------------------------------
# decode cache
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_register_faults_do_not_need_invalidation(self):
        """The engine never value-specializes: flips mid-run stay exact."""
        rng = random.Random(99)
        text = random_program(rng, ARMV8, length=50)
        flips = [(10, 2, 7), (60, 0, 31), (200, 4, 3)]

        def run(use_engine):
            core = bare_core(ARMV8, use_engine=use_engine)
            core.text = list(text)
            executed = 0
            for stop, reg, bit in flips:
                core.run_burst(stop - executed)
                executed = stop
                core.regs.flip_bit(reg, bit)
            core.run_burst(300 - executed)
            return _state(core)

        assert run(True) == run(False)

    def test_new_text_at_the_same_base_is_decoded_afresh(self):
        """A checkpoint restore only assigns ``core.text``: the identity
        check in ``run_burst`` alone must switch to the new text."""
        core = bare_core(ARMV8)

        def run(text):
            core.text = text
            for _ in range(block_engine._COMPILE_THRESHOLD + 1):  # compiled by the last run
                core.pc = 0
                core.halted = False
                core.run(10)
            return core.regs.read(1)

        assert run([Instr(Op.MOVI, rd=1, imm=5), Instr(Op.HALT)]) == 5
        assert run([Instr(Op.MOVI, rd=1, imm=9), Instr(Op.HALT)]) == 9
        assert core._decoded.text is core.text

    def test_decode_cache_shared_and_bounded(self):
        info = block_engine.decode_cache_info()
        assert info["entries"] <= info["capacity"]
        text = [Instr(Op.NOP), Instr(Op.HALT)]
        a = bare_core(ARMV8)
        a.text = text
        a.run(5)
        b = bare_core(ARMV8)
        b.text = text
        b.run(5)
        assert a._decoded is b._decoded  # one decode per program per config


# ---------------------------------------------------------------------------
# full-system differential: both ISAs x modes x caches x trace hook
# ---------------------------------------------------------------------------

def _system_result(scenario, model_caches, engine, budget=300_000, trace=False):
    program = build_program(scenario.app, scenario.mode, scenario.isa)
    system = create_system(scenario, model_caches=model_caches, engine=engine)
    launch_scenario(system, scenario, program)
    trace_pcs = []
    if trace:
        hook = lambda core, pc: trace_pcs.append(pc)  # noqa: E731
        for core in system.cores:
            core.trace_hook = hook
    system.run(max_instructions=budget)
    return {
        "output": system.combined_output(),
        "state": system.architectural_state(),
        "stats": [core.stats.counters() for core in system.cores],
        "memory": system.memory_snapshot(),
        "total": system.total_instructions,
        "cache": system.cache_stats() if model_caches else None,
        "trace": trace_pcs,
    }


SYSTEM_CASES = [
    ("IS", "serial", 1, "armv8"),
    ("IS", "omp", 2, "armv8"),
    ("IS", "mpi", 2, "armv7"),
    ("MG", "serial", 1, "armv7"),
]


@pytest.mark.parametrize("app,mode,cores,isa", SYSTEM_CASES,
                         ids=[f"{a}-{m}-{c}-{i}" for a, m, c, i in SYSTEM_CASES])
@pytest.mark.parametrize("model_caches", [False, True], ids=["no-caches", "with-caches"])
def test_system_differential(app, mode, cores, isa, model_caches):
    scenario = Scenario(app, mode, cores, isa)
    engine_result = _system_result(scenario, model_caches, engine=True)
    interp_result = _system_result(scenario, model_caches, engine=False)
    assert engine_result == interp_result


def test_trace_hook_deopt_matches_interpreter():
    """A trace hook forces per-instruction execution with exact fetch PCs."""
    scenario = Scenario("IS", "serial", 1, "armv8")
    engine_result = _system_result(scenario, False, engine=True, trace=True)
    interp_result = _system_result(scenario, False, engine=False, trace=True)
    assert engine_result == interp_result
    assert len(engine_result["trace"]) == engine_result["total"]


# ---------------------------------------------------------------------------
# schedule-neutral pause (satellite): random stop points mid-superblock
# ---------------------------------------------------------------------------

PAUSE_CASES = [
    ("IS", "serial", 1, "armv7"),
    ("IS", "serial", 1, "armv8"),
    ("IS", "omp", 2, "armv7"),
    ("IS", "omp", 2, "armv8"),
    ("IS", "mpi", 2, "armv7"),
    ("IS", "mpi", 2, "armv8"),
]


@pytest.mark.parametrize("model_caches", [False, True], ids=["no-caches", "with-caches"])
@pytest.mark.parametrize("app,mode,cores,isa", PAUSE_CASES,
                         ids=[f"{m}-{i}" for _, m, _, i in PAUSE_CASES])
def test_pause_resume_schedule_neutral(app, mode, cores, isa, model_caches):
    scenario = Scenario(app, mode, cores, isa)
    program = build_program(app, mode, isa)

    def launch():
        system = create_system(scenario, model_caches=model_caches, engine=True)
        launch_scenario(system, scenario, program)
        return system

    def cache_state(system):
        if not model_caches:
            return None
        states = [
            (core.caches.l1i.dump_state(), core.caches.l1d.dump_state())
            for core in system.cores
        ]
        states.append(system.shared_l2.dump_state())
        return states

    straight = launch()
    assert straight.run() == "completed"
    total = straight.total_instructions

    rng = random.Random(hash((mode, isa)) & 0xFFFF)
    stops = sorted(rng.sample(range(1, total), 12))
    paused = launch()
    for stop in stops:
        assert paused.run(stop_at_instruction=stop) == "breakpoint"
        assert paused.total_instructions == stop  # exact, mid-superblock
    assert paused.run() == "completed"

    assert paused.total_instructions == total
    assert paused.combined_output() == straight.combined_output()
    assert paused.architectural_state() == straight.architectural_state()
    assert paused.memory_snapshot() == straight.memory_snapshot()
    assert [c.stats.counters() for c in paused.cores] == [
        c.stats.counters() for c in straight.cores
    ]
    assert cache_state(paused) == cache_state(straight)


# ---------------------------------------------------------------------------
# watchdog exactness (satellite): no overshoot at any boundary
# ---------------------------------------------------------------------------

WATCHDOG_CASES = [
    ("IS", "serial", 1, "armv8", 9_999),
    ("IS", "serial", 1, "armv8", 10_000),   # burst boundary
    ("IS", "serial", 1, "armv8", 10_001),
    ("IS", "omp", 4, "armv8", 20_007),      # multi-core, mid-burst
    ("IS", "mpi", 2, "armv7", 30_100),      # multi-core, burst boundary
]


@pytest.mark.parametrize("engine", [True, False], ids=["engine", "interp"])
@pytest.mark.parametrize("app,mode,cores,isa,limit", WATCHDOG_CASES,
                         ids=[f"{m}-{c}c-{n}" for _, m, c, _, n in WATCHDOG_CASES])
def test_watchdog_executed_exact(app, mode, cores, isa, limit, engine):
    scenario = Scenario(app, mode, cores, isa)
    program = build_program(app, mode, isa)
    system = create_system(scenario, model_caches=False, engine=engine)
    launch_scenario(system, scenario, program)
    with pytest.raises(WatchdogTimeout) as excinfo:
        system.run(max_instructions=limit)
    assert excinfo.value.executed == limit
    assert system.total_instructions == limit


def test_watchdog_overshoot_engine_matches_interpreter():
    """Both paths stop on the same instruction with the same state."""
    scenario = Scenario("IS", "omp", 4, "armv8")
    program = build_program("IS", "omp", "armv8")
    states = []
    for engine in (True, False):
        system = create_system(scenario, model_caches=False, engine=engine)
        launch_scenario(system, scenario, program)
        with pytest.raises(WatchdogTimeout):
            system.run(max_instructions=23_456)
        states.append(
            (system.total_instructions, system.architectural_state(),
             [c.stats.counters() for c in system.cores])
        )
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# slow-path micro-structure (satellite: table dispatch)
# ---------------------------------------------------------------------------

class TestDispatchTables:
    def test_dispatch_table_covers_every_opcode(self):
        from repro.cpu.core import _DISPATCH, _DISPATCH_TABLE
        for op in Op:
            assert _DISPATCH_TABLE[op] is _DISPATCH[op]

    def test_condition_table_matches_flag_semantics(self):
        core = bare_core(ARMV8, use_engine=False)
        for n in (False, True):
            for z in (False, True):
                for c in (False, True):
                    for v in (False, True):
                        core.flag_n, core.flag_z, core.flag_c, core.flag_v = n, z, c, v
                        assert core.condition_holds(Cond.EQ) == z
                        assert core.condition_holds(Cond.NE) == (not z)
                        assert core.condition_holds(Cond.LT) == (n != v)
                        assert core.condition_holds(Cond.GE) == (n == v)
                        assert core.condition_holds(Cond.GT) == ((not z) and n == v)
                        assert core.condition_holds(Cond.LE) == (z or n != v)
                        assert core.condition_holds(Cond.LO) == (not c)
                        assert core.condition_holds(Cond.HS) == c
                        assert core.condition_holds(Cond.MI) == n
                        assert core.condition_holds(Cond.PL) == (not n)
                        assert core.condition_holds(Cond.AL) is True

    def test_condition_table_rejects_unknown(self):
        core = bare_core(ARMV8, use_engine=False)
        with pytest.raises(SimulatorError):
            core.condition_holds(77)
        with pytest.raises(SimulatorError):
            core.condition_holds(None)


# ---------------------------------------------------------------------------
# fault parity on the compiled tier: every block compiles, faults included
# ---------------------------------------------------------------------------


class _UndefinedOp(int):
    pass


COMPILED_FAULT_PROGRAMS = {
    "undefined-opcode": [
        Instr(Op.MOVI, rd=2, imm=3), Instr(Op.NOP), Instr(_UndefinedOp(999)),
        Instr(Op.MOVI, rd=3, imm=1), Instr(Op.HALT),
    ],
    "bcc-unknown-condition": [
        Instr(Op.CMPI, rn=0, imm=0), Instr(Op.ADDI, rd=2, rn=2, imm=5),
        Instr(Op.BCC, cond=77, imm=0), Instr(Op.HALT),
    ],
    "cset-unknown-condition": [
        Instr(Op.CMPI, rn=0, imm=0), Instr(Op.ADDI, rd=2, rn=2, imm=5),
        Instr(Op.CSET, rd=3, cond=77), Instr(Op.MOVI, rd=4, imm=1), Instr(Op.HALT),
    ],
    "svc-without-handler": [
        Instr(Op.MOVI, rd=2, imm=1), Instr(Op.SVC, imm=3), Instr(Op.HALT),
    ],
    "unmapped-load-mid-block": [
        Instr(Op.MOVI, rd=2, imm=9), Instr(Op.MOVI, rd=3, imm=0x800000),
        Instr(Op.ADDI, rd=2, rn=2, imm=1), Instr(Op.LDR, rd=4, rn=3, imm=0),
        Instr(Op.MOVI, rd=5, imm=1), Instr(Op.HALT),
    ],
}


@pytest.mark.parametrize("budget", [50, 1], ids=["one-burst", "single-steps"])
@pytest.mark.parametrize("factory", [bare_core, cached_core], ids=["no-caches", "with-caches"])
@pytest.mark.parametrize("program", sorted(COMPILED_FAULT_PROGRAMS))
def test_compiled_tier_fault_parity(program, factory, budget, monkeypatch):
    """Faulting instructions compile to raising code that leaves exactly
    the interpreter's error, executed count, state and cache state —
    in fused blocks and in per-instruction code (a budget of 1 ends
    inside every block longer than one instruction)."""
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", 1)
    text = COMPILED_FAULT_PROGRAMS[program]
    ref_core, ref_executed, ref_error = _run_reference(list(text), ARMV8, 50, factory)
    core = factory(ARMV8, use_engine=True)
    core.text = list(text)
    eng_error = None
    try:
        while core.run_burst(budget) == budget:
            pass
    except Exception as exc:  # noqa: BLE001 — compared against the interpreter's
        eng_error = exc
    assert ref_error is not None
    assert type(eng_error) is type(ref_error)
    assert str(eng_error) == str(ref_error)
    assert core.stats.instructions == ref_executed
    assert _full_state(core) == _full_state(ref_core)
    entered = [block for block in core._decoded.entries if block.hits]
    assert entered or budget == 1
    assert all(block.compiled is not None for block in entered)

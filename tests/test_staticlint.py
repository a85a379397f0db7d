"""Unit tests for the static vulnerability analysis package.

CFG construction on pathological shapes, backward liveness against
hand-computed programs (including call summaries and flag dataflow),
and the ACE-fraction / variable-rank layer on both synthetic and real
linked programs.
"""

import pytest

from repro.isa.arch import ARMV8
from repro.isa.instructions import Cond, Instr, Op
from repro.isa.program import Program
from repro.npb.suite import build_program
from repro.staticlint import (
    analyze_liveness,
    build_cfg,
    build_function_cfg,
    build_program_cfg,
    register_ace_fractions,
    top_variables,
    variable_ranks,
)


def program(instrs, ranges=None, arch=ARMV8):
    return Program(
        arch=arch,
        instructions=list(instrs),
        function_ranges=ranges or {"main": (0, len(instrs))},
    )


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class TestCfgShapes:
    def test_empty_range(self):
        cfg = build_cfg([])
        assert cfg.blocks == {}
        assert cfg.reachable_from() == set()

    def test_straight_line_is_one_block(self):
        cfg = build_cfg([Instr(Op.MOVI, rd=1, imm=1), Instr(Op.ADD, rd=2, rn=1, rm=1), Instr(Op.HALT)])
        assert list(cfg.blocks) == [0]
        block = cfg.blocks[0]
        assert (block.start, block.end, block.successors) == (0, 3, ())

    def test_self_loop(self):
        # 0: B 0  — a block that is its own successor and predecessor
        cfg = build_cfg([Instr(Op.B, imm=0)])
        assert cfg.blocks[0].successors == (0,)
        assert cfg.predecessors[0] == (0,)
        assert cfg.reachable_from() == {0}

    def test_fallthrough_into_branch_target(self):
        # 0: MOVI; 1: MOVI (leader: branch target); 2: CBNZ -> 1; 3: HALT
        instrs = [
            Instr(Op.MOVI, rd=1, imm=1),
            Instr(Op.MOVI, rd=2, imm=2),
            Instr(Op.CBNZ, rn=2, imm=1),
            Instr(Op.HALT),
        ]
        cfg = build_cfg(instrs)
        assert sorted(cfg.blocks) == [0, 1, 3]
        # block 0 falls through into the branch target's block
        assert cfg.blocks[0].successors == (1,)
        assert cfg.blocks[1].successors == (1, 3)
        assert set(cfg.predecessors[1]) == {0, 1}

    def test_unreachable_after_halt(self):
        instrs = [
            Instr(Op.MOVI, rd=1, imm=1),
            Instr(Op.HALT),
            Instr(Op.MOVI, rd=2, imm=2),  # dead code
            Instr(Op.HALT),
        ]
        cfg = build_cfg(instrs)
        assert sorted(cfg.blocks) == [0, 2]
        assert cfg.blocks[0].successors == ()
        assert cfg.predecessors[2] == ()
        assert cfg.reachable_from() == {0}

    def test_conditional_successor_order_is_target_then_fallthrough(self):
        instrs = [Instr(Op.BCC, cond=Cond.NE, imm=2), Instr(Op.NOP), Instr(Op.HALT)]
        cfg = build_cfg(instrs)
        assert cfg.blocks[0].successors == (2, 1)

    def test_out_of_range_target_is_dropped(self):
        # a function-range CFG whose branch leaves the range
        instrs = [Instr(Op.NOP), Instr(Op.B, imm=5), Instr(Op.NOP)]
        cfg = build_cfg(instrs, start=0, end=2)
        assert cfg.blocks[0].successors == ()

    def test_calls_fall_through(self):
        instrs = [Instr(Op.BL, imm=3), Instr(Op.SVC, imm=1), Instr(Op.HALT), Instr(Op.RET)]
        cfg = build_cfg(instrs)
        assert cfg.blocks[0].successors == (1,)  # BL: fallthrough only, no callee edge
        assert cfg.blocks[1].successors == (2,)  # SVC falls through
        assert cfg.blocks[3].successors == ()  # RET is an exit

    def test_block_of_and_terminator(self):
        instrs = [Instr(Op.NOP), Instr(Op.B, imm=0), Instr(Op.HALT)]
        cfg = build_cfg(instrs)
        assert cfg.block_of(1).start == 0
        assert cfg.block_of(1).terminator_index == 1
        with pytest.raises(KeyError):
            build_cfg(instrs, start=0, end=2).block_of(2)

    def test_function_cfg_unknown_function(self):
        with pytest.raises(KeyError):
            build_function_cfg(program([Instr(Op.HALT)]), "nope")


@pytest.mark.parametrize("app,mode", [("IS", "serial"), ("IS", "omp"), ("CG", "serial")])
def test_cross_isa_block_boundary_agreement(app, mode):
    """Same source, same control structure: the *branch* shape of every
    function must agree between the two ISA backends.  Raw block counts
    may differ (armv7 lowers FP ops into ``BL __sf_*`` calls, and calls
    end blocks), so compare the number of jump-terminated blocks — the
    actual control-flow decisions — which codegen never changes."""

    def jump_shape(prog, name):
        cfg = build_function_cfg(prog, name)
        return sum(
            1
            for block in cfg.blocks.values()
            if prog.instructions[block.terminator_index].op
            in (Op.B, Op.BCC, Op.CBZ, Op.CBNZ)
        )

    shapes = {}
    for isa in ("armv7", "armv8"):
        prog = build_program(app, mode, isa, None)
        shapes[isa] = {
            name: jump_shape(prog, name)
            for name in prog.function_ranges
            # the armv7 softfloat library only exists on one ISA
            if not name.startswith("__sf_")
        }
    common = set(shapes["armv7"]) & set(shapes["armv8"])
    assert common  # the application functions exist on both
    for name in sorted(common):
        assert shapes["armv7"][name] == shapes["armv8"][name], name


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


class TestLiveness:
    def test_straight_line_def_use(self):
        prog = program([
            Instr(Op.MOVI, rd=20, imm=5),
            Instr(Op.MOVI, rd=21, imm=7),
            Instr(Op.ADD, rd=22, rn=20, rm=21),
            Instr(Op.HALT),
        ])
        live = analyze_liveness(prog)
        assert not live.gpr_live(0, 20)  # defined here, dead before
        assert live.gpr_live(1, 20)
        assert live.gpr_live(2, 20) and live.gpr_live(2, 21)
        assert not live.gpr_live(3, 22)  # result never used; HALT ends all

    def test_loop_keeps_counter_live(self):
        prog = program([
            Instr(Op.MOVI, rd=20, imm=10),
            Instr(Op.SUBI, rd=20, rn=20, imm=1),
            Instr(Op.CBNZ, rn=20, imm=1),
            Instr(Op.HALT),
        ])
        live = analyze_liveness(prog)
        assert not live.gpr_live(0, 20)
        assert live.gpr_live(1, 20)  # used by the SUBI and around the back edge
        assert live.gpr_live(2, 20)

    def test_flag_dataflow_through_tst(self):
        # CMP defines NZCV; TST redefines N/Z but preserves C/V; the
        # LO branch consumes C — so C must stay live *across* the TST.
        prog = program([
            Instr(Op.CMP, rn=20, rm=21),
            Instr(Op.TST, rn=20, rm=22),
            Instr(Op.BCC, cond=Cond.LO, imm=4),
            Instr(Op.NOP),
            Instr(Op.HALT),
        ])
        live = analyze_liveness(prog)
        assert live.flag_live(1, "C") and live.flag_live(2, "C")
        assert not live.flag_live(0, "C")  # CMP defines it
        assert not live.flag_live(2, "N")  # LO never reads N

    def test_call_summary_uses_only_consumed_args(self):
        # main: MOVI r0; BL callee; ADD r20, r0, r0; HALT
        # callee: ADDI r0, r0, 1; RET
        abi = ARMV8.abi
        prog = program(
            [
                Instr(Op.MOVI, rd=0, imm=1),
                Instr(Op.BL, imm=4),
                Instr(Op.ADD, rd=20, rn=0, rm=0),
                Instr(Op.HALT),
                Instr(Op.ADDI, rd=0, rn=0, imm=1),
                Instr(Op.RET),
            ],
            ranges={"main": (0, 4), "callee": (4, 6)},
        )
        live = analyze_liveness(prog)
        assert live.gpr_live(1, 0)  # the callee consumes its argument
        assert not live.gpr_live(0, 0)  # defined at 0
        # r1 is an ABI argument register, but this callee never reads it:
        # the interprocedural summary must NOT mark it live at the call.
        assert not live.gpr_live(1, 1)
        # lr is defined by the BL and consumed by the callee's RET
        assert live.gpr_live(4, abi.lr)

    def test_indirect_call_is_conservative(self):
        prog = program([
            Instr(Op.MOVI, rd=9, imm=0),
            Instr(Op.BLR, rn=9),
            Instr(Op.HALT),
        ])
        live = analyze_liveness(prog)
        for arg in ARMV8.abi.arg_regs:
            assert live.gpr_live(1, arg), f"arg r{arg} must be live at an indirect call"

    def test_fp_liveness(self):
        prog = program([
            Instr(Op.FMOVI, rd=8, imm=0x3FF0000000000000),
            Instr(Op.FADD, rd=9, rn=8, rm=8),
            Instr(Op.HALT),
        ])
        live = analyze_liveness(prog)
        assert live.fpr_live(1, 8)
        assert not live.fpr_live(0, 8)
        assert not live.fpr_live(2, 9)

    def test_return_boundary_keeps_ret_value_live(self):
        abi = ARMV8.abi
        prog = program([
            Instr(Op.MOVI, rd=abi.ret_reg, imm=42),
            Instr(Op.RET),
        ])
        live = analyze_liveness(prog)
        assert live.gpr_live(1, abi.ret_reg)

    def test_works_on_real_programs(self):
        for isa in ("armv7", "armv8"):
            prog = build_program("IS", "serial", isa, None)
            live = analyze_liveness(prog)
            assert len(live.live_in) == len(prog.instructions)
            counts = [live.live_gpr_count(i) for i in range(len(prog.instructions))]
            assert max(counts) <= prog.arch.num_gpr
            assert max(counts) > 0


# ---------------------------------------------------------------------------
# ACE fractions and variable ranks
# ---------------------------------------------------------------------------


class TestAce:
    def _toy(self):
        return program([
            Instr(Op.MOVI, rd=20, imm=5),
            Instr(Op.MOVI, rd=21, imm=7),
            Instr(Op.ADD, rd=22, rn=20, rm=21),
            Instr(Op.HALT),
        ])

    def test_uniform_fractions(self):
        gpr, _fpr, total = register_ace_fractions(self._toy())
        assert total == 4
        assert gpr[20] == pytest.approx(2 / 4)  # live at indices 1 and 2
        assert gpr[21] == pytest.approx(1 / 4)  # live at index 2 only
        assert gpr[22] == 0.0

    def test_weighted_fractions(self):
        weights = {0: 1, 1: 1, 2: 98}  # index 3 unexecuted
        gpr, _fpr, total = register_ace_fractions(self._toy(), weights=weights)
        assert total == 100
        assert gpr[20] == pytest.approx(0.99)
        assert gpr[21] == pytest.approx(0.98)

    def test_variable_ranks_and_top(self):
        prog = self._toy()
        prog.variable_homes = {"main": {"a": ("reg", 20), "b": ("reg", 21), "s": ("stack", 0)}}
        ranks = variable_ranks(prog)
        assert ranks["main"]["a"] == 2.0
        assert ranks["main"]["b"] == 1.0
        assert ranks["main"]["s"] == 0.0  # stack-homed: register faults can't hit it
        assert top_variables(ranks, 2) == {"main": ("a", "b")}
        assert top_variables(ranks, 1) == {"main": ("a",)}

    def test_top_variables_tie_break_is_alphabetical(self):
        ranks = {"f": {"z": 1.0, "a": 1.0, "m": 1.0}}
        assert top_variables(ranks, 2) == {"f": ("a", "m")}

    def test_real_program_ranks_are_deterministic(self):
        prog = build_program("IS", "serial", "armv8", None)
        first = variable_ranks(prog)
        second = variable_ranks(prog)
        assert first == second
        assert any(score > 0 for scores in first.values() for score in scores.values())


def test_program_cfg_covers_all_text():
    prog = build_program("IS", "serial", "armv8", None)
    cfg = build_program_cfg(prog)
    covered = sorted(
        index for block in cfg.blocks.values() for index in range(block.start, block.end)
    )
    assert covered == list(range(len(prog.instructions)))

"""Cross-cutting property-based tests on core invariants.

These complement the per-module unit tests with invariants that must
hold for arbitrary inputs: classification totals, mismatch symmetry,
register-file bit flips, encoding determinism, fault-model bounds and
hardening-transform semantics preservation on random MiniC modules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import alu
from repro.injection.classify import (
    OUTCOME_ORDER,
    mismatch,
    outcome_percentages,
    rate_pct,
    total_mismatch,
)
from repro.injection.fault import FaultModel
from repro.isa.arch import ARMV7, ARMV8
from repro.isa.encoding import encode
from repro.isa.instructions import Instr, Op
from repro.isa.registers import RegisterFile
from repro.mining.correlation import pearson, spearman
from repro.mining.dataset import Dataset

outcome_counts = st.fixed_dictionaries(
    {outcome.value: st.integers(min_value=0, max_value=10_000) for outcome in OUTCOME_ORDER}
)


class TestClassificationProperties:
    @given(outcome_counts)
    def test_percentages_sum_to_100_or_0(self, counts):
        pct = outcome_percentages(counts)
        total = sum(pct.values())
        if sum(counts.values()) == 0:
            assert total == 0.0
        else:
            assert total == pytest.approx(100.0)

    @given(outcome_counts)
    def test_masking_rate_bounded(self, counts):
        assert 0.0 <= rate_pct(counts, "masked") <= 100.0

    @given(outcome_counts, outcome_counts)
    def test_mismatch_antisymmetric(self, a, b):
        pa, pb = outcome_percentages(a), outcome_percentages(b)
        forward = mismatch(pa, pb)
        backward = mismatch(pb, pa)
        for key in forward:
            assert forward[key] == pytest.approx(-backward[key])
        assert total_mismatch(pa, pb) == pytest.approx(total_mismatch(pb, pa))

    @given(outcome_counts)
    def test_mismatch_with_self_is_zero(self, counts):
        pct = outcome_percentages(counts)
        assert total_mismatch(pct, pct) == pytest.approx(0.0)


class TestRegisterFileProperties:
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_double_flip_is_identity(self, reg, bit, value):
        regs = RegisterFile(ARMV7)
        regs.write(reg, value)
        regs.flip_bit(reg, bit)
        regs.flip_bit(reg, bit)
        assert regs.read(reg) == value

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_flip_changes_exactly_one_bit(self, reg, bit, value):
        regs = RegisterFile(ARMV8)
        regs.write(reg, value)
        regs.flip_bit(reg, bit)
        assert regs.read(reg) ^ value == 1 << bit


class TestEncodingProperties:
    ops = st.sampled_from([Op.ADD, Op.SUB, Op.LDR, Op.STR, Op.MOVI, Op.BL, Op.FADD, Op.SVC])

    @given(ops, st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=31),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_encoding_fits_32_bits_and_is_deterministic(self, op, rd, rn, imm):
        a = encode(Instr(op, rd=rd, rn=rn, imm=imm))
        b = encode(Instr(op, rd=rd, rn=rn, imm=imm))
        assert a == b
        assert 0 <= a < 2**32

    @given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=0xFFFF))
    def test_different_immediates_differ(self, imm_a, imm_b):
        if imm_a == imm_b:
            return
        a = encode(Instr(Op.MOVI, rd=1, imm=imm_a))
        b = encode(Instr(Op.MOVI, rd=1, imm=imm_b))
        assert a != b


class TestAluProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**32 - 1))
    def test_add_sub_roundtrip(self, a, b):
        total, *_ = alu.add_flags(a, b, 32)
        back, *_ = alu.sub_flags(total, b, 32)
        assert back == a

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=2**32 - 1))
    def test_division_remainder_identity(self, a, b):
        quotient = alu.unsigned_divide(a, b, 32)
        assert quotient * b <= a < (quotient + 1) * b


class TestFaultModelProperties:
    @given(st.integers(min_value=100, max_value=1_000_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=25)
    def test_generated_faults_within_lifespan(self, total, count):
        faults = FaultModel("armv8", cores=4, seed=3).generate(total, count)
        assert len(faults) == count
        assert all(1 <= fault.injection_time < total for fault in faults)
        assert all(0 <= fault.core_id < 4 for fault in faults)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25)
    def test_seed_determinism(self, seed):
        a = FaultModel("armv7", cores=2, seed=seed).generate(10_000, 20)
        b = FaultModel("armv7", cores=2, seed=seed).generate(10_000, 20)
        assert a == b


class TestCorrelationProperties:
    vectors = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=40)

    @given(vectors)
    def test_self_correlation_is_one_or_zero(self, xs):
        value = pearson(xs, xs)
        assert value == pytest.approx(1.0) or value == 0.0  # 0.0 when variance degenerates

    @given(vectors)
    def test_correlation_bounded(self, xs):
        ys = list(reversed(xs))
        for func in (pearson, spearman):
            value = func(xs, ys)
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @given(vectors, st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=-50.0, max_value=50.0))
    def test_pearson_invariant_to_affine_transform(self, xs, scale, shift):
        from hypothesis import assume

        mean = sum(xs) / len(xs)
        variance = sum((x - mean) ** 2 for x in xs) / len(xs)
        assume(variance > 1e-3)  # skip numerically degenerate series
        ys = [scale * x + shift for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-6)


_MINIC_VARS = ("a", "b", "c")
_MINIC_OPS = ("+", "-", "*", "&", "|", "^")


def _minic_expr(depth: int):
    """Random pure integer expression over the fixed variable set."""
    from repro.compiler import ast as mc

    leaf = st.one_of(
        st.integers(min_value=-40, max_value=40).map(mc.const),
        st.sampled_from(_MINIC_VARS).map(lambda name: mc.var(name)),
    )
    if depth <= 0:
        return leaf
    sub = _minic_expr(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(_MINIC_OPS), sub, sub).map(lambda t: mc.BinOp(t[0], t[1], t[2])),
    )


def _minic_cond():
    from repro.compiler import ast as mc

    return st.tuples(
        st.sampled_from(("==", "!=", "<", "<=", ">", ">=")), _minic_expr(1), _minic_expr(1)
    ).map(lambda t: mc.BinOp(t[0], t[1], t[2]))


def _minic_stmts(depth: int, in_loop: bool):
    from repro.compiler import ast as mc

    assign_stmt = st.tuples(st.sampled_from(_MINIC_VARS), _minic_expr(2)).map(
        lambda t: mc.assign(t[0], t[1])
    )
    print_stmt = _minic_expr(2).map(lambda e: mc.ExprStmt(mc.call("print_int", e, type=mc.VOID)))
    options = [assign_stmt, print_stmt]
    if in_loop:
        # jumps guarded by a condition so loops stay interesting
        options.append(
            st.tuples(_minic_cond(), st.booleans()).map(
                lambda t: mc.If(t[0], [mc.Break() if t[1] else mc.Continue()])
            )
        )
    if depth > 0:
        inner = _minic_stmts(depth - 1, in_loop)
        options.append(st.tuples(_minic_cond(), inner, inner).map(lambda t: mc.If(t[0], t[1], t[2])))
        # one counter variable per nesting depth: a nested loop reusing
        # the outer counter could reset it and never terminate
        options.append(
            st.tuples(st.integers(min_value=1, max_value=5), _minic_stmts(depth - 1, True)).map(
                lambda t, d=depth: mc.For(f"i{d}", mc.const(0), mc.const(t[0]), t[1])
            )
        )
    return st.lists(st.one_of(options), min_size=1, max_size=4)


def _minic_module():
    """Random MiniC module: assignments, prints, ifs and counted loops."""
    from repro.compiler import ast as mc

    def build(stmts):
        body = [mc.assign(name, mc.const(index + 1)) for index, name in enumerate(_MINIC_VARS)]
        body += stmts
        body.append(mc.ExprStmt(mc.call("print_int", mc.var("a"), type=mc.VOID)))
        body.append(mc.Return(mc.const(0)))
        main = mc.Function(
            name="main",
            params=[("rank", mc.INT)],
            locals=[(name, mc.INT) for name in _MINIC_VARS]
            + [(f"i{depth}", mc.INT) for depth in (1, 2)],
            body=body,
            return_type=mc.INT,
        )
        return mc.Module("prop", [main])

    return _minic_stmts(2, False).map(build)


class TestHardeningProperties:
    """``harden_module`` on arbitrary MiniC modules (satellite of the
    software-hardening subsystem): fault-free semantics preservation on
    both ISAs and determinism of the optimise+harden pipeline."""

    @staticmethod
    def _run(program, arch) -> str:
        from repro.soc.multicore import build_system

        system = build_system(arch.name, cores=1)
        system.load_process(program, name="prop")
        system.run(max_instructions=2_000_000)
        process = system.kernel.processes[0]
        assert process.state.value == "exited", system.kernel.process_summary()
        return process.output_text()

    @given(module=_minic_module(), scheme=st.sampled_from(["dwc", "cfc", "dwc+cfc"]))
    @settings(max_examples=8, deadline=None)
    def test_harden_module_preserves_fault_free_semantics(self, module, scheme):
        from repro.compiler.linker import link
        from repro.isa.arch import ARMV7, ARMV8

        for arch in (ARMV7, ARMV8):
            baseline = link([module], arch, name="prop")
            hardened = link([module], arch, name="prop", hardening=scheme)
            assert self._run(hardened, arch) == self._run(baseline, arch)
            assert len(hardened.instructions) > len(baseline.instructions)

    @given(module=_minic_module())
    @settings(max_examples=8, deadline=None)
    def test_optimize_then_harden_is_deterministic(self, module):
        from repro.compiler.optimizer import optimize_module
        from repro.hardening import harden_module

        once = harden_module(optimize_module(module), "dwc+cfc")
        twice = harden_module(optimize_module(module), "dwc+cfc")
        assert repr(once.functions) == repr(twice.functions)
        assert repr(once.globals) == repr(twice.globals)


class TestDatasetProperties:
    records = st.lists(
        st.fixed_dictionaries({"group": st.sampled_from(["a", "b", "c"]), "value": st.integers(-100, 100)}),
        min_size=1,
        max_size=50,
    )

    @given(records)
    def test_group_by_partitions_records(self, rows):
        data = Dataset(rows)
        groups = data.group_by("group")
        assert sum(len(group) for group in groups.values()) == len(data)

    @given(records)
    def test_filter_is_subset(self, rows):
        data = Dataset(rows)
        subset = data.filter_equal(group="a")
        assert len(subset) <= len(data)
        assert all(record["group"] == "a" for record in subset)

"""Unit and property tests for the ALU and FPU helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import alu, fpu

WORD32 = st.integers(min_value=0, max_value=2**32 - 1)
WORD64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestSignedConversion:
    @pytest.mark.parametrize("value,xlen,expected", [
        (0, 32, 0),
        (1, 32, 1),
        (0xFFFFFFFF, 32, -1),
        (0x80000000, 32, -(1 << 31)),
        (0x7FFFFFFF, 32, (1 << 31) - 1),
        (0xFFFFFFFFFFFFFFFF, 64, -1),
    ])
    def test_to_signed(self, value, xlen, expected):
        assert alu.to_signed(value, xlen) == expected

    @given(WORD32)
    def test_roundtrip_32(self, value):
        assert alu.to_unsigned(alu.to_signed(value, 32), 32) == value

    @given(WORD64)
    def test_roundtrip_64(self, value):
        assert alu.to_unsigned(alu.to_signed(value, 64), 64) == value


class TestFlags:
    @given(WORD32, WORD32)
    @settings(max_examples=200)
    def test_add_flags_match_semantics(self, a, b):
        result, n, z, c, v = alu.add_flags(a, b, 32)
        assert result == (a + b) & 0xFFFFFFFF
        assert z == (result == 0)
        assert n == bool(result >> 31)
        assert c == (a + b > 0xFFFFFFFF)
        signed = alu.to_signed(a, 32) + alu.to_signed(b, 32)
        assert v == (not (-(1 << 31) <= signed < (1 << 31)))

    @given(WORD32, WORD32)
    @settings(max_examples=200)
    def test_sub_flags_match_semantics(self, a, b):
        result, n, z, c, v = alu.sub_flags(a, b, 32)
        assert result == (a - b) & 0xFFFFFFFF
        assert c == (a >= b)
        signed = alu.to_signed(a, 32) - alu.to_signed(b, 32)
        assert v == (not (-(1 << 31) <= signed < (1 << 31)))

    def test_cmp_equal_sets_zero(self):
        _, n, z, c, v = alu.sub_flags(42, 42, 32)
        assert z and c and not n and not v


class TestDivision:
    @pytest.mark.parametrize("a,b,expected", [
        (10, 3, 3),
        (7, 7, 1),
        ((-7) & 0xFFFFFFFF, 2, (-3) & 0xFFFFFFFF),
        (7, (-2) & 0xFFFFFFFF, (-3) & 0xFFFFFFFF),
        ((-7) & 0xFFFFFFFF, (-2) & 0xFFFFFFFF, 3),
    ])
    def test_signed_divide_truncates_toward_zero(self, a, b, expected):
        assert alu.signed_divide(a, b, 32) == expected

    def test_divide_by_zero_returns_zero(self):
        # ARM semantics: SDIV/UDIV by zero yield 0 rather than trapping.
        assert alu.signed_divide(123, 0, 32) == 0
        assert alu.unsigned_divide(123, 0, 32) == 0

    @given(WORD32, st.integers(min_value=1, max_value=2**32 - 1))
    def test_unsigned_divide(self, a, b):
        assert alu.unsigned_divide(a, b, 32) == a // b


class TestShiftsAndMultiply:
    @given(WORD32, WORD32)
    def test_multiply_high_unsigned(self, a, b):
        assert alu.multiply_high_unsigned(a, b, 32) == ((a * b) >> 32) & 0xFFFFFFFF

    @pytest.mark.parametrize("value,amount,expected", [
        (0x80000000, 1, 0xC0000000),
        (0x80000000, 31, 0xFFFFFFFF),
        (0x40000000, 2, 0x10000000),
        (0xFFFFFFFF, 4, 0xFFFFFFFF),
    ])
    def test_arithmetic_shift_right(self, value, amount, expected):
        assert alu.arithmetic_shift_right(value, amount, 32) == expected


class TestFpuBitConversions:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_double_roundtrip(self, value):
        assert fpu.bits_to_double(fpu.double_to_bits(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_single_roundtrip(self, value):
        assert fpu.bits_to_single(fpu.single_to_bits(value)) == value

    def test_known_bit_patterns(self):
        assert fpu.double_to_bits(1.0) == 0x3FF0000000000000
        assert fpu.single_to_bits(1.0) == 0x3F800000


class TestFpuOperations:
    def test_binary_operations(self):
        assert fpu.fp_binary("add", 1.5, 2.5) == 4.0
        assert fpu.fp_binary("sub", 1.5, 2.5) == -1.0
        assert fpu.fp_binary("mul", 3.0, 2.0) == 6.0
        assert fpu.fp_binary("div", 7.0, 2.0) == 3.5
        assert fpu.fp_binary("min", 1.0, 2.0) == 1.0
        assert fpu.fp_binary("max", 1.0, 2.0) == 2.0

    def test_divide_special_cases(self):
        assert math.isinf(fpu.fp_binary("div", 1.0, 0.0))
        assert math.isnan(fpu.fp_binary("div", 0.0, 0.0))

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            fpu.fp_binary("pow", 1.0, 2.0)

    def test_sqrt(self):
        assert fpu.fp_sqrt(9.0) == 3.0
        assert math.isnan(fpu.fp_sqrt(-1.0))

    def test_compare_flags(self):
        assert fpu.fp_compare(1.0, 1.0) == (False, True, True, False)
        assert fpu.fp_compare(1.0, 2.0) == (True, False, False, False)
        assert fpu.fp_compare(3.0, 2.0) == (False, False, True, False)
        assert fpu.fp_compare(float("nan"), 2.0) == (False, False, True, True)

    @pytest.mark.parametrize("value,xlen,expected", [
        (1.9, 32, 1),
        (-1.9, 32, (-1) & 0xFFFFFFFF),
        (float("nan"), 32, 0),
        (1e30, 32, (1 << 31) - 1),
        (-1e30, 32, 1 << 31),
    ])
    def test_float_to_int_saturates(self, value, xlen, expected):
        assert fpu.float_to_int(value, xlen) == expected

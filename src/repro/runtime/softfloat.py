"""Guest software floating point library (single precision).

The v7 code generator lowers every floating point operation to a call
into this library, which is itself MiniC code compiled to integer
instructions — mirroring how GCC emits calls to ``__aeabi_fadd`` and
friends for ARMv7 targets without (or not using) a hardware FPU.  This
is the main source of the large ARMv7 instruction-count inflation the
paper reports (Table 1).

The implementation uses flush-to-zero semantics and truncating
rounding: results may differ from IEEE-754 by an ulp or two, which is
irrelevant for the fault-injection methodology because every scenario
is compared against its own golden run.
"""

from __future__ import annotations

from repro.compiler import ast
from repro.compiler.ast import (
    Function,
    If,
    IntConst,
    Module,
    Return,
    Var,
    While,
    assign,
    call,
    var,
)

INT = ast.INT

_SIGN_MASK = 0x8000_0000
_ABS_MASK = 0x7FFF_FFFF
_EXP_MASK = 0xFF
_MAN_MASK = 0x007F_FFFF
_IMPLICIT_BIT = 0x0080_0000
_INF_BITS = 0x7F80_0000
_NAN_BITS = 0x7FC0_0000


def _i(value: int) -> IntConst:
    return IntConst(value)


def _v(name: str) -> Var:
    return var(name, INT)


def _band(a, b):
    return ast.BinOp("&", a, b)


def _bor(a, b):
    return ast.BinOp("|", a, b)


def _shr(a, amount):
    return ast.BinOp(">>", a, _i(amount) if isinstance(amount, int) else amount)


def _shl(a, amount):
    return ast.BinOp("<<", a, _i(amount) if isinstance(amount, int) else amount)


def _sf_add() -> Function:
    """Single precision addition on raw bit patterns."""
    body = [
        If(ast.eq(_band(_v("a"), _i(_ABS_MASK)), _i(0)), [Return(_v("b"))]),
        If(ast.eq(_band(_v("b"), _i(_ABS_MASK)), _i(0)), [Return(_v("a"))]),
        assign("sa", _band(_shr(_v("a"), 31), _i(1))),
        assign("sb", _band(_shr(_v("b"), 31), _i(1))),
        assign("ea", _band(_shr(_v("a"), 23), _i(_EXP_MASK))),
        assign("eb", _band(_shr(_v("b"), 23), _i(_EXP_MASK))),
        assign("ma", _band(_v("a"), _i(_MAN_MASK))),
        assign("mb", _band(_v("b"), _i(_MAN_MASK))),
        If(ast.eq(_v("ea"), _i(255)), [Return(_v("a"))]),
        If(ast.eq(_v("eb"), _i(255)), [Return(_v("b"))]),
        If(ast.ne(_v("ea"), _i(0)), [assign("ma", _bor(_v("ma"), _i(_IMPLICIT_BIT)))], [assign("ea", _i(1))]),
        If(ast.ne(_v("eb"), _i(0)), [assign("mb", _bor(_v("mb"), _i(_IMPLICIT_BIT)))], [assign("eb", _i(1))]),
        # three guard bits of headroom
        assign("ma", _shl(_v("ma"), 3)),
        assign("mb", _shl(_v("mb"), 3)),
        If(
            ast.ge(_v("ea"), _v("eb")),
            [
                assign("diff", ast.sub(_v("ea"), _v("eb"))),
                If(ast.gt(_v("diff"), _i(30)), [assign("diff", _i(30))]),
                assign("mb", ast.BinOp(">>", _v("mb"), _v("diff"))),
                assign("e", _v("ea")),
            ],
            [
                assign("diff", ast.sub(_v("eb"), _v("ea"))),
                If(ast.gt(_v("diff"), _i(30)), [assign("diff", _i(30))]),
                assign("ma", ast.BinOp(">>", _v("ma"), _v("diff"))),
                assign("e", _v("eb")),
            ],
        ),
        If(
            ast.eq(_v("sa"), _v("sb")),
            [assign("m", ast.add(_v("ma"), _v("mb"))), assign("s", _v("sa"))],
            [
                If(
                    ast.ge(_v("ma"), _v("mb")),
                    [assign("m", ast.sub(_v("ma"), _v("mb"))), assign("s", _v("sa"))],
                    [assign("m", ast.sub(_v("mb"), _v("ma"))), assign("s", _v("sb"))],
                )
            ],
        ),
        If(ast.eq(_v("m"), _i(0)), [Return(_i(0))]),
        While(ast.ge(_v("m"), _i(1 << 27)), [assign("m", _shr(_v("m"), 1)), assign("e", ast.add(_v("e"), _i(1)))]),
        While(ast.lt(_v("m"), _i(1 << 26)), [assign("m", _shl(_v("m"), 1)), assign("e", ast.sub(_v("e"), _i(1)))]),
        assign("m", _band(_shr(_v("m"), 3), _i(_MAN_MASK))),
        If(ast.ge(_v("e"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.le(_v("e"), _i(0)), [Return(_shl(_v("s"), 31))]),
        Return(_bor(_bor(_shl(_v("s"), 31), _shl(_v("e"), 23)), _v("m"))),
    ]
    return Function(
        name="__sf_add",
        params=[("a", INT), ("b", INT)],
        locals=[
            ("sa", INT), ("sb", INT), ("ea", INT), ("eb", INT), ("ma", INT), ("mb", INT),
            ("diff", INT), ("e", INT), ("m", INT), ("s", INT),
        ],
        body=body,
        return_type=INT,
    )


def _sf_sub() -> Function:
    """a - b implemented as a + (-b)."""
    return Function(
        name="__sf_sub",
        params=[("a", INT), ("b", INT)],
        locals=[],
        body=[Return(call("__sf_add", _v("a"), ast.BinOp("^", _v("b"), _i(_SIGN_MASK))))],
        return_type=INT,
    )


def _sf_mul() -> Function:
    body = [
        assign("s", ast.BinOp("^", _band(_shr(_v("a"), 31), _i(1)), _band(_shr(_v("b"), 31), _i(1)))),
        If(ast.eq(_band(_v("a"), _i(_ABS_MASK)), _i(0)), [Return(_shl(_v("s"), 31))]),
        If(ast.eq(_band(_v("b"), _i(_ABS_MASK)), _i(0)), [Return(_shl(_v("s"), 31))]),
        assign("ea", _band(_shr(_v("a"), 23), _i(_EXP_MASK))),
        assign("eb", _band(_shr(_v("b"), 23), _i(_EXP_MASK))),
        If(ast.eq(_v("ea"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.eq(_v("eb"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.eq(_v("ea"), _i(0)), [Return(_shl(_v("s"), 31))]),
        If(ast.eq(_v("eb"), _i(0)), [Return(_shl(_v("s"), 31))]),
        assign("ma", _bor(_band(_v("a"), _i(_MAN_MASK)), _i(_IMPLICIT_BIT))),
        assign("mb", _bor(_band(_v("b"), _i(_MAN_MASK)), _i(_IMPLICIT_BIT))),
        assign("e", ast.sub(ast.add(_v("ea"), _v("eb")), _i(127))),
        # 24x24 -> 48 bit product assembled from 12-bit halves
        assign("ah", _shr(_v("ma"), 12)),
        assign("al", _band(_v("ma"), _i(0xFFF))),
        assign("bh", _shr(_v("mb"), 12)),
        assign("bl", _band(_v("mb"), _i(0xFFF))),
        assign("hi", ast.mul(_v("ah"), _v("bh"))),
        assign("mid", ast.add(ast.mul(_v("ah"), _v("bl")), ast.mul(_v("al"), _v("bh")))),
        assign("lo", ast.mul(_v("al"), _v("bl"))),
        # top 25 bits of the product (truncating)
        assign("m", ast.add(ast.add(_shl(_v("hi"), 1), _shr(_v("mid"), 11)), _shr(_v("lo"), 23))),
        If(
            ast.ge(_v("m"), _i(1 << 24)),
            [assign("m", _shr(_v("m"), 1)), assign("e", ast.add(_v("e"), _i(1)))],
        ),
        assign("m", _band(_v("m"), _i(_MAN_MASK))),
        If(ast.ge(_v("e"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.le(_v("e"), _i(0)), [Return(_shl(_v("s"), 31))]),
        Return(_bor(_bor(_shl(_v("s"), 31), _shl(_v("e"), 23)), _v("m"))),
    ]
    return Function(
        name="__sf_mul",
        params=[("a", INT), ("b", INT)],
        locals=[
            ("s", INT), ("ea", INT), ("eb", INT), ("ma", INT), ("mb", INT), ("e", INT),
            ("ah", INT), ("al", INT), ("bh", INT), ("bl", INT),
            ("hi", INT), ("mid", INT), ("lo", INT), ("m", INT),
        ],
        body=body,
        return_type=INT,
    )


def _sf_div() -> Function:
    body = [
        assign("s", ast.BinOp("^", _band(_shr(_v("a"), 31), _i(1)), _band(_shr(_v("b"), 31), _i(1)))),
        If(ast.eq(_band(_v("b"), _i(_ABS_MASK)), _i(0)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.eq(_band(_v("a"), _i(_ABS_MASK)), _i(0)), [Return(_shl(_v("s"), 31))]),
        assign("ea", _band(_shr(_v("a"), 23), _i(_EXP_MASK))),
        assign("eb", _band(_shr(_v("b"), 23), _i(_EXP_MASK))),
        If(ast.eq(_v("ea"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.eq(_v("eb"), _i(255)), [Return(_shl(_v("s"), 31))]),
        If(ast.eq(_v("ea"), _i(0)), [Return(_shl(_v("s"), 31))]),
        If(ast.eq(_v("eb"), _i(0)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        assign("ma", _bor(_band(_v("a"), _i(_MAN_MASK)), _i(_IMPLICIT_BIT))),
        assign("mb", _bor(_band(_v("b"), _i(_MAN_MASK)), _i(_IMPLICIT_BIT))),
        assign("e", ast.add(ast.sub(_v("ea"), _v("eb")), _i(127))),
        If(
            ast.ge(_v("ma"), _v("mb")),
            [assign("q", _i(1)), assign("rem", ast.sub(_v("ma"), _v("mb")))],
            [assign("q", _i(0)), assign("rem", _v("ma"))],
        ),
        assign("i", _i(0)),
        While(
            ast.lt(_v("i"), _i(25)),
            [
                assign("q", _shl(_v("q"), 1)),
                assign("rem", _shl(_v("rem"), 1)),
                If(
                    ast.ge(_v("rem"), _v("mb")),
                    [assign("rem", ast.sub(_v("rem"), _v("mb"))), assign("q", _bor(_v("q"), _i(1)))],
                ),
                assign("i", ast.add(_v("i"), _i(1))),
            ],
        ),
        If(
            ast.ge(_v("q"), _i(1 << 25)),
            [assign("m", _shr(_v("q"), 2))],
            [assign("m", _shr(_v("q"), 1)), assign("e", ast.sub(_v("e"), _i(1)))],
        ),
        assign("m", _band(_v("m"), _i(_MAN_MASK))),
        If(ast.ge(_v("e"), _i(255)), [Return(_bor(_shl(_v("s"), 31), _i(_INF_BITS)))]),
        If(ast.le(_v("e"), _i(0)), [Return(_shl(_v("s"), 31))]),
        Return(_bor(_bor(_shl(_v("s"), 31), _shl(_v("e"), 23)), _v("m"))),
    ]
    return Function(
        name="__sf_div",
        params=[("a", INT), ("b", INT)],
        locals=[
            ("s", INT), ("ea", INT), ("eb", INT), ("ma", INT), ("mb", INT), ("e", INT),
            ("q", INT), ("rem", INT), ("i", INT), ("m", INT),
        ],
        body=body,
        return_type=INT,
    )


def _sf_cmp() -> Function:
    """Three-way comparison returning -1, 0 or 1."""
    body = [
        assign("absa", _band(_v("a"), _i(_ABS_MASK))),
        assign("absb", _band(_v("b"), _i(_ABS_MASK))),
        If(ast.eq(_v("absa"), _i(0)), [If(ast.eq(_v("absb"), _i(0)), [Return(_i(0))])]),
        assign("sa", _band(_shr(_v("a"), 31), _i(1))),
        assign("sb", _band(_shr(_v("b"), 31), _i(1))),
        If(
            ast.ne(_v("sa"), _v("sb")),
            [If(ast.eq(_v("sa"), _i(1)), [Return(_i(-1))], [Return(_i(1))])],
        ),
        If(ast.eq(_v("absa"), _v("absb")), [Return(_i(0))]),
        If(ast.lt(_v("absa"), _v("absb")), [assign("r", _i(-1))], [assign("r", _i(1))]),
        If(ast.eq(_v("sa"), _i(1)), [Return(ast.sub(_i(0), _v("r")))]),
        Return(_v("r")),
    ]
    return Function(
        name="__sf_cmp",
        params=[("a", INT), ("b", INT)],
        locals=[("absa", INT), ("absb", INT), ("sa", INT), ("sb", INT), ("r", INT)],
        body=body,
        return_type=INT,
    )


def _sf_fromint() -> Function:
    body = [
        If(ast.eq(_v("i"), _i(0)), [Return(_i(0))]),
        assign("s", _i(0)),
        assign("v", _v("i")),
        If(ast.lt(_v("i"), _i(0)), [assign("s", _i(1)), assign("v", ast.sub(_i(0), _v("i")))]),
        # INT_MIN cannot be negated in 32 bits; return its exact f32 encoding.
        If(ast.lt(_v("v"), _i(0)), [Return(_i(0xCF00_0000))]),
        assign("e", _i(150)),
        While(ast.ge(_v("v"), _i(1 << 24)), [assign("v", _shr(_v("v"), 1)), assign("e", ast.add(_v("e"), _i(1)))]),
        While(ast.lt(_v("v"), _i(1 << 23)), [assign("v", _shl(_v("v"), 1)), assign("e", ast.sub(_v("e"), _i(1)))]),
        Return(_bor(_bor(_shl(_v("s"), 31), _shl(_v("e"), 23)), _band(_v("v"), _i(_MAN_MASK)))),
    ]
    return Function(
        name="__sf_fromint",
        params=[("i", INT)],
        locals=[("s", INT), ("v", INT), ("e", INT)],
        body=body,
        return_type=INT,
    )


def _sf_toint() -> Function:
    body = [
        assign("e", _band(_shr(_v("a"), 23), _i(_EXP_MASK))),
        If(ast.lt(_v("e"), _i(127)), [Return(_i(0))]),
        assign("s", _band(_shr(_v("a"), 31), _i(1))),
        assign("m", _bor(_band(_v("a"), _i(_MAN_MASK)), _i(_IMPLICIT_BIT))),
        assign("shift", ast.sub(_v("e"), _i(150))),
        If(
            ast.ge(_v("shift"), _i(0)),
            [
                If(ast.gt(_v("shift"), _i(7)), [assign("shift", _i(7))]),
                assign("value", ast.BinOp("<<", _v("m"), _v("shift"))),
            ],
            [
                assign("shift", ast.sub(_i(0), _v("shift"))),
                If(ast.gt(_v("shift"), _i(31)), [assign("shift", _i(31))]),
                assign("value", ast.BinOp(">>", _v("m"), _v("shift"))),
            ],
        ),
        If(ast.eq(_v("s"), _i(1)), [Return(ast.sub(_i(0), _v("value")))]),
        Return(_v("value")),
    ]
    return Function(
        name="__sf_toint",
        params=[("a", INT)],
        locals=[("e", INT), ("s", INT), ("m", INT), ("shift", INT), ("value", INT)],
        body=body,
        return_type=INT,
    )


def _sf_sqrt() -> Function:
    """Square root via Newton iterations built on the other routines."""
    body = [
        If(ast.eq(_band(_v("a"), _i(_ABS_MASK)), _i(0)), [Return(_i(0))]),
        If(ast.eq(_band(_shr(_v("a"), 31), _i(1)), _i(1)), [Return(_i(_NAN_BITS))]),
        assign("e", _band(_shr(_v("a"), 23), _i(_EXP_MASK))),
        If(ast.eq(_v("e"), _i(255)), [Return(_v("a"))]),
        If(ast.eq(_v("e"), _i(0)), [Return(_i(0))]),
        # Seed: halve the unbiased exponent and keep the top mantissa bits.
        assign("g", _bor(_shl(ast.add(_shr(ast.sub(_v("e"), _i(127)), 1), _i(127)), 23), _band(_v("a"), _i(0x0060_0000)))),
        assign("i", _i(0)),
        While(
            ast.lt(_v("i"), _i(5)),
            [
                assign("t", call("__sf_div", _v("a"), _v("g"))),
                assign("t", call("__sf_add", _v("g"), _v("t"))),
                # multiply by 0.5 by decrementing the exponent
                If(ast.ne(_band(_v("t"), _i(0x7F80_0000)), _i(0)), [assign("t", ast.sub(_v("t"), _i(_IMPLICIT_BIT)))]),
                assign("g", _v("t")),
                assign("i", ast.add(_v("i"), _i(1))),
            ],
        ),
        Return(_v("g")),
    ]
    return Function(
        name="__sf_sqrt",
        params=[("a", INT)],
        locals=[("e", INT), ("g", INT), ("i", INT), ("t", INT)],
        body=body,
        return_type=INT,
    )


def build_softfloat_module() -> Module:
    """Build the guest software float library module."""
    return Module(
        name="softfloat",
        functions=[
            _sf_add(),
            _sf_sub(),
            _sf_mul(),
            _sf_div(),
            _sf_cmp(),
            _sf_fromint(),
            _sf_toint(),
            _sf_sqrt(),
        ],
        globals=[],
    )

"""FT — Fourier Transform style kernel.

A batch of independent iterative radix-2 FFTs (the original FT performs
a 3D FFT as batched 1D transforms along each dimension).  Twiddle
factors are precomputed at build time and placed in the data segment,
as real FFT codes precompute their roots of unity.  The kernel is the
most floating-point dense of the suite.
"""

from __future__ import annotations

import math

from repro.compiler import ast
from repro.compiler.ast import Function, GlobalVar, Module, Return, assign, var

from repro.npb.common import FLOAT, INT, build_mains, finish_float_checksum, partial_globals

#: FFT size, number of independent rows, log2(size) ("class T").
SIZE = 16
ROWS = 4
STAGES = 4


def _twiddles() -> tuple[list[float], list[float]]:
    real = [math.cos(-2.0 * math.pi * k / SIZE) for k in range(SIZE // 2)]
    imag = [math.sin(-2.0 * math.pi * k / SIZE) for k in range(SIZE // 2)]
    return real, imag


def _bit_reverse(index: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (index & 1)
        index >>= 1
    return out


def _init_data() -> Function:
    """Fill each row with a deterministic waveform, in bit-reversed order."""
    order = [_bit_reverse(i, STAGES) for i in range(SIZE)]
    return Function(
        name="init_data",
        params=[],
        locals=[("row", INT), ("i", INT), ("src", INT), ("base", INT), ("t", FLOAT)],
        body=[
            ast.for_range(
                "row",
                ast.const(0),
                ast.const(ROWS),
                [
                    assign("base", ast.mul(var("row"), ast.const(SIZE))),
                    ast.for_range(
                        "i",
                        ast.const(0),
                        ast.const(SIZE),
                        [
                            assign("src", ast.load("bitrev", var("i"))),
                            assign("t", ast.div(ast.int_to_float(ast.add(ast.mul(var("row"), ast.const(3)), var("src"))),
                                                ast.FloatConst(float(SIZE)))),
                            ast.store("data_re", ast.add(var("base"), var("i")),
                                      ast.sub(ast.fvar("t"), ast.mul(ast.fvar("t"), ast.fvar("t")))),
                            ast.store("data_im", ast.add(var("base"), var("i")), ast.mul(ast.FloatConst(0.25), ast.fvar("t"))),
                        ],
                    ),
                ],
            ),
            Return(ast.const(0)),
        ],
        return_type=INT,
    )


def _kernel_chunk() -> Function:
    """Transform rows [lo, hi) in place and accumulate the spectrum energy."""
    butterfly = [
        # indices of the butterfly pair within the row
        assign("idx_a", ast.add(var("base"), ast.add(var("grp"), var("k")))),
        assign("idx_b", ast.add(var("idx_a"), var("half"))),
        assign("tw", ast.mul(var("k"), ast.div(ast.const(SIZE // 2), var("half")))),
        assign("wr", ast.floadx("tw_re", var("tw"))),
        assign("wi", ast.floadx("tw_im", var("tw"))),
        assign("br", ast.floadx("data_re", var("idx_b"))),
        assign("bi", ast.floadx("data_im", var("idx_b"))),
        assign("tr", ast.sub(ast.mul(ast.fvar("wr"), ast.fvar("br")), ast.mul(ast.fvar("wi"), ast.fvar("bi")))),
        assign("ti", ast.add(ast.mul(ast.fvar("wr"), ast.fvar("bi")), ast.mul(ast.fvar("wi"), ast.fvar("br")))),
        assign("ar", ast.floadx("data_re", var("idx_a"))),
        assign("ai", ast.floadx("data_im", var("idx_a"))),
        ast.store("data_re", var("idx_a"), ast.add(ast.fvar("ar"), ast.fvar("tr"))),
        ast.store("data_im", var("idx_a"), ast.add(ast.fvar("ai"), ast.fvar("ti"))),
        ast.store("data_re", var("idx_b"), ast.sub(ast.fvar("ar"), ast.fvar("tr"))),
        ast.store("data_im", var("idx_b"), ast.sub(ast.fvar("ai"), ast.fvar("ti"))),
    ]
    body = [
        assign("energy", ast.FloatConst(0.0)),
        ast.for_range(
            "row",
            var("lo"),
            var("hi"),
            [
                assign("base", ast.mul(var("row"), ast.const(SIZE))),
                assign("half", ast.const(1)),
                ast.While(
                    ast.lt(var("half"), ast.const(SIZE)),
                    [
                        assign("grp", ast.const(0)),
                        ast.While(
                            ast.lt(var("grp"), ast.const(SIZE)),
                            [
                                ast.for_range("k", ast.const(0), var("half"), list(butterfly)),
                                assign("grp", ast.add(var("grp"), ast.mul(var("half"), ast.const(2)))),
                            ],
                        ),
                        assign("half", ast.mul(var("half"), ast.const(2))),
                    ],
                ),
                ast.for_range(
                    "k",
                    ast.const(0),
                    ast.const(SIZE),
                    [
                        assign("ar", ast.floadx("data_re", ast.add(var("base"), var("k")))),
                        assign("ai", ast.floadx("data_im", ast.add(var("base"), var("k")))),
                        assign("energy", ast.add(ast.fvar("energy"),
                                                 ast.add(ast.mul(ast.fvar("ar"), ast.fvar("ar")),
                                                         ast.mul(ast.fvar("ai"), ast.fvar("ai"))))),
                    ],
                ),
            ],
        ),
        ast.store("partial_f", var("wid"), ast.add(ast.floadx("partial_f", var("wid")), ast.fvar("energy"))),
        Return(ast.const(0)),
    ]
    return Function(
        name="kernel_chunk",
        params=[("lo", INT), ("hi", INT), ("wid", INT)],
        locals=[
            ("row", INT), ("base", INT), ("half", INT), ("grp", INT), ("k", INT),
            ("idx_a", INT), ("idx_b", INT), ("tw", INT),
            ("wr", FLOAT), ("wi", FLOAT), ("br", FLOAT), ("bi", FLOAT),
            ("tr", FLOAT), ("ti", FLOAT), ("ar", FLOAT), ("ai", FLOAT), ("energy", FLOAT),
        ],
        body=body,
        return_type=INT,
    )


def build_module(mode: str) -> Module:
    tw_re, tw_im = _twiddles()
    functions = [
        _init_data(),
        _kernel_chunk(),
        finish_float_checksum(),
        *build_mains(mode, ROWS, mpi_reduce=("float",)),
    ]
    globals_ = [
        GlobalVar("data_re", FLOAT, ROWS * SIZE),
        GlobalVar("data_im", FLOAT, ROWS * SIZE),
        GlobalVar("tw_re", FLOAT, SIZE // 2, tw_re),
        GlobalVar("tw_im", FLOAT, SIZE // 2, tw_im),
        GlobalVar("bitrev", INT, SIZE, [_bit_reverse(i, STAGES) for i in range(SIZE)]),
        *partial_globals(),
    ]
    return Module(name=f"ft_{mode}", functions=functions, globals=globals_)

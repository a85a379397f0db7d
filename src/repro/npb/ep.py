"""EP — Embarrassingly Parallel (Monte Carlo) kernel.

Each sample draws a pseudo-random point in the unit square and tests
whether it falls inside the unit circle; the kernel accumulates the hit
count and the sum of squared radii.  Like the original EP benchmark the
work is floating point dominated and requires no communication beyond
the final reduction, making it the best-case workload for every
parallelisation model.
"""

from __future__ import annotations

from repro.compiler import ast
from repro.compiler.ast import Function, If, Module, Return, assign, call, var

from repro.npb.common import FLOAT, INT, build_mains, finish_both_checksums, partial_globals

#: Number of Monte Carlo samples ("class T").
SAMPLES = 96

_SCALE = 2147483648.0  # 2^31, converts LCG output to [0, 1)


def _init_data() -> Function:
    return Function(name="init_data", params=[], body=[Return(ast.const(0))], return_type=INT)


def _kernel_chunk() -> Function:
    body = [
        assign("hits", ast.const(0)),
        assign("dist", ast.FloatConst(0.0)),
        ast.for_range(
            "i",
            var("lo"),
            var("hi"),
            [
                # two deterministic pseudo-random draws derived from the index
                assign("sx", call("lcg_step", ast.add(ast.mul(var("i"), ast.const(2654435)), ast.const(12345)))),
                assign("sy", call("lcg_step", var("sx"))),
                assign("x", ast.div(ast.int_to_float(var("sx")), ast.FloatConst(_SCALE))),
                assign("y", ast.div(ast.int_to_float(var("sy")), ast.FloatConst(_SCALE))),
                assign("r2", ast.add(ast.mul(ast.fvar("x"), ast.fvar("x")), ast.mul(ast.fvar("y"), ast.fvar("y")))),
                If(
                    ast.le(ast.fvar("r2"), ast.FloatConst(1.0)),
                    [assign("hits", ast.add(var("hits"), ast.const(1)))],
                ),
                assign("dist", ast.add(ast.fvar("dist"), ast.fvar("r2"))),
            ],
        ),
        ast.store("partial_i", var("wid"), ast.add(ast.load("partial_i", var("wid")), var("hits"))),
        ast.store("partial_f", var("wid"), ast.add(ast.floadx("partial_f", var("wid")), ast.fvar("dist"))),
        Return(ast.const(0)),
    ]
    return Function(
        name="kernel_chunk",
        params=[("lo", INT), ("hi", INT), ("wid", INT)],
        locals=[
            ("i", INT), ("hits", INT), ("sx", INT), ("sy", INT),
            ("x", FLOAT), ("y", FLOAT), ("r2", FLOAT), ("dist", FLOAT),
        ],
        body=body,
        return_type=INT,
    )


def build_module(mode: str) -> Module:
    """Build the EP application module for one execution mode."""
    functions = [
        _init_data(),
        _kernel_chunk(),
        finish_both_checksums(),
        *build_mains(mode, SAMPLES, mpi_reduce=("float", "int")),
    ]
    return Module(name=f"ep_{mode}", functions=functions, globals=partial_globals())

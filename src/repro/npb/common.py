"""Shared scaffolding for the NPB-style benchmark kernels.

Every application follows the same source organisation (mirroring how
the NPB suite shares its ``common/`` directory):

* ``init_data()`` fills the global arrays deterministically,
* ``kernel_chunk(lo, hi, wid)`` processes a contiguous chunk of the
  iteration space and accumulates per-worker partial results into the
  ``partial_f`` / ``partial_i`` arrays,
* ``finish(nchunks)`` combines the partials and prints the checksums.

:func:`build_mains` then produces the serial, OpenMP or MPI ``main``
driver around those three functions, which is exactly how the paper's
identical-source/three-variant methodology is reproduced.
"""

from __future__ import annotations

from repro.compiler import ast
from repro.compiler.ast import (
    ExprStmt,
    FuncAddr,
    Function,
    GlobalVar,
    If,
    Return,
    assign,
    call,
    var,
)

INT = ast.INT
FLOAT = ast.FLOAT
VOID = ast.VOID

#: Maximum number of workers / ranks supported by the partial arrays.
MAX_WORKERS = 16

SERIAL = "serial"
OMP = "omp"
MPI = "mpi"
MODES = (SERIAL, OMP, MPI)


def partial_globals() -> list[GlobalVar]:
    """Per-worker partial result arrays shared by all applications."""
    return [
        GlobalVar("partial_f", FLOAT, MAX_WORKERS),
        GlobalVar("partial_i", INT, MAX_WORKERS),
    ]


def sum_partials_float(count_expr: ast.Expr, into: str = "acc_f") -> list[ast.Stmt]:
    """Statements summing ``partial_f[0:count]`` into local ``into``."""
    return [
        assign(into, ast.FloatConst(0.0)),
        ast.for_range(
            "pf_i",
            ast.const(0),
            count_expr,
            [assign(into, ast.add(ast.fvar(into), ast.floadx("partial_f", var("pf_i"))))],
        ),
    ]


def sum_partials_int(count_expr: ast.Expr, into: str = "acc_i") -> list[ast.Stmt]:
    return [
        assign(into, ast.const(0)),
        ast.for_range(
            "pi_i",
            ast.const(0),
            count_expr,
            [assign(into, ast.add(var(into), ast.load("partial_i", var("pi_i"))))],
        ),
    ]


def print_float_stmt(expr: ast.Expr) -> ast.Stmt:
    return ExprStmt(call("print_float", expr, type=VOID))


def print_int_stmt(expr: ast.Expr) -> ast.Stmt:
    return ExprStmt(call("print_int", expr, type=VOID))


def rank_chunk_stmts(total_expr: ast.Expr) -> list[ast.Stmt]:
    """Statements computing this MPI rank's ``[lo, hi)`` chunk bounds."""
    return [
        assign("chunk", ast.div(ast.add(total_expr, ast.sub(var("nranks"), ast.const(1))), var("nranks"))),
        assign("lo", ast.mul(var("rank"), var("chunk"))),
        assign("hi", ast.add(var("lo"), var("chunk"))),
        If(ast.gt(var("hi"), total_expr), [assign("hi", total_expr)]),
    ]


def build_mains(
    mode: str,
    total: int,
    kernel_fn: str = "kernel_chunk",
    init_fn: str = "init_data",
    finish_fn: str = "finish",
    mpi_reduce: tuple[str, ...] = ("float",),
    iterations: int = 1,
) -> list[Function]:
    """Build the ``main`` driver for one execution mode.

    ``iterations`` repeats the whole parallel region, which is how the
    iterative kernels express multiple sweeps without custom drivers.
    """
    total_expr = ast.const(total)
    if mode == SERIAL:
        body: list[ast.Stmt] = [
            ExprStmt(call(init_fn)),
            ast.for_range(
                "it", ast.const(0), ast.const(iterations),
                [ExprStmt(call(kernel_fn, ast.const(0), total_expr, ast.const(0)))],
            ),
            ExprStmt(call(finish_fn, ast.const(1))),
            Return(ast.const(0)),
        ]
        return [
            Function(
                name="main",
                params=[("rank", INT), ("nranks", INT), ("nthreads", INT)],
                locals=[("it", INT)],
                body=body,
                return_type=INT,
            )
        ]
    if mode == OMP:
        body = [
            ExprStmt(call("omp_init", var("nthreads"))),
            ExprStmt(call(init_fn)),
            ast.for_range(
                "it", ast.const(0), ast.const(iterations),
                [ExprStmt(call("omp_parallel_for", FuncAddr(kernel_fn), ast.const(0), total_expr))],
            ),
            ExprStmt(call(finish_fn, var("nthreads"))),
            ExprStmt(call("omp_shutdown")),
            Return(ast.const(0)),
        ]
        return [
            Function(
                name="main",
                params=[("rank", INT), ("nranks", INT), ("nthreads", INT)],
                locals=[("it", INT)],
                body=body,
                return_type=INT,
            )
        ]
    if mode == MPI:
        reduce_stmts: list[ast.Stmt] = []
        if "float" in mpi_reduce:
            reduce_stmts.append(
                ast.store("partial_f", ast.const(0),
                          call("mpi_allreduce_sum_float", ast.floadx("partial_f", ast.const(0)), type=FLOAT))
            )
        if "int" in mpi_reduce:
            reduce_stmts.append(
                ast.store("partial_i", ast.const(0),
                          call("mpi_allreduce_sum_int", ast.load("partial_i", ast.const(0))))
            )
        iteration_body: list[ast.Stmt] = [ExprStmt(call(kernel_fn, var("lo"), var("hi"), ast.const(0)))]
        if iterations > 1:
            # Iterative kernels synchronise the ranks between sweeps, which
            # keeps the MPI runtime (and its vulnerability window) exercised
            # during the whole run as in the original benchmarks.
            iteration_body.append(ExprStmt(call("mpi_barrier")))
        body = [
            ExprStmt(call(init_fn)),
            *rank_chunk_stmts(total_expr),
            ast.for_range("it", ast.const(0), ast.const(iterations), iteration_body),
            *reduce_stmts,
            If(ast.eq(var("rank"), ast.const(0)), [ExprStmt(call(finish_fn, ast.const(1)))]),
            ExprStmt(call("mpi_finalize")),
            Return(ast.const(0)),
        ]
        return [
            Function(
                name="main",
                params=[("rank", INT), ("nranks", INT), ("nthreads", INT)],
                locals=[("it", INT), ("chunk", INT), ("lo", INT), ("hi", INT)],
                body=body,
                return_type=INT,
            )
        ]
    raise ValueError(f"unknown execution mode {mode!r}")


def finish_float_checksum() -> Function:
    """Standard ``finish``: print the float checksum summed over workers."""
    return Function(
        name="finish",
        params=[("nchunks", INT)],
        locals=[("pf_i", INT), ("acc_f", FLOAT)],
        body=[
            *sum_partials_float(var("nchunks")),
            print_float_stmt(ast.fvar("acc_f")),
            Return(ast.const(0)),
        ],
        return_type=INT,
    )


def finish_int_checksum() -> Function:
    """Standard ``finish``: print the integer checksum summed over workers."""
    return Function(
        name="finish",
        params=[("nchunks", INT)],
        locals=[("pi_i", INT), ("acc_i", INT)],
        body=[
            *sum_partials_int(var("nchunks")),
            print_int_stmt(var("acc_i")),
            Return(ast.const(0)),
        ],
        return_type=INT,
    )


def finish_both_checksums() -> Function:
    """Print the integer checksum followed by the float checksum."""
    return Function(
        name="finish",
        params=[("nchunks", INT)],
        locals=[("pi_i", INT), ("acc_i", INT), ("pf_i", INT), ("acc_f", FLOAT)],
        body=[
            *sum_partials_int(var("nchunks")),
            print_int_stmt(var("acc_i")),
            *sum_partials_float(var("nchunks")),
            print_float_stmt(ast.fvar("acc_f")),
            Return(ast.const(0)),
        ],
        return_type=INT,
    )

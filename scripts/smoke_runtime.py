"""Developer smoke test for the guest runtimes (softfloat, OpenMP, MPI)."""

from repro.compiler import ast
from repro.compiler.ast import ExprStmt, Function, FuncAddr, GlobalVar, If, Module, Return, assign, call, var
from repro.compiler.linker import link
from repro.isa.arch import ARMV7, ARMV8
from repro.runtime import runtime_modules
from repro.soc.multicore import build_system


def float_app() -> Module:
    main = Function(
        name="main",
        params=[("rank", ast.INT)],
        locals=[("i", ast.INT), ("x", ast.FLOAT), ("acc", ast.FLOAT)],
        body=[
            assign("acc", ast.FloatConst(0.0)),
            ast.for_range(
                "i",
                ast.const(1),
                ast.const(20),
                [
                    assign("x", ast.div(ast.FloatConst(1.0), ast.int_to_float(var("i")))),
                    assign("acc", ast.add(ast.fvar("acc"), ast.fvar("x"))),
                ],
            ),
            assign("acc", ast.fcall("sqrt", ast.fvar("acc"))),
            ExprStmt(call("print_float", ast.fvar("acc"), type=ast.VOID)),
            Return(ast.const(0)),
        ],
        return_type=ast.INT,
    )
    return Module("floatapp", [main], [])


def omp_app(nthreads: int) -> Module:
    worker = Function(
        name="sum_worker",
        params=[("lo", ast.INT), ("hi", ast.INT), ("wid", ast.INT)],
        locals=[("i", ast.INT), ("acc", ast.INT)],
        body=[
            assign("acc", ast.const(0)),
            ast.for_range("i", var("lo"), var("hi"), [assign("acc", ast.add(var("acc"), var("i")))]),
            ast.store("partials", var("wid"), var("acc")),
            Return(ast.const(0)),
        ],
        return_type=ast.INT,
    )
    main = Function(
        name="main",
        params=[("rank", ast.INT), ("nranks", ast.INT), ("nthreads", ast.INT)],
        locals=[("i", ast.INT), ("total", ast.INT)],
        body=[
            ExprStmt(call("omp_init", var("nthreads"))),
            ExprStmt(call("omp_parallel_for", FuncAddr("sum_worker"), ast.const(0), ast.const(1000))),
            assign("total", ast.const(0)),
            ast.for_range("i", ast.const(0), var("nthreads"), [assign("total", ast.add(var("total"), ast.load("partials", var("i"))))]),
            ExprStmt(call("omp_shutdown")),
            ExprStmt(call("print_int", var("total"), type=ast.VOID)),
            Return(ast.const(0)),
        ],
        return_type=ast.INT,
    )
    return Module("ompapp", [worker, main], [GlobalVar("partials", ast.INT, 16)])


def mpi_app() -> Module:
    main = Function(
        name="main",
        params=[("rank", ast.INT), ("nranks", ast.INT)],
        locals=[("i", ast.INT), ("acc", ast.INT), ("lo", ast.INT), ("hi", ast.INT), ("chunk", ast.INT), ("total", ast.INT)],
        body=[
            assign("chunk", ast.div(ast.const(1000), var("nranks"))),
            assign("lo", ast.mul(var("rank"), var("chunk"))),
            assign("hi", ast.add(var("lo"), var("chunk"))),
            If(ast.eq(var("rank"), ast.sub(var("nranks"), ast.const(1))), [assign("hi", ast.const(1000))]),
            assign("acc", ast.const(0)),
            ast.for_range("i", var("lo"), var("hi"), [assign("acc", ast.add(var("acc"), var("i")))]),
            assign("total", call("mpi_allreduce_sum_int", var("acc"))),
            If(ast.eq(var("rank"), ast.const(0)), [ExprStmt(call("print_int", var("total"), type=ast.VOID))]),
            ExprStmt(call("mpi_finalize")),
            Return(ast.const(0)),
        ],
        return_type=ast.INT,
    )
    return Module("mpiapp", [main], [])


def run_serial_float():
    expected = sum(1.0 / i for i in range(1, 20)) ** 0.5
    for arch in (ARMV7, ARMV8):
        program = link([float_app()] + runtime_modules(arch), arch, name="floatapp")
        system = build_system(arch.name, cores=1)
        system.load_process(program, name="floatapp")
        system.run(max_instructions=5_000_000)
        out = system.kernel.processes[0].output_text().strip()
        value = float(out)
        print(f"float {arch.name}: got {value:.6f} expected {expected:.6f} "
              f"instrs={system.total_instructions} text={len(program.instructions)}")
        assert abs(value - expected) < 2e-3, (arch.name, value, expected)


def run_omp():
    for arch in (ARMV7, ARMV8):
        for threads, cores in ((2, 2), (4, 4)):
            program = link([omp_app(threads)] + runtime_modules(arch, "omp"), arch, name="ompapp")
            system = build_system(arch.name, cores=cores)
            system.load_process(program, name="ompapp", nthreads_hint=threads)
            system.run(max_instructions=5_000_000)
            out = system.kernel.processes[0].output_text().strip()
            print(f"omp {arch.name} t={threads}: {out} instrs={system.total_instructions}")
            assert out == str(sum(range(1000))), out


def run_mpi():
    for arch in (ARMV7, ARMV8):
        for ranks in (2, 4):
            program = link([mpi_app()] + runtime_modules(arch, "mpi"), arch, name="mpiapp")
            system = build_system(arch.name, cores=ranks)
            system.load_mpi_job(program, nranks=ranks, name="mpiapp")
            system.run(max_instructions=5_000_000)
            out = system.combined_output().strip()
            print(f"mpi {arch.name} r={ranks}: {out} instrs={system.total_instructions}")
            assert out == str(sum(range(1000))), out


if __name__ == "__main__":
    run_serial_float()
    run_omp()
    run_mpi()
    print("runtime smoke OK")

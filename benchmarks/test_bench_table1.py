"""Table 1 — NPB workload summary (instructions and simulation time per ISA).

Shape to reproduce: the ARMv7 runs execute far more instructions (and
take far longer) than the ARMv8 runs because the compiler lowers ARMv7
floating point to the software float library.
"""

from bench_helpers import write_output

from repro.analysis.table1 import instruction_ratio, render_table1, table1_rows


def test_bench_table1(benchmark, campaign_database):
    rows = benchmark(table1_rows, campaign_database, 8000)
    text = render_table1(rows)
    ratio = instruction_ratio(campaign_database)
    write_output("table1.txt", text + f"\n\nARMv7/ARMv8 instruction ratio: {ratio:.1f}x")

    # paper shape: ARMv7 executes many times more instructions than ARMv8
    assert ratio > 3.0
    v7_instr = next(r for r in rows if r["metric"] == "executed_instructions" and r["isa"] == "armv7")
    v8_instr = next(r for r in rows if r["metric"] == "executed_instructions" and r["isa"] == "armv8")
    assert v7_instr["average"] > v8_instr["average"]
    assert v7_instr["larger"] >= v7_instr["average"] >= v7_instr["smaller"]

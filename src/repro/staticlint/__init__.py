"""Static vulnerability analysis: CFG + liveness/ACE over linked binaries.

The injection campaigns measure reliability by brute force; this
package *predicts* it by dataflow analysis.  A control-flow graph over
the linked program text (:mod:`repro.staticlint.cfg`), a backward
liveness fixpoint with interprocedural call summaries
(:mod:`repro.staticlint.liveness`) and execution-count weighting from
golden-run profiles (:mod:`repro.staticlint.ace`) yield a predicted
per-register ACE fraction and a predicted masking rate per scenario —
a prior over where faults matter, validated against measured campaign
outcomes by :mod:`repro.staticlint.validate` and consumed by the
adaptive controller's register strata and top-N selective hardening.
"""

from repro.staticlint.ace import (
    PREDICTABLE_KINDS,
    ScenarioVulnerability,
    analyze_program,
    analyze_scenario,
    register_ace_fractions,
    top_variables,
    variable_ranks,
)
from repro.staticlint.cfg import (
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    build_function_cfg,
    build_program_cfg,
)
from repro.staticlint.liveness import LivenessResult, analyze_liveness
from repro.staticlint.validate import (
    ValidationReport,
    ValidationRow,
    validate_database,
    validate_store,
)

__all__ = [
    "PREDICTABLE_KINDS",
    "ScenarioVulnerability",
    "analyze_program",
    "analyze_scenario",
    "register_ace_fractions",
    "top_variables",
    "variable_ranks",
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "build_function_cfg",
    "build_program_cfg",
    "LivenessResult",
    "analyze_liveness",
    "ValidationReport",
    "ValidationRow",
    "validate_database",
    "validate_store",
]

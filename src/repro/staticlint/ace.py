"""ACE-fraction estimation: liveness weighted by execution counts.

The bridge from dataflow to reliability: a register-file fault is
architecturally masked unless it lands in a *live* register, so the
probability a uniformly-timed fault in register ``r`` matters is the
execution-weighted fraction of dynamic instructions at which ``r`` is
live — its ACE fraction.  Averaging over the registers the fault model
draws from yields a predicted masking rate per target kind, directly
comparable to the measured ``masking_rate_pct`` of an injection campaign.

Weights come from the functional profiler's per-index execution counts
(:class:`repro.profiling.functional.FunctionalProfile`); with no
profile every instruction weighs the same (the *static* estimate used
by selective hardening, which must rank variables before any run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.isa.program import Program
from repro.staticlint.cfg import build_program_cfg
from repro.staticlint.liveness import LivenessResult, analyze_liveness

#: Target kinds this analysis can predict (register-file kinds only;
#: PC/memory/cache faults need different models).
PREDICTABLE_KINDS = ("gpr", "fpr")


@dataclass
class ScenarioVulnerability:
    """Static vulnerability estimate for one scenario."""

    scenario_id: str
    app: str
    mode: str
    isa: str
    hardening: str
    total_weight: int
    gpr_ace: Dict[int, float] = field(default_factory=dict)
    fpr_ace: Dict[int, float] = field(default_factory=dict)

    def ace_of(self, kind: str) -> Dict[int, float]:
        if kind == "gpr":
            return self.gpr_ace
        if kind == "fpr":
            return self.fpr_ace
        raise KeyError(f"no ACE estimate for target kind {kind!r}")

    def predicted_ace(self, kind: str = "gpr") -> float:
        """Mean ACE fraction over the registers the fault model draws from."""
        fractions = self.ace_of(kind)
        if not fractions:
            return 0.0
        return sum(fractions.values()) / len(fractions)

    def predicted_masking(self, kind: str = "gpr") -> float:
        """Predicted fraction of injections with no architectural effect."""
        return 1.0 - self.predicted_ace(kind)


def register_ace_fractions(
    program: Program,
    liveness: Optional[LivenessResult] = None,
    weights: Optional[Mapping[int, int]] = None,
) -> Tuple[Dict[int, float], Dict[int, float], int]:
    """Per-register ACE fractions; returns (gpr, fpr, total_weight).

    ``weights`` maps instruction index to its dynamic execution count;
    ``None`` weighs every instruction equally (static estimate).
    """
    if liveness is None:
        liveness = analyze_liveness(program)
    arch = program.arch
    text_len = len(program.instructions)
    gpr_weight = [0] * arch.num_gpr
    fpr_weight = [0] * arch.num_fpr
    total = 0
    if weights is None:
        indexed = ((index, 1) for index in range(text_len))
    else:
        indexed = ((index, count) for index, count in sorted(weights.items()))
    for index, count in indexed:
        if not (0 <= index < text_len) or count <= 0:
            continue
        total += count
        mask = liveness.live_in[index]
        for reg in range(arch.num_gpr):
            if mask >> reg & 1:
                gpr_weight[reg] += count
        if arch.num_fpr:
            base = arch.num_gpr + 4
            for reg in range(arch.num_fpr):
                if mask >> (base + reg) & 1:
                    fpr_weight[reg] += count
    if not total:
        return {}, {}, 0
    gpr = {reg: gpr_weight[reg] / total for reg in range(arch.num_gpr)}
    fpr = {reg: fpr_weight[reg] / total for reg in range(arch.num_fpr)}
    return gpr, fpr, total


def analyze_program(
    program: Program,
    scenario_id: str,
    app: str,
    mode: str,
    isa: str,
    hardening: str,
    weights: Optional[Mapping[int, int]] = None,
) -> ScenarioVulnerability:
    """Full static analysis of one linked program."""
    liveness = analyze_liveness(program, build_program_cfg(program))
    gpr, fpr, total = register_ace_fractions(program, liveness, weights)
    return ScenarioVulnerability(
        scenario_id=scenario_id,
        app=app,
        mode=mode,
        isa=isa,
        hardening=hardening,
        total_weight=total,
        gpr_ace=gpr,
        fpr_ace=fpr,
    )


def analyze_scenario(scenario, profile=None) -> ScenarioVulnerability:
    """Analyze a campaign scenario, weighting by its golden-run profile.

    ``profile`` may be a :class:`FunctionalProfile` with per-index
    ``instruction_counts`` (reused when the caller already profiled);
    by default a fresh cache-less profiling run collects the counts.
    """
    from repro.hardening.schemes import hardening_label
    from repro.npb.suite import build_program

    program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
    if profile is None:
        from repro.profiling.functional import FunctionalProfiler

        profile = FunctionalProfiler(instruction_counts=True).run(scenario)
    weights = profile.instruction_counts or None
    return analyze_program(
        program,
        scenario_id=scenario.scenario_id,
        app=scenario.app,
        mode=scenario.mode,
        isa=scenario.isa,
        hardening=hardening_label(scenario.hardening),
        weights=weights,
    )


def variable_ranks(
    program: Program,
    liveness: Optional[LivenessResult] = None,
    weights: Optional[Mapping[int, int]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-function variable vulnerability scores from the debug map.

    A variable homed in a register scores the execution-weighted live
    time of that register *within its function's range*; stack-homed
    variables score 0 (register-file faults cannot hit them directly).
    Scores are comparable within a function, which is how selective
    hardening consumes them.
    """
    if liveness is None:
        liveness = analyze_liveness(program)
    arch = program.arch
    fpr_base = arch.num_gpr + 4
    text_len = len(program.instructions)
    ranks: Dict[str, Dict[str, float]] = {}
    for function, homes in program.variable_homes.items():
        start, end = program.function_ranges.get(function, (0, 0))
        end = min(end, text_len)
        scores: Dict[str, float] = {}
        for variable, (kind, reg) in homes.items():
            if kind == "stack":
                scores[variable] = 0.0
                continue
            bit = reg if kind == "reg" else fpr_base + reg
            score = 0
            for index in range(start, end):
                if liveness.live_in[index] >> bit & 1:
                    score += 1 if weights is None else weights.get(index, 0)
            scores[variable] = float(score)
        ranks[function] = scores
    return ranks


def top_variables(
    ranks: Mapping[str, Mapping[str, float]], count: int
) -> Dict[str, Tuple[str, ...]]:
    """The ``count`` highest-scoring variables of each function.

    Ties break alphabetically so the selection is deterministic.
    """
    out: Dict[str, Tuple[str, ...]] = {}
    for function in sorted(ranks):
        scores = ranks[function]
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        out[function] = tuple(name for name, _score in ordered[:count])
    return out

"""Fast functional profiler (the reproduction's "OVPsim").

The paper uses the instruction-accurate OVPsim platform to extract
software-level profiling information — function usage, line coverage —
that the detailed gem5 simulation does not expose conveniently.  Here
the same role is played by a second, cache-less run with a per-
instruction trace hook that attributes executed instructions to the
functions and source statements of the program.

Installing a ``trace_hook`` is the execution engine's deopt trigger:
cores with a hook run on the per-instruction reference interpreter
(``Core.step``) so the hook observes every instruction at its exact
fetch PC — the pre-decoded block engine never executes hooked cores
(see :mod:`repro.cpu.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.npb.suite import Scenario, build_program, create_system, instruction_budget, launch_scenario


@dataclass
class FunctionalProfile:
    """Software-level profile of one scenario."""

    scenario_id: str
    total_instructions: int
    function_instructions: dict[str, int] = field(default_factory=dict)
    function_calls: dict[str, int] = field(default_factory=dict)
    line_coverage: dict[str, set] = field(default_factory=dict)
    runtime_functions: tuple[str, ...] = ()
    #: Per-text-index execution counts (only populated when the profiler
    #: runs with ``instruction_counts=True``; the static vulnerability
    #: analysis uses these as basic-block weights).
    instruction_counts: dict[int, int] = field(default_factory=dict)

    def function_share(self) -> dict[str, float]:
        """Fraction of executed instructions spent in each function."""
        if not self.total_instructions:
            return {}
        return {
            name: count / self.total_instructions
            for name, count in sorted(self.function_instructions.items())
        }

    def vulnerability_window(self, api_prefixes: tuple[str, ...] = ("omp_", "mpi_", "__sf_")) -> float:
        """Share of execution time spent inside runtime/API functions.

        This is the paper's "vulnerability window" of the
        parallelisation libraries (Section 4.2.2): the fraction of the
        run during which a fault would strike API code rather than
        application code.
        """
        if not self.total_instructions:
            return 0.0
        api = sum(
            count
            for name, count in self.function_instructions.items()
            if name.startswith(api_prefixes)
        )
        return api / self.total_instructions

    def top_functions(self, count: int = 10) -> list[tuple[str, int]]:
        return sorted(self.function_instructions.items(), key=lambda item: -item[1])[:count]


class FunctionalProfiler:
    """Runs a scenario with a per-instruction trace hook."""

    def __init__(
        self,
        api_prefixes: tuple[str, ...] = ("omp_", "mpi_", "__sf_"),
        instruction_counts: bool = False,
    ):
        self.api_prefixes = api_prefixes
        self.instruction_counts = instruction_counts

    def run(self, scenario: Scenario) -> FunctionalProfile:
        program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
        system = create_system(scenario, model_caches=False)
        launch_scenario(system, scenario, program)

        # Precompute instruction-index -> function and -> line for fast lookup.
        function_of = [""] * len(program.instructions)
        for name, (start, end) in program.function_ranges.items():
            for index in range(start, min(end, len(program.instructions))):
                function_of[index] = name
        line_of = program.line_table

        entry_of = {start: name for name, (start, _end) in program.function_ranges.items()}

        function_instructions: dict[str, int] = {}
        function_calls: dict[str, int] = {}
        line_coverage: dict[str, set] = {}
        instruction_counts: dict[int, int] = {}
        count_indices = self.instruction_counts
        text_base = system.kernel.loader.text_base

        def hook(core, pc):
            index = (pc - text_base) >> 2
            if 0 <= index < len(function_of):
                name = function_of[index]
                function_instructions[name] = function_instructions.get(name, 0) + 1
                if count_indices:
                    instruction_counts[index] = instruction_counts.get(index, 0) + 1
                entry = entry_of.get(index)
                if entry is not None:
                    function_calls[entry] = function_calls.get(entry, 0) + 1
                record = line_of.get(index)
                if record is not None:
                    line_coverage.setdefault(record[0], set()).add(record[1])

        for core in system.cores:
            core.trace_hook = hook

        system.run(max_instructions=instruction_budget(scenario))

        return FunctionalProfile(
            scenario_id=scenario.scenario_id,
            total_instructions=system.total_instructions,
            function_instructions=function_instructions,
            function_calls=function_calls,
            line_coverage=line_coverage,
            runtime_functions=tuple(
                name for name in program.function_ranges if name.startswith(self.api_prefixes)
            ),
            instruction_counts=instruction_counts,
        )

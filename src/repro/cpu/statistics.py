"""Per-core microarchitectural statistics.

These are the "gem5 statistics" of the reproduction: the raw counters
that the profiling layer aggregates and the data-mining tool correlates
with fault-injection outcomes (branch share, memory-instruction share,
function call counts, read/write ratio, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(slots=True)
class CoreStats:
    """Counters maintained by one core while executing guest code.

    ``slots=True`` matters: the execution engine and the burst-delta
    flush touch these attributes constantly, and slot access skips the
    per-instance dict.
    """

    instructions: int = 0
    cycles: int = 0
    int_ops: int = 0
    float_ops: int = 0
    branches: int = 0
    branches_taken: int = 0
    calls: int = 0
    returns: int = 0
    loads: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    syscalls: int = 0
    idle_cycles: int = 0
    context_switches: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def merge(self, other: "CoreStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "CoreStats":
        clone = CoreStats()
        clone.merge(self)
        return clone

    def counters(self) -> dict[str, int]:
        """Raw counter values only (no derived metrics); checkpoint format."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_counters(cls, counters: dict[str, int]) -> "CoreStats":
        return cls(**counters)

    # -- derived metrics ------------------------------------------------------

    @property
    def memory_instructions(self) -> int:
        return self.loads + self.stores

    @property
    def memory_instruction_pct(self) -> float:
        """Share of loads/stores in the executed instructions (percent)."""
        if not self.instructions:
            return 0.0
        return 100.0 * self.memory_instructions / self.instructions

    @property
    def branch_pct(self) -> float:
        if not self.instructions:
            return 0.0
        return 100.0 * self.branches / self.instructions

    @property
    def float_pct(self) -> float:
        if not self.instructions:
            return 0.0
        return 100.0 * self.float_ops / self.instructions

    @property
    def read_write_ratio(self) -> float:
        if not self.stores:
            return float(self.loads)
        return self.loads / self.stores

    @property
    def branch_taken_ratio(self) -> float:
        if not self.branches:
            return 0.0
        return self.branches_taken / self.branches

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        out = {f"{prefix}{f.name}": getattr(self, f.name) for f in fields(self)}
        out[f"{prefix}memory_instructions"] = self.memory_instructions
        out[f"{prefix}memory_instruction_pct"] = self.memory_instruction_pct
        out[f"{prefix}branch_pct"] = self.branch_pct
        out[f"{prefix}float_pct"] = self.float_pct
        out[f"{prefix}read_write_ratio"] = self.read_write_ratio
        out[f"{prefix}branch_taken_ratio"] = self.branch_taken_ratio
        return out


def aggregate_stats(per_core: list[CoreStats]) -> CoreStats:
    """Sum per-core statistics into a system-level view."""
    total = CoreStats()
    for stats in per_core:
        total.merge(stats)
    return total


def load_balance(per_core: list[CoreStats]) -> float:
    """Relative spread of executed instructions across cores (percent).

    Defined as (max - min) / mean over the cores that executed at least
    one instruction.  The paper reports ~4% for MPI and up to ~16% for
    OpenMP; a lower value means better balance.
    """
    counts = [s.instructions for s in per_core if s.instructions > 0]
    if len(counts) <= 1:
        return 0.0
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    return 100.0 * (max(counts) - min(counts)) / mean

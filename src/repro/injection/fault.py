"""Fault model: single bit upsets with uniform random target selection.

Following Section 3.2.1 of the paper, the default configuration draws
the injection time, the target register and the target bit from uniform
distributions over the application lifespan and the architectural state
of the simulated cores.  The OS boot is not simulated, so the whole run
is application lifespan.

Beyond the register file the model covers the paper's extension
dimensions: data-memory targets (drawn from the injectable segment
layout the golden run records: data, heap and thread stacks of every
process) and cache targets (a bit of a live L1-data or L2 line, whose
architectural effect depends on the line's write-back fate).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.errors import SimulatorError
from repro.isa.arch import ArchSpec, get_arch
from repro.memory.hierarchy import CORTEX_A_CACHE_CONFIG

#: Target kinds supported by the injector.
TARGET_GPR = "gpr"
TARGET_FPR = "fpr"
TARGET_PC = "pc"
TARGET_MEMORY = "memory"
TARGET_CACHE = "cache"

ALL_TARGET_KINDS = (TARGET_GPR, TARGET_FPR, TARGET_PC, TARGET_MEMORY, TARGET_CACHE)

#: Cache levels a cache fault can land in.  The L1 instruction cache is
#: excluded: instruction semantics come from the decoded program image,
#: so a corrupted I-cache line has no architectural effect to model.
CACHE_LEVELS = ("l1d", "l2")

#: Line size of every cache in the modelled hierarchy (Section 3.1),
#: taken from the authoritative cache geometry so the bit-draw range
#: cannot drift from the lines the injector actually targets.
CACHE_LINE_BYTES = CORTEX_A_CACHE_CONFIG["l1d"].line_bytes


@dataclass(frozen=True)
class FaultDescriptor:
    """A fully specified single-bit upset.

    ``register_index`` is overloaded per target kind: a register number
    for GPR/FPR targets and a resident-line selector for cache targets
    (the injector resolves it against the lines live at the injection
    point, keeping the choice deterministic without fixing an address
    the cache might not hold).  For cache targets ``bit`` indexes a bit
    within the whole line (0..line_bytes*8-1); for memory targets it
    indexes a bit of the addressed byte.
    """

    fault_id: int
    injection_time: int
    core_id: int
    target_kind: str
    register_index: int
    bit: int
    address: Optional[int] = None
    process_index: int = 0
    cache_level: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultDescriptor":
        """Rebuild a descriptor from :meth:`as_dict` output.

        Extra keys are ignored, so flat injection records (which merge
        result and fault fields into one mapping) deserialise directly.
        """
        address = payload.get("address")
        cache_level = payload.get("cache_level")
        return cls(
            fault_id=int(payload["fault_id"]),
            injection_time=int(payload["injection_time"]),
            core_id=int(payload["core_id"]),
            target_kind=str(payload["target_kind"]),
            register_index=int(payload["register_index"]),
            bit=int(payload["bit"]),
            address=None if address is None else int(address),
            process_index=int(payload.get("process_index", 0)),
            cache_level=None if cache_level is None else str(cache_level),
        )

    def target_label(self, arch: ArchSpec | None = None) -> str:
        if self.target_kind == TARGET_PC:
            return "pc"
        if self.target_kind == TARGET_MEMORY:
            return f"mem[{self.address:#x}]"
        if self.target_kind == TARGET_CACHE:
            return f"{self.cache_level or 'l1d'}[line sel {self.register_index}, bit {self.bit}]"
        if self.target_kind == TARGET_FPR:
            return f"d{self.register_index}"
        if arch is not None:
            return arch.register_names()[self.register_index]
        return f"r{self.register_index}"


class FaultModel:
    """Uniform-random SBU generator.

    Parameters
    ----------
    isa:
        Target architecture name (``armv7``/``armv8``).
    cores:
        Number of cores in the simulated processor.
    seed:
        Seed of the private random generator; campaigns are reproducible
        given (scenario, seed, fault count).
    target_mix:
        Mapping from target kind to relative weight.  The paper's main
        campaigns target the general purpose register file; PC, memory
        and cache targets open the extension dimensions.
    """

    def __init__(
        self,
        isa: str,
        cores: int,
        seed: int = 12345,
        target_mix: Optional[dict[str, float]] = None,
    ) -> None:
        self.arch = get_arch(isa)
        self.cores = cores
        self.seed = seed
        if target_mix is None:
            target_mix = {TARGET_GPR: 0.95, TARGET_PC: 0.05}
        for kind in target_mix:
            if kind not in ALL_TARGET_KINDS:
                raise SimulatorError(f"unknown fault target kind {kind!r}")
        if self.arch.num_fpr == 0 and target_mix.get(TARGET_FPR):
            raise SimulatorError(f"{self.arch.name} has no FP register file to target")
        total = sum(target_mix.values())
        if total <= 0:
            raise SimulatorError("fault target mix must have positive total weight")
        # Zero-weight kinds are dropped: they can never be drawn on purpose,
        # and keeping them would let the float-drift tail fallback of
        # _pick_kind hand out a kind the mix explicitly excludes.
        self.target_mix = {k: v / total for k, v in target_mix.items() if v > 0}

    def _pick_kind(self, rng: random.Random) -> str:
        roll = rng.random()
        cumulative = 0.0
        kind = TARGET_GPR
        for kind, weight in self.target_mix.items():
            cumulative += weight
            if roll <= cumulative:
                return kind
        # Float accumulation can leave the cumulative total fractionally
        # below 1.0; a roll in that sliver belongs to the tail of the
        # distribution, not its head.
        return kind

    def generate(
        self,
        total_instructions: int,
        count: int,
        memory_ranges: Sequence[Sequence[tuple]] = (),
    ) -> list[FaultDescriptor]:
        """Generate ``count`` fault descriptors for one scenario.

        ``total_instructions`` is the golden run length; injection times
        are drawn from ``[1, total_instructions - 1]``.  ``memory_ranges``
        is the injectable memory layout, one ``(base, size[, name])``
        list per process as the golden run records it
        (:attr:`GoldenRunResult.memory_ranges`).  Its length is the
        number of processes faults are drawn over (one without ranges),
        and it is required when the mix contains memory targets.
        """
        if total_instructions < 3:
            raise SimulatorError(f"golden run too short ({total_instructions} instructions) to inject faults")
        num_processes = len(memory_ranges) or 1
        rng = random.Random(self.seed)
        faults: list[FaultDescriptor] = []
        for fault_id in range(count):
            kind = self._pick_kind(rng)
            time = rng.randint(1, total_instructions - 1)
            core = rng.randrange(self.cores)
            address = None
            register = 0
            cache_level = None
            if kind == TARGET_GPR:
                register = rng.randrange(self.arch.num_gpr)
                bit = rng.randrange(self.arch.xlen)
            elif kind == TARGET_FPR:
                register = rng.randrange(max(1, self.arch.num_fpr))
                bit = rng.randrange(64 if self.arch.has_hw_float else 32)
            elif kind == TARGET_PC:
                bit = rng.randrange(self.arch.xlen)
            elif kind == TARGET_CACHE:
                cache_level = CACHE_LEVELS[rng.randrange(len(CACHE_LEVELS))]
                register = rng.randrange(1 << 20)  # resident-line selector
                bit = rng.randrange(CACHE_LINE_BYTES * 8)
            process = rng.randrange(num_processes)
            if kind == TARGET_MEMORY:
                # drawn after the process: the address must come from the
                # target process's own injectable layout
                if not memory_ranges:
                    raise SimulatorError("memory fault requested but no memory ranges provided")
                ranges = memory_ranges[process]
                if not ranges:
                    raise SimulatorError(f"process {process} has no injectable memory ranges")
                base, size = ranges[rng.randrange(len(ranges))][:2]
                address = base + rng.randrange(size)
                bit = rng.randrange(8)
            faults.append(
                FaultDescriptor(
                    fault_id=fault_id,
                    injection_time=time,
                    core_id=core,
                    target_kind=kind,
                    register_index=register,
                    bit=bit,
                    address=address,
                    process_index=process,
                    cache_level=cache_level,
                )
            )
        return faults


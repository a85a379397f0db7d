"""Processor model presets.

The paper evaluates six processor models: ARM Cortex-A9 (ARMv7) and
ARM Cortex-A72 (ARMv8), each in single, dual and quad-core variants,
all with the same two-level cache hierarchy (L1I 32kB/4-way,
L1D 32kB/4-way, L2 512kB/8-way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.arch import ARMV7, ARMV8, ArchSpec, get_arch
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import CORTEX_A_CACHE_CONFIG


@dataclass(frozen=True)
class ProcessorConfig:
    """One of the six processor models used in the study."""

    name: str
    arch: ArchSpec
    num_cores: int
    cache_configs: dict[str, CacheConfig] = field(default_factory=lambda: dict(CORTEX_A_CACHE_CONFIG))

    @property
    def model_id(self) -> str:
        return f"{self.arch.cpu_model}x{self.num_cores}"

    def describe(self) -> dict:
        info = {
            "name": self.name,
            "cores": self.num_cores,
            "model_id": self.model_id,
        }
        info.update(self.arch.describe())
        for level, cfg in self.cache_configs.items():
            info[f"{level}_size_kb"] = cfg.size_bytes // 1024
            info[f"{level}_assoc"] = cfg.associativity
        return info


def _make_models() -> dict[str, ProcessorConfig]:
    models = {}
    for arch in (ARMV7, ARMV8):
        for cores in (1, 2, 4):
            name = f"{arch.cpu_model}x{cores}"
            models[name] = ProcessorConfig(name=name, arch=arch, num_cores=cores)
    return models


#: The six processor models of Section 3.1.
PROCESSOR_MODELS: dict[str, ProcessorConfig] = _make_models()


def get_processor_model(name: str) -> ProcessorConfig:
    """Look up a processor model preset by name (e.g. ``cortex-a9x2``)."""
    key = name.lower()
    if key in PROCESSOR_MODELS:
        return PROCESSOR_MODELS[key]
    raise KeyError(f"unknown processor model {name!r}; expected one of {sorted(PROCESSOR_MODELS)}")


def make_processor_config(isa: str, cores: int) -> ProcessorConfig:
    """Build a processor configuration from an ISA name and core count."""
    arch = get_arch(isa)
    if cores < 1:
        raise ValueError(f"invalid core count {cores}")
    return ProcessorConfig(name=f"{arch.cpu_model}x{cores}", arch=arch, num_cores=cores)

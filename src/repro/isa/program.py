"""Linked program image: the unit the kernel loader consumes.

A :class:`Program` is the output of the code generator / linker: a flat
instruction list with resolved branch targets, an initialised data
image with a symbol table, and metadata describing how much heap and
stack the loader should reserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.isa.arch import ArchSpec
from repro.isa.encoding import encode_program
from repro.isa.instructions import Instr, format_instr


@dataclass
class DataSymbol:
    """A named region inside the data segment."""

    name: str
    offset: int
    size: int
    element_size: int = 4
    is_float: bool = False


@dataclass
class Program:
    """A fully linked guest program for one architecture."""

    arch: ArchSpec
    instructions: list[Instr] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data_image: bytearray = field(default_factory=bytearray)
    symbols: dict[str, DataSymbol] = field(default_factory=dict)
    entry: str = "_start"
    bss_size: int = 0
    heap_size: int = 1 << 16
    stack_size: int = 1 << 14
    name: str = "a.out"
    #: map from instruction index to the function that owns it
    function_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: map from instruction index to (source function, source line) pairs
    line_table: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: debug map: function -> variable -> home, where a home is
    #: ("reg"|"freg"|"stack", index).  Lets analyses report per-variable
    #: ranks from register-level results.
    variable_homes: dict[str, dict[str, tuple[str, int]]] = field(default_factory=dict)

    @property
    def text_size(self) -> int:
        return len(self.instructions) * 4

    @property
    def data_size(self) -> int:
        return len(self.data_image)

    def label_address(self, label: str, text_base: int = 0) -> int:
        if label not in self.labels:
            raise LinkError(f"undefined label {label!r} in program {self.name!r}")
        return text_base + 4 * self.labels[label]

    def entry_index(self) -> int:
        if self.entry not in self.labels:
            raise LinkError(f"entry point {self.entry!r} not defined in program {self.name!r}")
        return self.labels[self.entry]

    def function_of(self, instr_index: int) -> str:
        """Name of the function containing an instruction index."""
        for name, (start, end) in self.function_ranges.items():
            if start <= instr_index < end:
                return name
        return "<unknown>"

    def machine_code(self) -> bytes:
        """Pseudo machine code image of the text segment."""
        return encode_program(self.instructions)

    def disassemble(self, start: int = 0, count: int | None = None) -> str:
        """Human readable listing of (part of) the text segment."""
        end = len(self.instructions) if count is None else min(len(self.instructions), start + count)
        index_to_label = {}
        for label, idx in self.labels.items():
            index_to_label.setdefault(idx, []).append(label)
        lines = []
        for idx in range(start, end):
            for label in index_to_label.get(idx, []):
                lines.append(f"{label}:")
            lines.append(f"  {idx * 4:#06x}  {format_instr(self.instructions[idx], self.arch)}")
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "arch": self.arch.name,
            "instructions": len(self.instructions),
            "text_bytes": self.text_size,
            "data_bytes": self.data_size,
            "bss_bytes": self.bss_size,
            "functions": len(self.function_ranges),
        }

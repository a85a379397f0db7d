"""Linker: lays out global data, compiles every function and resolves labels.

The linker is what turns a set of MiniC modules (application code plus
the guest runtime libraries) into a loadable :class:`~repro.isa.program.Program`
for one target architecture — the reproduction's equivalent of invoking
the GCC 6.2 cross compiler with ``-O3 -mcpu=<target>``.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.compiler import ast
from repro.compiler.codegen import GlobalSlot, LinkContext, compile_function
from repro.compiler.optimizer import optimize_module
from repro.errors import LinkError
from repro.hardening.schemes import normalize_hardening
from repro.isa.arch import ArchSpec
from repro.isa.instructions import Instr, Op
from repro.isa.program import DataSymbol, Program
from repro.kernel.loader import TEXT_BASE
from repro.kernel.syscalls import Syscall

_BRANCH_LABEL_OPS = {Op.B, Op.BCC, Op.CBZ, Op.CBNZ, Op.BL}


def _element_size(arch: ArchSpec, typ: str) -> int:
    if typ == ast.BYTE:
        return 1
    if typ == ast.FLOAT:
        return arch.float_bytes
    return arch.word_bytes


def _encode_value(arch: ArchSpec, typ: str, value) -> bytes:
    if typ == ast.FLOAT:
        if arch.float_bytes == 8:
            return struct.pack("<d", float(value))
        return struct.pack("<f", float(value))
    if typ == ast.BYTE:
        return bytes([int(value) & 0xFF])
    return (int(value) & arch.word_mask).to_bytes(arch.word_bytes, "little")


def _layout_globals(modules: Sequence[ast.Module], arch: ArchSpec) -> tuple[dict[str, GlobalSlot], bytearray, dict[str, DataSymbol]]:
    slots: dict[str, GlobalSlot] = {}
    symbols: dict[str, DataSymbol] = {}
    image = bytearray()
    for module in modules:
        for declaration in module.globals:
            if declaration.name in slots:
                raise LinkError(f"global {declaration.name!r} defined in more than one module")
            elem = _element_size(arch, declaration.type)
            offset = (len(image) + elem - 1) & ~(elem - 1)
            image.extend(b"\x00" * (offset - len(image)))
            values: Iterable
            if declaration.init is None:
                values = [0] * declaration.count
            elif isinstance(declaration.init, (int, float)):
                values = [declaration.init] + [0] * (declaration.count - 1)
            else:
                init = list(declaration.init)
                if len(init) > declaration.count:
                    raise LinkError(
                        f"global {declaration.name!r} has {len(init)} initialisers for {declaration.count} elements"
                    )
                values = init + [0] * (declaration.count - len(init))
            for value in values:
                image.extend(_encode_value(arch, declaration.type, value))
            slots[declaration.name] = GlobalSlot(
                name=declaration.name,
                offset=offset,
                elem_size=elem,
                type=declaration.type,
                count=declaration.count,
            )
            symbols[declaration.name] = DataSymbol(
                name=declaration.name,
                offset=offset,
                size=elem * declaration.count,
                element_size=elem,
                is_float=declaration.type == ast.FLOAT,
            )
    return slots, image, symbols


def _collect_signatures(modules: Sequence[ast.Module]) -> dict[str, tuple[str, tuple[str, ...]]]:
    signatures: dict[str, tuple[str, tuple[str, ...]]] = {}
    for module in modules:
        for function in module.functions:
            if function.name in signatures:
                raise LinkError(f"function {function.name!r} defined in more than one module")
            signatures[function.name] = (function.return_type, tuple(t for _, t in function.params))
    return signatures


def _startup_stubs() -> tuple[list[Instr], dict[str, int], dict[str, tuple[int, int]]]:
    """The ``_start`` and ``_thread_exit`` stubs prepended to every program."""
    instrs = [
        # _start: the loader passes (rank, nranks, nthreads) in the first
        # argument registers; they flow straight into main().
        Instr(Op.BL, imm=0, label="main"),
        # main's return value is already in the return/first-arg register.
        Instr(Op.SVC, imm=int(Syscall.EXIT)),
        # _thread_exit: target of the link register for spawned threads.
        Instr(Op.SVC, imm=int(Syscall.THREAD_EXIT)),
    ]
    labels = {"_start": 0, "_thread_exit": 2}
    ranges = {"_start": (0, 2), "_thread_exit": (2, 3)}
    return instrs, labels, ranges


def link(
    modules: Sequence[ast.Module],
    arch: ArchSpec,
    name: str = "a.out",
    hardening: str | None = None,
    harden_modules: Sequence[str] | None = None,
    shadow_ranks: dict | None = None,
) -> Program:
    """Link a set of MiniC modules into an executable program.

    ``hardening`` selects a compiler-implemented fault-tolerance scheme
    (``"dwc"``, ``"cfc"``, ``"dwc+cfc"``; ``None``/``"off"`` builds the
    plain baseline).  The transform runs after optimisation and before
    code generation (``optimize_module -> harden_module ->
    compile_module``), so both ISA backends inherit identical
    instrumentation.  ``harden_modules`` restricts the transform to the
    named modules (campaigns harden the application module only —
    selective hardening); by default every module except the trap
    library itself is hardened.  The guest trap library is linked in
    automatically when hardening is enabled.

    ``shadow_ranks`` (function -> variable names) feeds selective
    ``dwcN`` schemes: only the named variables are duplicated.  Callers
    obtain it from the static vulnerability analysis of the *baseline*
    build (:func:`repro.staticlint.top_variables`).
    """
    hardening = normalize_hardening(hardening)
    modules = [optimize_module(module) for module in modules]
    if hardening is not None:
        from repro.hardening import FT_MODULE_NAME, FT_TRAP, build_ft_module, harden_module

        if not any(f.name == FT_TRAP for module in modules for f in module.functions):
            modules = modules + [optimize_module(build_ft_module())]
        if harden_modules is None:
            selected = {module.name for module in modules if module.name != FT_MODULE_NAME}
        else:
            selected = set(harden_modules)
        modules = [
            harden_module(module, hardening, shadow_ranks=shadow_ranks)
            if module.name in selected
            else module
            for module in modules
        ]
    slots, image, symbols = _layout_globals(modules, arch)
    signatures = _collect_signatures(modules)
    if "main" not in signatures:
        raise LinkError(f"program {name!r} does not define a main() function")
    ctx = LinkContext(arch=arch, globals=slots, signatures=signatures)

    instructions, labels, function_ranges = _startup_stubs()
    line_table: dict[int, tuple[str, int]] = {}
    variable_homes: dict[str, dict[str, tuple[str, int]]] = {}
    for module in modules:
        for function in module.functions:
            body, local_labels, local_lines, homes = compile_function(function, ctx)
            variable_homes[function.name] = homes
            base = len(instructions)
            for label, index in local_labels.items():
                if label in labels:
                    raise LinkError(f"duplicate label {label!r}")
                labels[label] = base + index
            for index, record in local_lines.items():
                line_table[base + index] = record
            function_ranges[function.name] = (base, base + len(body))
            instructions.extend(body)

    for instr in instructions:
        if instr.label is None:
            continue
        if instr.label not in labels:
            raise LinkError(f"undefined symbol {instr.label!r} referenced from {name!r}")
        target = labels[instr.label]
        if instr.op in _BRANCH_LABEL_OPS:
            instr.imm = target
        elif instr.op == Op.MOVI:
            instr.imm = TEXT_BASE + 4 * target
        else:
            raise LinkError(f"cannot relocate label on opcode {instr.op!r}")

    return Program(
        arch=arch,
        instructions=instructions,
        labels=labels,
        data_image=image,
        symbols=symbols,
        entry="_start",
        bss_size=0,
        name=name,
        function_ranges=function_ranges,
        line_table=line_table,
        variable_homes=variable_homes,
    )

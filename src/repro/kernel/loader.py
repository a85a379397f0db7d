"""Program loader: builds the guest address space of a process.

Address-space layout (identical for every process)::

    0x0001_0000  text   (read / execute, pseudo machine code image)
    0x0010_0000  data   (initialised data + bss, read / write)
    ...          heap   (read / write, grows via SBRK)
    0x0080_0000  stacks (one per thread, separated by unmapped guard gaps)

The gaps between segments are unmapped on purpose: a corrupted base
register that lands in a gap produces a segmentation fault, which is
the mechanism behind the paper's Unexpected Termination outcomes.
"""

from __future__ import annotations

from repro.cpu.core import CoreContext
from repro.errors import SimulatorError
from repro.isa.arch import ArchSpec
from repro.isa.program import Program
from repro.memory.main_memory import PERM_RW, PERM_RX, AddressSpace

TEXT_BASE = 0x0001_0000
DATA_BASE = 0x0010_0000
STACK_REGION_BASE = 0x0080_0000
STACK_GUARD = 0x1000
PAGE = 0x1000


def _align_up(value: int, alignment: int = PAGE) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def make_context(
    arch: ArchSpec,
    pc: int,
    sp: int,
    gp: int,
    args: tuple[int, ...] = (),
    lr: int = 0,
) -> CoreContext:
    """Build a fresh architectural context for a new thread."""
    gprs = [0] * arch.num_gpr
    abi = arch.abi
    gprs[abi.sp] = sp & arch.word_mask
    gprs[abi.gp] = gp & arch.word_mask
    gprs[abi.lr] = lr & arch.word_mask
    for index, value in enumerate(args):
        if index >= len(abi.arg_regs):
            raise SimulatorError(f"too many initial arguments ({len(args)}) for {arch.name}")
        gprs[abi.arg_regs[index]] = value & arch.word_mask
    fprs = [0] * max(1, arch.num_fpr)
    return CoreContext(tuple(gprs), tuple(fprs), pc, (False, False, False, False))


class ProgramLoader:
    """Builds address spaces and initial thread contexts from programs."""

    def __init__(self, arch: ArchSpec, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.arch = arch
        self.text_base = text_base
        self.data_base = data_base

    def build_address_space(self, program: Program, name: str) -> tuple[AddressSpace, dict]:
        """Create the address space for one process.

        Returns the address space plus a layout dictionary with the heap
        break, heap limit and the base from which thread stacks are
        carved.
        """
        if program.arch.name != self.arch.name:
            raise SimulatorError(
                f"program {program.name!r} was compiled for {program.arch.name} "
                f"but the loader targets {self.arch.name}"
            )
        space = AddressSpace(name=name)

        text_size = _align_up(max(program.text_size, 4))
        text = space.map("text", self.text_base, text_size, PERM_RX)
        text.load_image(program.machine_code())

        data_size = _align_up(max(program.data_size + program.bss_size, 4))
        data = space.map("data", self.data_base, data_size, PERM_RW)
        if program.data_image:
            data.load_image(bytes(program.data_image))

        heap_base = _align_up(self.data_base + data_size + PAGE)
        heap_size = _align_up(max(program.heap_size, PAGE))
        space.map("heap", heap_base, heap_size, PERM_RW)

        layout = {
            "text_base": self.text_base,
            "data_base": self.data_base,
            "heap_base": heap_base,
            "heap_break": heap_base,
            "heap_limit": heap_base + heap_size,
            "stack_region_base": STACK_REGION_BASE,
        }
        return space, layout

    def map_stack(self, space: AddressSpace, stack_base: int, stack_size: int, tid: int):
        """Map a stack segment for one thread; returns (segment, initial SP)."""
        size = _align_up(max(stack_size, PAGE))
        segment = space.map(f"stack.t{tid}", stack_base, size, PERM_RW)
        initial_sp = segment.end - 16
        return segment, initial_sp

    def initial_context(
        self,
        program: Program,
        sp: int,
        args: tuple[int, ...] = (),
    ) -> CoreContext:
        """Architectural context for a process' first thread."""
        entry = program.label_address(program.entry, self.text_base)
        return make_context(self.arch, entry, sp, self.data_base, args)

    def thread_context(
        self,
        program: Program,
        entry_address: int,
        sp: int,
        args: tuple[int, ...] = (),
    ) -> CoreContext:
        """Architectural context for a thread created at runtime.

        The link register points at the ``_thread_exit`` stub so that a
        thread function returning normally terminates its thread.
        """
        exit_stub = program.label_address("_thread_exit", self.text_base)
        return make_context(self.arch, entry_address, sp, self.data_base, args, lr=exit_stub)

"""Def-use summary of a golden run: what each GPR meets next.

A register upset is harmless in two cases that the golden run alone can
tell.  When the flipped register's next access is a *write*, nothing
ever reads the wrong value: the faulty run is the golden run, and the
fault is ``Vanished``.  When the register is *never* accessed again,
the run is again the golden run, ending with one wrong register: the
fault is ``ONA``.  Only a register read next needs simulating.  This is
dynamic ACE analysis (ACE: bits required for Architecturally Correct
Execution), as in def-use fault pruning.

The log
    While the golden run executes, every core shares one
    ``access_log`` list (see :func:`repro.cpu.engine.execute_burst`
    and :class:`repro.kernel.kernel.Kernel`).  Each engine burst appends
    ``(core_id, text)`` and then every block it dispatches, before
    running it; a budget tail appears as its length-1 block.  The
    kernel appends ``(core_id, event, tid)``: an attach loads every
    register of the core from thread ``tid``'s saved context (a write of
    all of them), a detach saves every one into it.  A detach is not a
    read: it hands the value on (see "The summary").  A wake attach
    also writes the result of the call the thread blocked in into the
    return register.  The golden run's address spaces record too
    (:meth:`repro.memory.main_memory.AddressSpace.record`): every kernel
    copy into this log, as a ``Transfer``, and every load and store
    into an array beside it; the summary keeps both for
    :mod:`repro.injection.fates`.  The log is in execution order, so
    the sum of the block lengths before an item is the global
    instruction count when it ran.

Positions
    The instruction executed after ``n`` instructions sits at position
    ``n``; a fault injected at instruction count ``T`` precedes every
    access at a position ``>= T``.  A scheduler event (between bursts)
    sits at the count it happened at, so an attach or detach at ``T``
    comes after the fault.  A detach from inside an SVC sits at the
    SVC's own position, one less than the count that includes it.

Masks
    Every instruction has a first-access mask pair from
    :mod:`repro.isa.roles`: registers it reads, and registers it writes
    without reading.  ``SVC`` uses the exact roles of its system call
    (:data:`repro.kernel.syscalls.SYSCALL_ROLES`), not the table's
    conservative entry: it reads only the arguments that call takes and
    writes the return register only when the call completes.  A call
    that may block counts as reading the return register, since whether
    it writes it depends on the run.  Folding the masks backwards over
    a decoded block's instructions gives its suffix masks, so one log
    item costs one lookup whatever its length.  An attach has the mask
    pair of a write of every register; a detach has no masks of its
    own.

The summary
    A register value meets the same accesses whichever core holds it,
    so the summary follows values, not cores.  At a detach of thread
    ``X`` on core ``c`` a value splits into two copies.  The core copy
    stays on ``c`` until ``c``'s next item, an attach that overwrites
    it; with no later item it stays wrong to the end.  The thread copy
    goes into ``X``'s saved context and comes out at ``X``'s next
    attach, on any core, where it meets whatever that core does next
    (a wake attach writes the return register first); if ``X`` never
    attaches again it is dropped, since saved contexts are not part of
    a run's final state.  The value is read if either copy is, stays
    wrong if neither is read and either stays, and is overwritten only
    when both are.

    One backward pass over every core's items in log order gives, at
    every item, the registers read first and written first from its
    start on.  It carries the masks of each core's next item and, per
    thread, the masks just after the thread's next attach, so a detach
    combines the two copies in one step; blocks between events fold
    per core as before.  A query bisects the core's items for the
    first one not yet finished at ``T``; inside a block it takes the
    rest of the block from the static suffix masks and continues with
    the next item.  A saved context that differs from golden at ``T``
    is the thread copy alone: :meth:`DefUseSummary.context_access`
    looks up the thread's first attach at or after ``T``.

A log whose block lengths do not add up to the golden run's
instruction count (an interpreter burst logs nothing) builds no summary
at all, and the injector then decides nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cpu.engine import Block
from repro.isa.arch import ArchSpec
from repro.isa.instructions import BLOCK_TERMINATOR_OPS, Instr, Op
from repro.isa.roles import gpr_defs, gpr_uses
from repro.kernel.kernel import DETACH, SVC_DETACH, WAKE_ATTACH
from repro.kernel.syscalls import SYSCALL_ROLES, Syscall, SyscallRoles
from repro.memory.main_memory import Transfer

#: Next-access kinds of a register from an instruction count on.
READ, WRITE, NEVER = "read", "write", "never"

#: Per-text tables: (instruction reads, instruction writes, suffix
#: reads, suffix writes, memory roles), each indexed by instruction.
TextMasks = tuple[list[int], list[int], list[int], list[int], list]

#: (size, destination) of a load or store: a load's destination GPR,
#: :data:`READ` for an FP load, :data:`WRITE` for a store.
MemoryRole = tuple[int, object]

_LOADS, _STORES = (Op.LDR, Op.LDRB, Op.FLDR), (Op.STR, Op.STRB, Op.FSTR)

#: Rows that mark an attach and a detach in a summary's item rows.  The
#: flat mask tables hold empty masks there, which nothing reads: the
#: backward pass handles events itself, and a query never lands inside
#: one.
_ATTACH_ROW, _DETACH_ROW = 0, 1


def _mask(registers: Sequence[int]) -> int:
    mask = 0
    for register in registers:
        mask |= 1 << register
    return mask


def instruction_roles(instr: Instr, arch: ArchSpec) -> tuple[list[int], list[int]]:
    """(read, written) integer registers of one instruction, sorted.

    ``SVC`` resolves its system call from the immediate; an unknown
    call number keeps the table's conservative entry.
    """
    abi = arch.abi
    if instr.op == Op.SVC:
        roles: Optional[SyscallRoles] = None
        try:
            roles = SYSCALL_ROLES[Syscall(instr.imm)]
        except ValueError:
            pass
        if roles is not None:
            args = 0 if roles.float_arg and arch.has_hw_float else roles.args
            uses = list(abi.arg_regs[:args])
            defs: list[int] = []
            if roles.returns:
                (uses if roles.blocks else defs).append(abi.ret_reg)
            return sorted(set(uses)), defs
    return sorted(gpr_uses(instr, abi)), sorted(gpr_defs(instr, abi))


def memory_role(instr: Instr, arch: ArchSpec) -> Optional[MemoryRole]:
    """The :data:`MemoryRole` of a load or store, None for other instructions."""
    op = instr.op
    if op not in _LOADS and op not in _STORES:
        return None
    if op in (Op.FLDR, Op.FSTR):
        size = arch.float_bytes
    else:
        size = arch.word_bytes if op in (Op.LDR, Op.STR) else 1
    if op in _STORES:
        return size, WRITE
    return size, READ if op == Op.FLDR else instr.rd


def text_masks(text: Sequence[Instr], arch: ArchSpec) -> TextMasks:
    """First-access masks of every instruction and every block suffix,
    and every instruction's :func:`memory_role`.

    A suffix runs from an instruction to the end of its decoded run
    (the next block terminator), like :class:`repro.cpu.engine.Block`.
    """
    count = len(text)
    reads, writes = [0] * count, [0] * count
    suffix_reads, suffix_writes = [0] * count, [0] * count
    roles: list = [None] * count
    # operand fields -> (read, written, memory role); programs repeat few shapes
    shapes: dict[tuple, tuple[int, int, Optional[MemoryRole]]] = {}
    after_reads = after_writes = 0
    for index in range(count - 1, -1, -1):
        instr = text[index]
        shape = (instr.op, instr.rd, instr.rn, instr.rm, instr.imm if instr.op == Op.SVC else None)
        known = shapes.get(shape)
        if known is None:
            uses, defs = instruction_roles(instr, arch)
            read = _mask(uses)
            known = shapes[shape] = (read, _mask(defs) & ~read, memory_role(instr, arch))
        read, written, roles[index] = known
        reads[index], writes[index] = read, written
        if instr.op in BLOCK_TERMINATOR_OPS:
            after_reads = after_writes = 0
        touched = read | written
        after_reads = read | (after_reads & ~touched)
        after_writes = written | (after_writes & ~touched)
        suffix_reads[index], suffix_writes[index] = after_reads, after_writes
    return reads, writes, suffix_reads, suffix_writes, roles


@dataclass
class DefUseSummary:
    """Per-core next-access table of a golden run's integer registers.

    Every list in ``ends``/``starts``/``reads``/``writes``/``rows``
    holds one entry per core item (a block or an event) in execution
    order: its position span ``[start, end)``, the registers a value
    held on the core before the item is read by first and written by
    first, through every copy a detach makes, and its row in the flat
    ``suffix_reads``/``suffix_writes`` tables (the row of its first
    instruction for a block, complemented for a length-1 block).
    ``attaches`` holds, per thread id, ``(position, reads, writes)`` of
    every attach of the thread in execution order: the masks a value
    loaded from its saved context there meets.

    The memory accesses the golden run logged ride along, for
    :mod:`repro.injection.fates`: ``accesses`` holds the loads and
    stores as tagged addresses in execution order, ``bursts`` the core
    and first item of every engine burst, ``transfers`` every kernel
    copy with its position, and ``memory_roles`` the
    :func:`memory_role` of each row's instruction.
    """

    num_gpr: int
    ends: list[list[int]]
    starts: list[list[int]]
    reads: list[list[int]]
    writes: list[list[int]]
    rows: list[list[int]]
    suffix_reads: list[int]
    suffix_writes: list[int]
    memory_roles: list = field(default_factory=list)
    accesses: Sequence[int] = ()
    bursts: list[tuple[int, int]] = field(default_factory=list)
    transfers: list[tuple[int, Transfer]] = field(default_factory=list)
    attaches: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)

    @property
    def num_cores(self) -> int:
        return len(self.ends)

    def next_access(self, core_id: int, register: int, time: int) -> str:
        """:data:`READ`, :data:`WRITE` or :data:`NEVER`: what a flip of
        ``register`` on ``core_id`` at instruction count ``time`` meets next."""
        ends = self.ends[core_id]
        item = bisect_right(ends, time)
        if item == len(ends):
            return NEVER
        reads, writes = self.reads[core_id], self.writes[core_id]
        start = self.starts[core_id][item]
        if start < time:
            # Inside a block: the rest of it, then whatever follows.
            at = self.rows[core_id][item] + time - start
            read, written = self.suffix_reads[at], self.suffix_writes[at]
            after_reads = after_writes = 0
            if item + 1 < len(ends):
                after_reads, after_writes = reads[item + 1], writes[item + 1]
            touched = read | written
            read |= after_reads & ~touched
            written |= after_writes & ~touched
        else:
            read, written = reads[item], writes[item]
        return _kind(read, written, register)

    def context_access(self, tid: int, register: int, time: int) -> str:
        """What a flip of ``register`` in the saved context of thread
        ``tid``, which is not running at instruction count ``time``,
        meets next: the masks after its first attach at or after
        ``time``.  :data:`WRITE` also when the thread never attaches
        again: the context is dropped, like an overwritten value."""
        attaches = self.attaches.get(tid, ())
        at = bisect_left(attaches, (time,))
        if at == len(attaches):
            return WRITE
        _position, read, written = attaches[at]
        return _kind(read, written, register)


def _kind(read: int, written: int, register: int) -> str:
    bit = 1 << register
    if read & bit:
        return READ
    return WRITE if written & bit else NEVER


def build_summary(
    log: list,
    num_cores: int,
    arch: ArchSpec,
    total_instructions: int,
    memory: Sequence[int] = (),
) -> Optional[DefUseSummary]:
    """The summary of a golden run's ``access_log``; None if it is incomplete.

    ``memory`` holds the run's loads and stores in execution order (see
    :meth:`repro.memory.main_memory.AddressSpace.record`); the summary
    keeps it with the core and first item of every burst, which is
    enough to hand each core its share later.
    """
    everything = (1 << arch.num_gpr) - 1
    # Flat tables: (instruction reads, instruction writes, suffix reads,
    # suffix writes, memory roles), the unused attach and detach rows
    # first, then each text's rows at its offset.
    tables: TextMasks = ([0, 0], [0, 0], [0, 0], [0, 0], [None, None])
    bursts: list[tuple[int, int]] = []
    transfers: list[tuple[int, Transfer]] = []
    #: (core, item index, tid, event) of every attach and detach, in log order
    events: list[tuple[int, int, int, str]] = []
    offsets: dict[int, int] = {}
    ends: list[list[int]] = [[] for _ in range(num_cores)]
    starts: list[list[int]] = [[] for _ in range(num_cores)]
    rows: list[list[int]] = [[] for _ in range(num_cores)]
    # The loop runs once per block the golden run dispatched, so it binds
    # the current core's appends once per burst.
    add_end, add_start, add_row = ends[0].append, starts[0].append, rows[0].append
    block_class, transfer_class = Block, Transfer
    offset = count = 0
    for item in log:
        kind = item.__class__
        if kind is block_class:
            length = item.length
            add_start(count)
            count += length
            add_end(count)
            add_row(offset + item.start if length > 1 else ~(offset + item.start))
            continue
        if kind is transfer_class:
            # A kernel copy runs inside the SVC that ends the last block.
            transfers.append((count - 1, item))
            continue
        if len(item) == 3:
            core_id, what, tid = item
            position = count - 1 if what == SVC_DETACH else count
            events.append((core_id, len(rows[core_id]), tid, what))
            ends[core_id].append(position + 1)
            starts[core_id].append(position)
            rows[core_id].append(_DETACH_ROW if what in (DETACH, SVC_DETACH) else _ATTACH_ROW)
            continue
        core_id, what = item
        bursts.append((core_id, len(rows[core_id])))
        add_end, add_start, add_row = ends[core_id].append, starts[core_id].append, rows[core_id].append
        offset = offsets.get(id(what), -1)
        if offset < 0:
            offset = offsets[id(what)] = len(tables[0])
            for table, masks in zip(tables, text_masks(what, arch)):
                table.extend(masks)
    if count != total_instructions:
        return None
    instr_reads, instr_writes, suffix_reads, suffix_writes, memory_roles = tables
    # Backwards over every core's items in log order.  Blocks between two
    # events of a core meet only that core's later items, so they fold per
    # core, down to the next event back; an event needs the masks of its
    # core's next item and, for a detach, of its thread's next attach.
    reads: list[list[int]] = [[] for _ in range(num_cores)]
    writes: list[list[int]] = [[] for _ in range(num_cores)]
    #: per core: (reads, writes) of its next item and the items not folded yet
    after = [(0, 0)] * num_cores
    unfolded = [len(core_rows) for core_rows in rows]
    #: per thread: (reads, writes) just after its next attach
    resumed: dict[int, tuple[int, int]] = {}
    attaches: dict[int, list[tuple[int, int, int]]] = {}
    ret_bit = 1 << arch.abi.ret_reg

    def fold(core_id: int, first: int) -> tuple[int, int]:
        """Fold the core's blocks from the last unfolded one down to ``first``."""
        after_reads, after_writes = after[core_id]
        add_read, add_write = reads[core_id].append, writes[core_id].append
        # the tables as locals: closure cells are slower to read per row
        block_reads, block_writes = suffix_reads, suffix_writes
        single_reads, single_writes = instr_reads, instr_writes
        for row in reversed(rows[core_id][first : unfolded[core_id]]):
            if row >= 0:
                read, written = block_reads[row], block_writes[row]
            else:
                read, written = single_reads[~row], single_writes[~row]
            # read | (after & ~(read | written)), one operation fewer
            after_reads = read | (after_reads & ~written)
            after_writes = written | (after_writes & ~read)
            add_read(after_reads)
            add_write(after_writes)
        return after_reads, after_writes

    for core_id, index, tid, what in reversed(events):
        read, written = fold(core_id, index + 1)
        if rows[core_id][index] == _DETACH_ROW:
            # the core copy meets the core's next item, the thread copy
            # the thread's next attach (none: the context is dropped)
            thread_read, thread_written = resumed.get(tid, (0, everything))
            read, written = read | thread_read, written & thread_written
        else:
            if what == WAKE_ATTACH:
                read, written = read & ~ret_bit, written | ret_bit
            resumed[tid] = (read, written)
            attaches.setdefault(tid, []).append((starts[core_id][index], read, written))
            read, written = 0, everything
        reads[core_id].append(read)
        writes[core_id].append(written)
        after[core_id] = (read, written)
        unfolded[core_id] = index
    for core_id in range(num_cores):
        fold(core_id, 0)
        reads[core_id].reverse()
        writes[core_id].reverse()
    for thread_attaches in attaches.values():
        thread_attaches.reverse()
    return DefUseSummary(
        arch.num_gpr, ends, starts, reads, writes, rows, suffix_reads, suffix_writes,
        memory_roles, memory, bursts, transfers, attaches,
    )

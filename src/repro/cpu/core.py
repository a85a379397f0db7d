"""Instruction-accurate CPU core.

One :class:`Core` models a single hardware core of the simulated
processor.  The kernel scheduler attaches guest threads to cores; the
core then executes the thread's text one instruction per :meth:`step`
call, updating its statistics and raising :class:`~repro.errors.GuestFault`
subclasses on processor exceptions.

The core is deliberately architectural: there is no pipeline model.
Timing is approximated by per-instruction and cache-latency cycle
counts, which feed the profiling statistics the paper's data-mining
stage consumes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cpu import alu, fpu
from repro.cpu import engine as block_engine
from repro.cpu.engine import COND_FUNCS
from repro.cpu.statistics import CoreStats
from repro.errors import AlignmentFault, InstructionFault, SimulatorError
from repro.isa.arch import ArchSpec
from repro.isa.instructions import Cond, Instr, Op
from repro.isa.registers import FloatRegisterFile, RegisterFile
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.main_memory import AddressSpace


class CoreContext:
    """Snapshot of the architectural state of a core (for context switches)."""

    __slots__ = ("gprs", "fprs", "pc", "flags")

    def __init__(self, gprs, fprs, pc, flags):
        self.gprs = gprs
        self.fprs = fprs
        self.pc = pc
        self.flags = flags


class Core:
    """A single simulated CPU core."""

    # Slots matter for throughput: the execution engine stores the PC
    # and NZCV flags through these attributes in every decoded block.
    __slots__ = (
        "core_id",
        "arch",
        "regs",
        "fregs",
        "pc",
        "flag_n",
        "flag_z",
        "flag_c",
        "flag_v",
        "caches",
        "model_caches",
        "syscall_handler",
        "stats",
        "text",
        "text_base",
        "mem",
        "thread",
        "halted",
        "trace_hook",
        "use_engine",
        "access_log",
        "_decoded",
    )

    def __init__(
        self,
        core_id: int,
        arch: ArchSpec,
        caches: Optional[CacheHierarchy] = None,
        syscall_handler: Optional[Callable[["Core", int], None]] = None,
        model_caches: bool = True,
        use_engine: bool = True,
    ) -> None:
        self.core_id = core_id
        self.arch = arch
        self.regs = RegisterFile(arch)
        self.fregs = FloatRegisterFile(arch)
        self.pc = 0
        self.flag_n = False
        self.flag_z = False
        self.flag_c = False
        self.flag_v = False
        self.caches = caches
        self.model_caches = model_caches and caches is not None
        self.syscall_handler = syscall_handler
        self.stats = CoreStats()
        # Execution context, populated when a thread is attached.
        self.text: list[Instr] = []
        self.text_base = 0
        self.mem: Optional[AddressSpace] = None
        self.thread = None
        self.halted = False
        #: optional per-instruction callback ``hook(core, pc)`` used by the
        #: functional profiler; a non-None hook forces the per-instruction
        #: interpreter (the engine deopt path)
        self.trace_hook = None
        #: False pins this core to the reference interpreter (:meth:`step`
        #: in a loop); the differential tests compare both paths
        self.use_engine = use_engine
        #: the golden run's register-access log, shared by every core of
        #: the system (see :mod:`repro.injection.defuse`); None: no log
        self.access_log = None
        #: per-core reference to the decoded view of ``self.text``
        self._decoded = None

    # -- architectural state handling -----------------------------------------

    def reset(self) -> None:
        self.regs.reset()
        self.fregs.reset()
        self.pc = 0
        self.flag_n = self.flag_z = self.flag_c = self.flag_v = False
        self.halted = False
        self.thread = None
        self.text = []
        self.mem = None
        self._decoded = None

    def save_context(self) -> CoreContext:
        return CoreContext(
            self.regs.snapshot(),
            self.fregs.snapshot(),
            self.pc,
            (self.flag_n, self.flag_z, self.flag_c, self.flag_v),
        )

    def load_context(self, context: CoreContext) -> None:
        self.regs.restore(context.gprs)
        self.fregs.restore(context.fprs)
        self.pc = context.pc
        self.flag_n, self.flag_z, self.flag_c, self.flag_v = context.flags

    def capture_state(self) -> dict:
        """Checkpoint view of this core: architectural state plus counters.

        Thread attachment and cache contents are captured separately by
        the checkpoint subsystem because both reference objects owned by
        other layers (kernel threads, the shared L2).
        """
        return {
            "gprs": self.regs.snapshot(),
            "fprs": self.fregs.snapshot(),
            "pc": self.pc,
            "flags": (self.flag_n, self.flag_z, self.flag_c, self.flag_v),
            "halted": self.halted,
            "stats": self.stats.counters(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore architectural state and counters captured by :meth:`capture_state`."""
        self.regs.restore(state["gprs"])
        self.fregs.restore(state["fprs"])
        self.pc = state["pc"]
        self.flag_n, self.flag_z, self.flag_c, self.flag_v = state["flags"]
        self.halted = state["halted"]
        self.stats = CoreStats.from_counters(state["stats"])

    def architectural_state(self) -> tuple:
        """Hashable view of the architectural state (for ONA detection)."""
        return (
            self.regs.snapshot(),
            self.fregs.snapshot(),
            self.pc,
            self.flag_n,
            self.flag_z,
            self.flag_c,
            self.flag_v,
        )

    # -- condition evaluation ---------------------------------------------------

    def condition_holds(self, cond: Cond) -> bool:
        # Table lookup keyed by the Cond enum value (no if-chain): one
        # index instead of up to eleven comparisons per evaluation.
        if isinstance(cond, int) and 0 <= cond < len(COND_FUNCS):
            return COND_FUNCS[cond](self)
        raise SimulatorError(f"unknown condition {cond!r}")

    # -- execution ---------------------------------------------------------------

    def step(self) -> None:
        """Fetch, decode and execute a single instruction.

        This is the reference interpreter (the engine's ``slow_path``):
        the pre-decoded block engine in :mod:`repro.cpu.engine` must be
        bit-identical to it at every instruction boundary, which the
        differential tests assert.
        """
        pc = self.pc
        offset = pc - self.text_base
        if offset & 0x3:
            raise AlignmentFault(f"misaligned instruction fetch at {pc:#x}", address=pc, core_id=self.core_id)
        index = offset >> 2
        if index < 0 or index >= len(self.text):
            raise InstructionFault(f"instruction fetch outside text segment at {pc:#x}", address=pc, core_id=self.core_id)
        instr = self.text[index]
        if self.trace_hook is not None:
            self.trace_hook(self, pc)
        self.pc = pc + 4
        if self.model_caches:
            self.stats.cycles += self.caches.fetch(pc)
        else:
            self.stats.cycles += 1
        # Array dispatch keyed by the Op enum value (micro-opt over the
        # former dict lookup; undefined opcodes still raise).
        op = instr.op
        handler = _DISPATCH_TABLE[op] if 0 <= op < _DISPATCH_TABLE_LEN else None
        if handler is None:
            raise InstructionFault(f"undefined opcode {instr.op!r} at {pc:#x}", address=pc, core_id=self.core_id)
        handler(self, instr)
        self.stats.instructions += 1

    def run_burst(self, budget: int, stop_on_halt: bool = False) -> int:
        """Run up to ``budget`` instructions; returns the executed count.

        The SoC burst loop calls this once per core per burst instead of
        once per instruction.  Execution uses the pre-decoded block
        engine unless ``use_engine`` is off or a ``trace_hook`` is
        installed (both force the per-instruction interpreter).  Stops
        early when the attached thread changes (syscall detach/kill) or
        — with ``stop_on_halt`` — after HALT.  On a guest fault the
        architectural state *and* statistics are exactly those of the
        interpreter at the raise point.

        The core keeps its decoded view of ``text`` until ``text`` (by
        identity) or ``text_base`` changes, as on a context switch or a
        checkpoint restore.  Decoded text is immutable: nothing rewrites
        an instruction list in place, so no other call is needed.
        """
        if budget <= 0:
            return 0
        if not self.use_engine or self.trace_hook is not None:
            return self._interp_burst(budget, stop_on_halt)
        decoded = self._decoded
        text = self.text
        if decoded is None or decoded.text is not text or decoded.text_base != self.text_base:
            decoded = block_engine.decode_text(
                text,
                self.text_base,
                self.arch,
                self.model_caches,
                self.caches.l1i.config if self.model_caches else None,
            )
            self._decoded = decoded
        return block_engine.execute_burst(self, decoded, budget, stop_on_halt)

    def _interp_burst(self, budget: int, stop_on_halt: bool) -> int:
        """Reference per-instruction burst (engine deopt path)."""
        start = self.stats.instructions
        executed = 0
        thread = self.thread
        while executed < budget and self.thread is thread:
            if stop_on_halt and self.halted:
                break
            self.step()
            executed = self.stats.instructions - start
        return executed

    def run(self, max_instructions: int) -> int:
        """Run until HALT or the instruction budget is exhausted.

        Intended for bare-metal unit tests; the full system uses the
        kernel's scheduler loop instead.  Returns the number of executed
        instructions.
        """
        return self.run_burst(max_instructions, stop_on_halt=True)

    # -- memory helpers -----------------------------------------------------------

    def _effective_address(self, instr: Instr) -> int:
        base = self.regs.read(instr.rn)
        if instr.rm is None:
            address = base + instr.imm
        else:
            address = base + (self.regs.read(instr.rm) << instr.imm)
        return address & self.arch.word_mask

    def _data_access_cycles(self, address: int, write: bool) -> None:
        # Runs BEFORE the architectural memory operation: a pending cache
        # fault on the touched line must commit to backing memory first,
        # so the consuming load reads the corrupted value and a store to
        # the corrupted byte overwrites (masks) it — the write-back fault
        # semantics repro.memory.cache documents.
        if self.model_caches:
            self.stats.cycles += self.caches.data_access(address, write)

    # -- integer execution handlers ------------------------------------------------

    def _exec_add(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) + self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_sub(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) - self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_rsb(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rm) - self.regs.read(i.rn))
        self.stats.int_ops += 1

    def _exec_mul(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) * self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_mulhu(self, i: Instr) -> None:
        self.regs.write(i.rd, alu.multiply_high_unsigned(self.regs.read(i.rn), self.regs.read(i.rm), self.arch.xlen))
        self.stats.int_ops += 1

    def _exec_udiv(self, i: Instr) -> None:
        self.regs.write(i.rd, alu.unsigned_divide(self.regs.read(i.rn), self.regs.read(i.rm), self.arch.xlen))
        self.stats.int_ops += 1

    def _exec_sdiv(self, i: Instr) -> None:
        self.regs.write(i.rd, alu.signed_divide(self.regs.read(i.rn), self.regs.read(i.rm), self.arch.xlen))
        self.stats.int_ops += 1

    def _exec_and(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) & self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_orr(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) | self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_eor(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) ^ self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_bic(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) & ~self.regs.read(i.rm))
        self.stats.int_ops += 1

    def _exec_lsl(self, i: Instr) -> None:
        amount = self.regs.read(i.rm) & (self.arch.xlen - 1)
        self.regs.write(i.rd, self.regs.read(i.rn) << amount)
        self.stats.int_ops += 1

    def _exec_lsr(self, i: Instr) -> None:
        amount = self.regs.read(i.rm) & (self.arch.xlen - 1)
        self.regs.write(i.rd, self.regs.read(i.rn) >> amount)
        self.stats.int_ops += 1

    def _exec_asr(self, i: Instr) -> None:
        amount = self.regs.read(i.rm) & (self.arch.xlen - 1)
        self.regs.write(i.rd, alu.arithmetic_shift_right(self.regs.read(i.rn), amount, self.arch.xlen))
        self.stats.int_ops += 1

    def _exec_addi(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) + i.imm)
        self.stats.int_ops += 1

    def _exec_subi(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) - i.imm)
        self.stats.int_ops += 1

    def _exec_andi(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) & i.imm)
        self.stats.int_ops += 1

    def _exec_orri(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) | i.imm)
        self.stats.int_ops += 1

    def _exec_eori(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) ^ i.imm)
        self.stats.int_ops += 1

    def _exec_lsli(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) << (i.imm & (self.arch.xlen - 1)))
        self.stats.int_ops += 1

    def _exec_lsri(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) >> (i.imm & (self.arch.xlen - 1)))
        self.stats.int_ops += 1

    def _exec_asri(self, i: Instr) -> None:
        self.regs.write(i.rd, alu.arithmetic_shift_right(self.regs.read(i.rn), i.imm & (self.arch.xlen - 1), self.arch.xlen))
        self.stats.int_ops += 1

    def _exec_muli(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn) * i.imm)
        self.stats.int_ops += 1

    def _exec_mov(self, i: Instr) -> None:
        self.regs.write(i.rd, self.regs.read(i.rn))
        self.stats.int_ops += 1

    def _exec_movi(self, i: Instr) -> None:
        self.regs.write(i.rd, i.imm)
        self.stats.int_ops += 1

    def _exec_mvn(self, i: Instr) -> None:
        self.regs.write(i.rd, ~self.regs.read(i.rn))
        self.stats.int_ops += 1

    def _set_flags(self, n: bool, z: bool, c: bool, v: bool) -> None:
        self.flag_n, self.flag_z, self.flag_c, self.flag_v = n, z, c, v

    def _exec_cmp(self, i: Instr) -> None:
        _, n, z, c, v = alu.sub_flags(self.regs.read(i.rn), self.regs.read(i.rm), self.arch.xlen)
        self._set_flags(n, z, c, v)
        self.stats.int_ops += 1

    def _exec_cmpi(self, i: Instr) -> None:
        _, n, z, c, v = alu.sub_flags(self.regs.read(i.rn), alu.to_unsigned(i.imm, self.arch.xlen), self.arch.xlen)
        self._set_flags(n, z, c, v)
        self.stats.int_ops += 1

    def _exec_tst(self, i: Instr) -> None:
        result = self.regs.read(i.rn) & self.regs.read(i.rm)
        self._set_flags(bool(result >> (self.arch.xlen - 1)), result == 0, self.flag_c, self.flag_v)
        self.stats.int_ops += 1

    def _exec_cset(self, i: Instr) -> None:
        self.regs.write(i.rd, 1 if self.condition_holds(i.cond) else 0)
        self.stats.int_ops += 1

    # -- memory handlers -------------------------------------------------------------

    def _exec_ldr(self, i: Instr) -> None:
        address = self._effective_address(i)
        size = self.arch.word_bytes
        self._data_access_cycles(address, write=False)
        value = self.mem.read(address, size)
        self.regs.write(i.rd, value)
        self.stats.loads += 1
        self.stats.bytes_read += size

    def _exec_str(self, i: Instr) -> None:
        address = self._effective_address(i)
        size = self.arch.word_bytes
        self._data_access_cycles(address, write=True)
        self.mem.write(address, self.regs.read(i.rd), size)
        self.stats.stores += 1
        self.stats.bytes_written += size

    def _exec_ldrb(self, i: Instr) -> None:
        address = self._effective_address(i)
        self._data_access_cycles(address, write=False)
        self.regs.write(i.rd, self.mem.read(address, 1))
        self.stats.loads += 1
        self.stats.bytes_read += 1

    def _exec_strb(self, i: Instr) -> None:
        address = self._effective_address(i)
        self._data_access_cycles(address, write=True)
        self.mem.write(address, self.regs.read(i.rd) & 0xFF, 1)
        self.stats.stores += 1
        self.stats.bytes_written += 1

    # -- control flow handlers ---------------------------------------------------------

    def _branch_to_index(self, index: int) -> None:
        self.pc = self.text_base + 4 * index

    def _exec_b(self, i: Instr) -> None:
        self.stats.branches += 1
        self.stats.branches_taken += 1
        self._branch_to_index(i.imm)

    def _exec_bcc(self, i: Instr) -> None:
        self.stats.branches += 1
        if self.condition_holds(i.cond):
            self.stats.branches_taken += 1
            self._branch_to_index(i.imm)

    def _exec_cbz(self, i: Instr) -> None:
        self.stats.branches += 1
        if self.regs.read(i.rn) == 0:
            self.stats.branches_taken += 1
            self._branch_to_index(i.imm)

    def _exec_cbnz(self, i: Instr) -> None:
        self.stats.branches += 1
        if self.regs.read(i.rn) != 0:
            self.stats.branches_taken += 1
            self._branch_to_index(i.imm)

    def _exec_bl(self, i: Instr) -> None:
        self.regs.write(self.arch.abi.lr, self.pc)
        self.stats.branches += 1
        self.stats.branches_taken += 1
        self.stats.calls += 1
        self._branch_to_index(i.imm)

    def _exec_blr(self, i: Instr) -> None:
        target = self.regs.read(i.rn)
        self.regs.write(self.arch.abi.lr, self.pc)
        self.stats.branches += 1
        self.stats.branches_taken += 1
        self.stats.calls += 1
        self.pc = target

    def _exec_ret(self, i: Instr) -> None:
        self.stats.branches += 1
        self.stats.branches_taken += 1
        self.stats.returns += 1
        self.pc = self.regs.read(self.arch.abi.lr)

    # -- floating point handlers ----------------------------------------------------------

    def _fp_read(self, index: int) -> float:
        return fpu.bits_to_double(self.fregs.read_bits(index))

    def _fp_write(self, index: int, value: float) -> None:
        self.fregs.write_bits(index, fpu.double_to_bits(value))

    def _exec_fp_binary(self, i: Instr, op: str) -> None:
        self._fp_write(i.rd, fpu.fp_binary(op, self._fp_read(i.rn), self._fp_read(i.rm)))
        self.stats.float_ops += 1

    def _exec_fadd(self, i: Instr) -> None:
        self._exec_fp_binary(i, "add")

    def _exec_fsub(self, i: Instr) -> None:
        self._exec_fp_binary(i, "sub")

    def _exec_fmul(self, i: Instr) -> None:
        self._exec_fp_binary(i, "mul")

    def _exec_fdiv(self, i: Instr) -> None:
        self._exec_fp_binary(i, "div")

    def _exec_fmin(self, i: Instr) -> None:
        self._exec_fp_binary(i, "min")

    def _exec_fmax(self, i: Instr) -> None:
        self._exec_fp_binary(i, "max")

    def _exec_fsqrt(self, i: Instr) -> None:
        self._fp_write(i.rd, fpu.fp_sqrt(self._fp_read(i.rn)))
        self.stats.float_ops += 1

    def _exec_fneg(self, i: Instr) -> None:
        self._fp_write(i.rd, -self._fp_read(i.rn))
        self.stats.float_ops += 1

    def _exec_fabs(self, i: Instr) -> None:
        self._fp_write(i.rd, abs(self._fp_read(i.rn)))
        self.stats.float_ops += 1

    def _exec_fcmp(self, i: Instr) -> None:
        n, z, c, v = fpu.fp_compare(self._fp_read(i.rn), self._fp_read(i.rm))
        self._set_flags(n, z, c, v)
        self.stats.float_ops += 1

    def _exec_fmov(self, i: Instr) -> None:
        self.fregs.write_bits(i.rd, self.fregs.read_bits(i.rn))
        self.stats.float_ops += 1

    def _exec_fmovi(self, i: Instr) -> None:
        self.fregs.write_bits(i.rd, i.imm)
        self.stats.float_ops += 1

    def _exec_fldr(self, i: Instr) -> None:
        address = self._effective_address(i)
        size = self.arch.float_bytes
        self._data_access_cycles(address, write=False)
        bits = self.mem.read(address, size)
        if size == 4:
            bits = fpu.double_to_bits(fpu.bits_to_single(bits))
        self.fregs.write_bits(i.rd, bits)
        self.stats.loads += 1
        self.stats.float_ops += 1
        self.stats.bytes_read += size

    def _exec_fstr(self, i: Instr) -> None:
        address = self._effective_address(i)
        size = self.arch.float_bytes
        self._data_access_cycles(address, write=True)
        bits = self.fregs.read_bits(i.rd)
        if size == 4:
            bits = fpu.single_to_bits(fpu.bits_to_double(bits))
        self.mem.write(address, bits, size)
        self.stats.stores += 1
        self.stats.float_ops += 1
        self.stats.bytes_written += size

    def _exec_scvtf(self, i: Instr) -> None:
        self._fp_write(i.rd, float(self.regs.read_signed(i.rn)))
        self.stats.float_ops += 1

    def _exec_fcvtzs(self, i: Instr) -> None:
        self.regs.write(i.rd, fpu.float_to_int(self._fp_read(i.rn), self.arch.xlen))
        self.stats.float_ops += 1

    def _exec_fmovrg(self, i: Instr) -> None:
        self.fregs.write_bits(i.rd, self.regs.read(i.rn))
        self.stats.float_ops += 1

    def _exec_fmovgr(self, i: Instr) -> None:
        self.regs.write(i.rd, self.fregs.read_bits(i.rn))
        self.stats.float_ops += 1

    # -- system handlers ----------------------------------------------------------------------

    def _exec_svc(self, i: Instr) -> None:
        self.stats.syscalls += 1
        if self.syscall_handler is None:
            raise SimulatorError("SVC executed but no syscall handler installed (bare-metal core)")
        self.syscall_handler(self, i.imm)

    def _exec_nop(self, i: Instr) -> None:
        pass

    def _exec_halt(self, i: Instr) -> None:
        self.halted = True

    def _exec_wfi(self, i: Instr) -> None:
        self.stats.idle_cycles += 1


#: Opcode -> bound handler (kept as the authoritative mapping; the
#: interpreter dispatches through the array built from it below).
_DISPATCH = {
    Op.ADD: Core._exec_add,
    Op.SUB: Core._exec_sub,
    Op.RSB: Core._exec_rsb,
    Op.MUL: Core._exec_mul,
    Op.MULHU: Core._exec_mulhu,
    Op.UDIV: Core._exec_udiv,
    Op.SDIV: Core._exec_sdiv,
    Op.AND: Core._exec_and,
    Op.ORR: Core._exec_orr,
    Op.EOR: Core._exec_eor,
    Op.BIC: Core._exec_bic,
    Op.LSL: Core._exec_lsl,
    Op.LSR: Core._exec_lsr,
    Op.ASR: Core._exec_asr,
    Op.ADDI: Core._exec_addi,
    Op.SUBI: Core._exec_subi,
    Op.ANDI: Core._exec_andi,
    Op.ORRI: Core._exec_orri,
    Op.EORI: Core._exec_eori,
    Op.LSLI: Core._exec_lsli,
    Op.LSRI: Core._exec_lsri,
    Op.ASRI: Core._exec_asri,
    Op.MULI: Core._exec_muli,
    Op.MOV: Core._exec_mov,
    Op.MOVI: Core._exec_movi,
    Op.MVN: Core._exec_mvn,
    Op.CMP: Core._exec_cmp,
    Op.CMPI: Core._exec_cmpi,
    Op.TST: Core._exec_tst,
    Op.CSET: Core._exec_cset,
    Op.LDR: Core._exec_ldr,
    Op.STR: Core._exec_str,
    Op.LDRB: Core._exec_ldrb,
    Op.STRB: Core._exec_strb,
    Op.B: Core._exec_b,
    Op.BCC: Core._exec_bcc,
    Op.CBZ: Core._exec_cbz,
    Op.CBNZ: Core._exec_cbnz,
    Op.BL: Core._exec_bl,
    Op.BLR: Core._exec_blr,
    Op.RET: Core._exec_ret,
    Op.FADD: Core._exec_fadd,
    Op.FSUB: Core._exec_fsub,
    Op.FMUL: Core._exec_fmul,
    Op.FDIV: Core._exec_fdiv,
    Op.FMIN: Core._exec_fmin,
    Op.FMAX: Core._exec_fmax,
    Op.FSQRT: Core._exec_fsqrt,
    Op.FNEG: Core._exec_fneg,
    Op.FABS: Core._exec_fabs,
    Op.FCMP: Core._exec_fcmp,
    Op.FMOV: Core._exec_fmov,
    Op.FMOVI: Core._exec_fmovi,
    Op.FLDR: Core._exec_fldr,
    Op.FSTR: Core._exec_fstr,
    Op.SCVTF: Core._exec_scvtf,
    Op.FCVTZS: Core._exec_fcvtzs,
    Op.FMOVRG: Core._exec_fmovrg,
    Op.FMOVGR: Core._exec_fmovgr,
    Op.SVC: Core._exec_svc,
    Op.NOP: Core._exec_nop,
    Op.HALT: Core._exec_halt,
    Op.WFI: Core._exec_wfi,
}

#: Dense handler array indexed by Op value: ``_DISPATCH_TABLE[op]`` is a
#: single list index instead of a dict hash per instruction.  Holes (and
#: out-of-range values, guarded in :meth:`Core.step`) are undefined
#: opcodes and raise :class:`InstructionFault`.
_DISPATCH_TABLE_LEN = max(int(op) for op in Op) + 1
_DISPATCH_TABLE: list = [None] * _DISPATCH_TABLE_LEN
for _op, _handler in _DISPATCH.items():
    _DISPATCH_TABLE[_op] = _handler
del _op, _handler

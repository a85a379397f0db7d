"""Pre-decoded basic-block execution engine: the simulator's fast path.

The seed interpreter (:meth:`repro.cpu.core.Core.step`) pays a dict
dispatch, two bounds checks and a dozen attribute lookups for every
guest instruction, and the SoC burst loop re-enters Python call
machinery once per instruction.  At campaign scale (millions of
injections, each replaying tens of thousands of instructions) that
interpreter overhead is the binding constraint on how much of the
scenario matrix fits in a compute budget.

This module removes the per-instruction overhead without changing a
single architecturally visible bit.  One code generator,
:func:`_emit_instr`, holds the engine's only copy of every opcode's
semantics; all compiled code is Python source it emitted and
:func:`_compile_block` compiled:

Lazy decode
    At first execution of a text segment the text is split into
    straight-line runs ending at a branch, ``SVC`` or ``HALT`` (see
    :data:`repro.isa.instructions.BLOCK_TERMINATOR_OPS`).  A
    :class:`Block` exists for *every* instruction index — the suffix
    of its run starting there — so branching into the middle of a run,
    or resuming a paused simulation there, costs nothing.  Decode
    records only each block's extent; its code and statistics are
    built when it is compiled.

Fused superblocks
    A block entered ``_COMPILE_THRESHOLD`` times is compiled into one
    generated function that runs the whole run as straight-line code.
    PC alignment/bounds checks and the thread/halt checks happen once
    per block, and the ``cycles``/``instructions``/instruction-class
    counters accumulate as one batched delta in burst-local integers
    flushed once per burst.  Until then the block is cold and runs on
    the reference interpreter: compiling costs far more than
    interpreting code that runs only a few times.

Memory path
    Emitted loads and stores call the address space's uncounted
    accessors specialised by size (``load4(a)``, ``store8(a, x)``, ...;
    see :class:`repro.memory.main_memory.AddressSpace`), the one
    implementation of a guest memory access: the interpreter's
    ``read``/``write`` are the same accessors plus the counters, so
    fault types and messages are the interpreter's by construction.
    Each tries the two last-hit segments and falls back to the exact
    slow path.  The address space's four access counters are not
    bumped per access: a block's loads, stores and bytes moved are part
    of its batched delta, and the burst adds them to the counters on
    every exit, next to ``CoreStats``.  The counters stay exact at every
    burst boundary, which matters because the kernel capture that the
    injector's convergence test compares includes them.

Budget tails and prefixes
    A budget that ends inside a block (every burst of a multicore run,
    every pause) runs only the block's first ``r`` instructions, so a
    pause lands on the exact boundary.  Each instruction's code is a
    length-1 block compiled on first use; a tail runs as one *prefix
    block* for ``(index, r)`` that calls those length-1 blocks in a row
    and carries their summed statistics, so it costs one dispatch and
    one batched delta instead of ``r``.  Prefixes are built from code
    that already exists and are never compiled on their own: every
    compile is paid again by each campaign set-up and by each pool
    worker, and a compiled prefix would have to run some 400 times
    before it beat the one built from length-1 blocks (see
    ``docs/performance.md``).  All of these share the fused blocks'
    batched accounting and fault replay.

Cache modelling
    With ``model_caches`` the compiled code accounts I-side fetches
    per *I-cache line*: the first instruction on each line performs
    the real ``l1i.access`` inline and the rest of the line's fetches
    are provably pure hits batched as one counter delta per burst (see
    :func:`_compile_block`).  D-side accounting is emitted inline in
    program order, so the shared L2 observes the exact interleaving of
    instruction and data misses the interpreter produces.

Determinism contracts
    The engine is bit-exact against the seed interpreter at every
    instruction boundary:

    * every emitted instruction that can raise (memory operations,
      syscalls, undefined opcodes, invalid condition codes) stores its
      statically known next PC first, so a fault raised anywhere
      mid-block leaves the same PC and — after :func:`_account_fault`
      replays the completed prefix's counter deltas — the same
      statistics the interpreter would have;
    * an execution budget smaller than the current block runs a
      prefix of it, so ``stop_at_instruction`` pauses at the exact
      boundary (schedule-neutral resume for checkpoints and the fault
      injector);
    * a per-instruction ``trace_hook`` (the functional profiler)
      forces the interpreter path entirely;
    * code specializes only on the *instruction encodings* (and the
      ``model_caches`` flag), never on register or memory values, so
      register-file and memory fault injection cannot invalidate a
      decoded block;
    * decoded text is immutable: nothing rewrites a program's
      instruction list once it is built (fault injection flips
      registers, the PC and memory bytes, never instructions), so a
      decoded view stays valid for as long as anything holds it.

Decoded text is cached per ``(text identity, text base, arch,
model_caches, icache geometry)`` — compiled programs are shared across
systems by the ``build_program`` LRU cache, so a whole campaign decodes
and compiles each program once.
"""

from __future__ import annotations

import re
from collections import OrderedDict

from repro.cpu import alu, fpu
from repro.errors import AlignmentFault, InstructionFault, SimulatorError
from repro.isa.instructions import BLOCK_TERMINATOR_OPS, Op

__all__ = [
    "COND_FUNCS",
    "DecodedText",
    "decode_text",
    "execute_burst",
]


# ---------------------------------------------------------------------------
# condition evaluation (indexed by Cond value; shared with the slow path)
# ---------------------------------------------------------------------------

#: condition-code expressions over the live flags, indexed by Cond value
_COND_EXPRS = (
    "core.flag_z",
    "not core.flag_z",
    "core.flag_n != core.flag_v",
    "core.flag_n == core.flag_v",
    "(not core.flag_z) and core.flag_n == core.flag_v",
    "core.flag_z or core.flag_n != core.flag_v",
    "not core.flag_c",
    "core.flag_c",
    "core.flag_n",
    "not core.flag_n",
    "True",
)

#: ``COND_FUNCS[Cond.X]`` evaluates condition X against a core's flags.
COND_FUNCS = tuple(eval(f"lambda core: {expr}", {"__builtins__": {}}) for expr in _COND_EXPRS)


# ---------------------------------------------------------------------------
# decoded representation
# ---------------------------------------------------------------------------


class Block:
    """One superblock suffix: the run of instructions starting at ``start``
    (or, for a budget tail, its first ``length`` instructions).

    Decode fills in only the extent and ``recheck``, which marks blocks
    after which the driver must re-test the thread/halt state (the
    terminator was SVC or HALT).  :func:`_compile_block` fills in the
    rest: ``compiled(core, gprs)`` runs the block; ``items`` is its
    batched statistics delta as ``(acc index, delta)`` pairs
    (``STAT_FIELDS`` order, plus ``_REPEATS`` for batched L1i repeat hits);
    ``instr_items`` keeps the per-instruction class deltas and, with
    caches modelled, ``repeat_prefix[k]`` counts the batched repeat
    fetches among instructions ``0..k``, so a fault raised mid-block
    can replay the completed prefix exactly.
    """

    __slots__ = ("start", "length", "recheck", "hits", "compiled", "items", "instr_items", "repeat_prefix")

    def __init__(self, start, length, recheck):
        self.start = start
        self.length = length
        self.recheck = recheck
        #: entries while cold; at _COMPILE_THRESHOLD the block is fused
        self.hits = 0
        self.compiled = None
        self.items = None
        self.instr_items = None
        self.repeat_prefix = None


class DecodedText:
    """Pre-decoded view of one text segment for one configuration."""

    __slots__ = ("text", "text_base", "length", "entries", "singles", "prefixes", "model_caches", "ctx")

    def __init__(self, text, text_base, length, entries, model_caches, ctx):
        self.text = text
        self.text_base = text_base
        self.length = length
        #: ``entries[i]`` is the Block for the suffix starting at index i
        self.entries = entries
        #: ``singles[i]`` is the compiled length-1 block for instruction
        #: i (budget tails), built on first use
        self.singles = [None] * length
        #: ``prefixes[(i, r)]`` runs the first ``r`` instructions of
        #: block ``i`` (budget tails), built on first use
        self.prefixes = {}
        self.model_caches = model_caches
        #: decode context, kept for lazy compilation
        self.ctx = ctx


# ---------------------------------------------------------------------------
# text decode (cached)
# ---------------------------------------------------------------------------

#: Decoded-text cache.  Keys embed ``id(text)``; entries hold a strong
#: reference to the text list, so an id can never be reused while its
#: entry lives.  LRU-bounded: campaigns cycle through a handful of
#: programs (the build_program LRU shares their instruction lists).
_DECODE_CACHE: "OrderedDict[tuple, DecodedText]" = OrderedDict()
_DECODE_CACHE_CAPACITY = 64


def decode_text(text, text_base, arch, model_caches, icache=None):
    """Decode ``text`` (cached) for one architecture/configuration.

    ``icache`` is the L1 instruction cache's :class:`CacheConfig` and is
    required when ``model_caches`` is set: compiled code bakes its line
    geometry and hit latency into the per-block fetch batching, so the
    cache key must distinguish icache geometries.
    """
    if model_caches and icache is None:
        raise ValueError("cache-modelling decode needs the L1i config (icache=)")
    icache_key = (icache.line_bytes, icache.hit_latency) if model_caches else None
    key = (id(text), text_base, arch.name, bool(model_caches), icache_key)
    cached = _DECODE_CACHE.get(key)
    if cached is not None and cached.text is text:
        _DECODE_CACHE.move_to_end(key)
        return cached
    decoded = _decode_uncached(text, text_base, arch, model_caches, icache)
    _DECODE_CACHE[key] = decoded
    _DECODE_CACHE.move_to_end(key)
    while len(_DECODE_CACHE) > _DECODE_CACHE_CAPACITY:
        # A core may still hold an evicted entry; the text is immutable,
        # so that entry stays correct.
        _DECODE_CACHE.popitem(last=False)
    return decoded


def decode_cache_info() -> dict:
    """Introspection helper for tests and docs."""
    return {"entries": len(_DECODE_CACHE), "capacity": _DECODE_CACHE_CAPACITY}


#: Canonical counter order for index-based stat deltas (matches the
#: field order of :class:`repro.cpu.statistics.CoreStats`).
STAT_FIELDS = (
    "instructions",
    "cycles",
    "int_ops",
    "float_ops",
    "branches",
    "branches_taken",
    "calls",
    "returns",
    "loads",
    "stores",
    "bytes_read",
    "bytes_written",
    "syscalls",
    "idle_cycles",
    "context_switches",
)
_STAT_INDEX = {name: index for index, name in enumerate(STAT_FIELDS)}

#: burst accumulator slot for batched L1i repeat hits (see execute_burst)
_REPEATS = len(STAT_FIELDS)


def _decode_uncached(text, text_base, arch, model_caches, icache=None):
    ctx = {
        "mask": arch.word_mask,
        "xlen": arch.xlen,
        "sign_bit": arch.sign_bit,
        "word_bytes": arch.word_bytes,
        "float_bytes": arch.float_bytes,
        "fmask": (1 << 64) - 1 if arch.has_hw_float else (1 << 32) - 1,
        "lr": arch.abi.lr,
        "text_base": text_base,
        "model_caches": bool(model_caches),
    }
    if model_caches:
        ctx["i_line_shift"] = icache.line_bytes.bit_length() - 1
        ctx["i_hit"] = icache.hit_latency
    n = len(text)
    entries = [None] * n
    # Walk backwards so each index knows the end of its run (a run that
    # falls off the end of the text ends at n).
    end = n
    recheck = False
    for index in range(n - 1, -1, -1):
        op = text[index].op
        if op in BLOCK_TERMINATOR_OPS:
            end = index + 1
            recheck = op == Op.SVC or op == Op.HALT
        entries[index] = Block(index, end - index, recheck)
    return DecodedText(text, text_base, n, entries, bool(model_caches), ctx)


# ---------------------------------------------------------------------------
# code generation: the engine's one implementation of every opcode
# ---------------------------------------------------------------------------
#
# Generated functions have the signature ``block(core, v)`` where ``v``
# is ``core.regs._values`` — fetched once per block by the driver (the
# list identity only changes in ``RegisterFile.restore``, which runs
# between bursts; bit flips from the fault injector mutate it in place).
#
# Every instruction that can raise stores its statically known next PC
# *first*.  That keeps the PC architecturally exact at any raise site
# (memory faults, syscall handlers, undefined opcodes, invalid
# condition codes), lets _account_fault attribute an exception to the
# precise instruction, and keeps the saved context exact when a syscall
# detaches the thread.  Branch terminators write their dynamic target
# instead, and a block whose last instruction is not a terminator ends
# with a PC store, so the PC is always correct at block exit.

#: block entries (on the reference interpreter) after which a block is fused
_COMPILE_THRESHOLD = 4

_CODEGEN_GLOBALS = {
    "__builtins__": {},
    "bool": bool,
    "min": min,
    "max": max,
    "abs": abs,
    "float": float,
    "udiv": alu.unsigned_divide,
    "sdiv": alu.signed_divide,
    "asr": alu.arithmetic_shift_right,
    "b2d": fpu.bits_to_double,
    "d2b": fpu.double_to_bits,
    "b2s": fpu.bits_to_single,
    "s2b": fpu.single_to_bits,
    "fsqrt": fpu.fp_sqrt,
    "f2i": fpu.float_to_int,
    "fp_binary": fpu.fp_binary,
    "fcmp": fpu.fp_compare,
    "InstructionFault": InstructionFault,
    "SimulatorError": SimulatorError,
}

_INT = (("int_ops", 1),)
_FLT = (("float_ops", 1),)

#: Single-statement opcodes: source template and class statistics.
_SIMPLE = {
    Op.ADD: ("v[{rd}] = (v[{rn}] + v[{rm}]) & {mask}", _INT),
    Op.SUB: ("v[{rd}] = (v[{rn}] - v[{rm}]) & {mask}", _INT),
    Op.RSB: ("v[{rd}] = (v[{rm}] - v[{rn}]) & {mask}", _INT),
    Op.MUL: ("v[{rd}] = (v[{rn}] * v[{rm}]) & {mask}", _INT),
    Op.MULHU: ("v[{rd}] = ((v[{rn}] * v[{rm}]) >> {xlen}) & {mask}", _INT),
    Op.UDIV: ("v[{rd}] = udiv(v[{rn}], v[{rm}], {xlen})", _INT),
    Op.SDIV: ("v[{rd}] = sdiv(v[{rn}], v[{rm}], {xlen})", _INT),
    Op.AND: ("v[{rd}] = v[{rn}] & v[{rm}]", _INT),
    Op.ORR: ("v[{rd}] = v[{rn}] | v[{rm}]", _INT),
    Op.EOR: ("v[{rd}] = v[{rn}] ^ v[{rm}]", _INT),
    Op.BIC: ("v[{rd}] = v[{rn}] & ~v[{rm}] & {mask}", _INT),
    Op.LSL: ("v[{rd}] = (v[{rn}] << (v[{rm}] & {xm})) & {mask}", _INT),
    Op.LSR: ("v[{rd}] = v[{rn}] >> (v[{rm}] & {xm})", _INT),
    Op.ASR: ("v[{rd}] = asr(v[{rn}], v[{rm}] & {xm}, {xlen})", _INT),
    Op.ADDI: ("v[{rd}] = (v[{rn}] + {imm}) & {mask}", _INT),
    Op.SUBI: ("v[{rd}] = (v[{rn}] - {imm}) & {mask}", _INT),
    Op.ANDI: ("v[{rd}] = v[{rn}] & {imm} & {mask}", _INT),
    Op.ORRI: ("v[{rd}] = (v[{rn}] | {imm}) & {mask}", _INT),
    Op.EORI: ("v[{rd}] = (v[{rn}] ^ {imm}) & {mask}", _INT),
    Op.LSLI: ("v[{rd}] = (v[{rn}] << {shift}) & {mask}", _INT),
    Op.LSRI: ("v[{rd}] = v[{rn}] >> {shift}", _INT),
    Op.ASRI: ("v[{rd}] = asr(v[{rn}], {shift}, {xlen})", _INT),
    Op.MULI: ("v[{rd}] = (v[{rn}] * {imm}) & {mask}", _INT),
    Op.MOV: ("v[{rd}] = v[{rn}]", _INT),
    Op.MOVI: ("v[{rd}] = {imm_word}", _INT),
    Op.MVN: ("v[{rd}] = ~v[{rn}] & {mask}", _INT),
    Op.FADD: ("f[{rd}] = d2b(b2d(f[{rn}]) + b2d(f[{rm}])) & {fmask}", _FLT),
    Op.FSUB: ("f[{rd}] = d2b(b2d(f[{rn}]) - b2d(f[{rm}])) & {fmask}", _FLT),
    Op.FMUL: ("f[{rd}] = d2b(b2d(f[{rn}]) * b2d(f[{rm}])) & {fmask}", _FLT),
    Op.FMIN: ("f[{rd}] = d2b(min(b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}", _FLT),
    Op.FMAX: ("f[{rd}] = d2b(max(b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}", _FLT),
    # FDIV keeps the IEEE special cases of fpu.fp_binary
    Op.FDIV: ("f[{rd}] = d2b(fp_binary('div', b2d(f[{rn}]), b2d(f[{rm}]))) & {fmask}", _FLT),
    Op.FSQRT: ("f[{rd}] = d2b(fsqrt(b2d(f[{rn}]))) & {fmask}", _FLT),
    Op.FNEG: ("f[{rd}] = d2b(-b2d(f[{rn}])) & {fmask}", _FLT),
    Op.FABS: ("f[{rd}] = d2b(abs(b2d(f[{rn}]))) & {fmask}", _FLT),
    Op.FCMP: ("core.flag_n, core.flag_z, core.flag_c, core.flag_v = fcmp(b2d(f[{rn}]), b2d(f[{rm}]))", _FLT),
    Op.FMOV: ("f[{rd}] = f[{rn}]", _FLT),
    Op.FMOVI: ("f[{rd}] = {imm_float}", _FLT),
    Op.FCVTZS: ("v[{rd}] = f2i(b2d(f[{rn}]), {xlen})", _FLT),
    Op.FMOVRG: ("f[{rd}] = v[{rn}] & {fmask}", _FLT),
    Op.FMOVGR: ("v[{rd}] = f[{rn}] & {mask}", _FLT),
    Op.NOP: ("pass", ()),
    # WFI's idle cycle rides the batched block delta
    Op.WFI: ("pass", (("idle_cycles", 1),)),
}


def _emit_instr(instr, index, ctx, lines):
    """Append the straight-line source for one instruction to ``lines``.

    Returns the instruction's static class statistics as
    ``(counter_name, delta)`` pairs; dynamic counters (taken branches,
    syscalls) are updated live by the emitted code itself.  Undefined
    opcodes and invalid condition codes emit a stub that raises the
    interpreter's exact fault at execute time.
    """
    op = instr.op
    rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm
    mask = ctx["mask"]
    xlen = ctx["xlen"]
    xm = xlen - 1
    fmask = ctx["fmask"]
    text_base = ctx["text_base"]
    this_pc = text_base + 4 * index
    next_pc = this_pc + 4
    cached = ctx["model_caches"]

    def cond_expr(cond):
        if isinstance(cond, int) and 0 <= cond < len(_COND_EXPRS):
            return _COND_EXPRS[cond]
        # Invalid condition: the interpreter has already advanced the PC
        # (and, for BCC, committed ``branches``) when it raises.
        lines.append(f"core.pc = {next_pc}")
        if op == Op.BCC:
            lines.append("core.stats.branches += 1")
        lines.append(f"raise SimulatorError({f'unknown condition {cond!r}'!r})")
        return None

    def addr_expr():
        if rm is None:
            return f"(v[{rn}] + {imm}) & {mask}"
        return f"(v[{rn}] + (v[{rm}] << {imm})) & {mask}"

    simple = _SIMPLE.get(op)
    if simple is not None:
        template, items = simple
        fields = {
            "rd": rd, "rn": rn, "rm": rm, "imm": imm, "mask": mask, "xlen": xlen, "xm": xm, "fmask": fmask,
        }
        if op in (Op.LSLI, Op.LSRI, Op.ASRI):
            fields["shift"] = imm & xm
        elif op == Op.MOVI:
            fields["imm_word"] = imm & mask
        elif op == Op.FMOVI:
            fields["imm_float"] = imm & fmask
        lines.append(template.format(**fields))
        return items
    if op in (Op.CMP, Op.TST, Op.CMPI):
        # Inlined alu.sub_flags (bit-identical): CMP dominates branchy
        # guest code, so the three to_signed calls are worth eliding.
        sign = ctx["sign_bit"]
        if op == Op.TST:
            lines.append(f"r = v[{rn}] & v[{rm}]")
            lines.append(f"core.flag_n = bool(r >> {xm})")
            lines.append("core.flag_z = r == 0")
            return _INT
        lines.append(f"a = v[{rn}]")
        if op == Op.CMP:
            lines.append(f"b = v[{rm}]")
            b_neg = f"bool(b & {sign})"
        else:
            operand = alu.to_unsigned(imm, xlen)
            lines.append(f"b = {operand}")
            b_neg = "True" if operand & sign else "False"
        lines.append(f"r = (a - b) & {mask}")
        lines.append(f"core.flag_n = bool(r >> {xm})")
        lines.append("core.flag_z = r == 0")
        lines.append("core.flag_c = a >= b")
        lines.append(f"sn = bool(a & {sign})")
        lines.append(f"core.flag_v = sn != {b_neg} and bool(r & {sign}) != sn")
        return _INT
    if op == Op.CSET:
        expr = cond_expr(instr.cond)
        if expr is not None:
            lines.append(f"v[{rd}] = 1 if {expr} else 0")
        return _INT
    if op in (Op.LDR, Op.LDRB, Op.STR, Op.STRB, Op.FLDR, Op.FSTR):
        # Effective address computed once; with caches modelled the
        # D-cache access runs before the architectural memory operation
        # (pending-fault commit order — see Core._data_access_cycles).
        load = op in (Op.LDR, Op.LDRB, Op.FLDR)
        if op in (Op.FLDR, Op.FSTR):
            size = ctx["float_bytes"]
        else:
            size = ctx["word_bytes"] if op in (Op.LDR, Op.STR) else 1
        lines.append(f"core.pc = {next_pc}")
        if cached:
            lines.append(f"a = {addr_expr()}")
            lines.append(f"st.cycles += da(a, {not load})")
        addr = "a" if cached else addr_expr()
        # The single-precision conversions only exist on the ARMv7
        # shape, whose compiler never emits hardware FP — they are kept
        # for interpreter parity.
        if op == Op.FLDR:
            lines.append(f"bits = ld{size}({addr})")
            if size == 4:
                lines.append("bits = d2b(b2s(bits))")
            lines.append(f"f[{rd}] = bits & {fmask}")
        elif op == Op.FSTR:
            lines.append(f"bits = f[{rd}]")
            if size == 4:
                lines.append("bits = s2b(b2d(bits))")
            lines.append(f"st{size}({addr}, bits)")
        elif load:
            lines.append(f"v[{rd}] = ld{size}({addr})")
        else:
            # the sized store masks the value to its width (STRB: low byte)
            lines.append(f"st{size}({addr}, v[{rd}])")
        fp = (("float_ops", 1),) if op in (Op.FLDR, Op.FSTR) else ()
        if load:
            return (("loads", 1),) + fp + (("bytes_read", size),)
        return (("stores", 1),) + fp + (("bytes_written", size),)
    if op == Op.B:
        lines.append(f"core.pc = {text_base + 4 * imm}")
        return (("branches", 1), ("branches_taken", 1))
    if op in (Op.BCC, Op.CBZ, Op.CBNZ):
        if op == Op.BCC:
            expr = cond_expr(instr.cond)
            if expr is None:
                return ()  # ``branches`` was committed live by the stub
        elif op == Op.CBZ:
            expr = f"v[{rn}] == 0"
        else:
            expr = f"v[{rn}] != 0"
        lines.append(f"if {expr}:")
        lines.append("    core.stats.branches_taken += 1")
        lines.append(f"    core.pc = {text_base + 4 * imm}")
        lines.append("else:")
        lines.append(f"    core.pc = {next_pc}")
        return (("branches", 1),)
    if op == Op.BL:
        lines.append(f"v[{ctx['lr']}] = {next_pc & mask}")
        lines.append(f"core.pc = {text_base + 4 * imm}")
        return (("branches", 1), ("branches_taken", 1), ("calls", 1))
    if op == Op.BLR:
        lines.append(f"t = v[{rn}]")
        lines.append(f"v[{ctx['lr']}] = {next_pc & mask}")
        lines.append("core.pc = t")
        return (("branches", 1), ("branches_taken", 1), ("calls", 1))
    if op == Op.RET:
        lines.append(f"core.pc = v[{ctx['lr']}]")
        return (("branches", 1), ("branches_taken", 1), ("returns", 1))
    if op == Op.SCVTF:
        lines.append(f"x = v[{rn}]")
        lines.append(f"if x & {ctx['sign_bit']}:")
        lines.append(f"    x -= {1 << xlen}")
        lines.append(f"f[{rd}] = d2b(float(x)) & {fmask}")
        return _FLT
    if op == Op.SVC:
        # ``syscalls`` is committed live (before the handler) so a
        # handler-raised GuestFault leaves exactly the interpreter's
        # counter state; cycles/instructions stay burst-accounted.
        lines.append(f"core.pc = {next_pc}")
        lines.append("core.stats.syscalls += 1")
        lines.append("h = core.syscall_handler")
        lines.append("if h is None:")
        lines.append(
            "    raise SimulatorError('SVC executed but no syscall handler installed (bare-metal core)')"
        )
        lines.append(f"h(core, {imm})")
        return ()
    if op == Op.HALT:
        lines.append(f"core.pc = {next_pc}")
        lines.append("core.halted = True")
        return ()
    message = f"undefined opcode {op!r} at {this_pc:#x}"
    lines.append(f"core.pc = {next_pc}")
    lines.append(f"raise InstructionFault({message!r}, address={this_pc}, core_id=core.core_id)")
    return ()


#: Per-block bindings, hoisted into the prologue when the body uses
#: them.  The address space never changes mid-block (only syscalls
#: swap it, and SVC is always block-final); cache objects and the stats
#: record only change between bursts.  ``ldN``/``stN`` are the address
#: space's uncounted N-byte accessors.
_PROLOGUE = {
    "f": "f = core.fregs._values",
    "st": "st = core.stats",
    "fa": "fa = core.caches.l1i.access",
    "da": "da = core.caches.l1d.access",
    **{f"ld{size}": f"ld{size} = core.mem.load{size}" for size in (1, 4, 8)},
    **{f"st{size}": f"st{size} = core.mem.store{size}" for size in (1, 4, 8)},
}
_PROLOGUE_NAMES = re.compile(r"\b(?:%s)\b(?=[\[.(])" % "|".join(_PROLOGUE))


def _compile_block(block, decoded):
    """Fuse ``block`` into one generated function and its batched deltas.

    Sets ``block.compiled``, ``items``, ``instr_items`` and (with
    caches modelled) ``repeat_prefix``.  The batched delta is applied
    by the driver after the compiled function returns.

    Cache modelling: every PC of a straight-line block is known here,
    so I-side accounting splits per line.  The first instruction
    touching each I-cache line (*leader* — block entry is always one,
    since the engine cannot know the line is resident at a branched-to
    entry) does the real ``l1i.access`` inline, in program order
    relative to the block's D-accesses (both can reach the shared L2,
    so their interleaving decides L2 LRU state).  The remaining
    instructions of the line (*repeats*) are provably pure hits — the
    leader left the line resident, MRU and pending-free, and D-accesses
    cannot disturb the L1i — so their effect is exactly a static
    counter delta (``hits``/``read_accesses``/``cycles += hit
    latency``), batched into the burst accumulator by the driver.
    """
    text = decoded.text
    ctx = decoded.ctx
    base = ctx["text_base"]
    model_caches = decoded.model_caches
    start = block.start
    end = start + block.length
    lines: list[str] = []
    instr_items = []
    repeat_prefix = []
    repeats = 0
    shift = ctx.get("i_line_shift")
    for index in range(start, end):
        if model_caches:
            pc = base + 4 * index
            if index > start and pc >> shift == (pc - 4) >> shift:
                repeats += 1
            else:
                lines.append(f"st.cycles += fa({pc})")
            repeat_prefix.append(repeats)
        last = len(lines)
        items = _emit_instr(text[index], index, ctx, lines)
        instr_items.append(tuple((_STAT_INDEX[name], delta) for name, delta in items))
    exit_pc = f"core.pc = {base + 4 * end}"
    if text[end - 1].op not in BLOCK_TERMINATOR_OPS and lines[last] != exit_pc:
        # The run continues at the next instruction — or falls off the
        # end of the text, where the out-of-range fetch fault that
        # follows reports the interpreter's exact address.  A last
        # instruction that can raise has stored this PC already.
        lines.append(exit_pc)
    # acc slots 0 and 1: instructions and (batched) fetch cycles
    if model_caches:
        totals = {0: block.length, 1: repeats * ctx["i_hit"], _REPEATS: repeats}
    else:
        totals = {0: block.length, 1: block.length}
    for items in instr_items:
        for stat, delta in items:
            totals[stat] = totals.get(stat, 0) + delta
    body = "\n".join("    " + line for line in lines)
    used = set(_PROLOGUE_NAMES.findall(body))
    prologue = [binding for name, binding in _PROLOGUE.items() if name in used]
    source = "def _block(core, v):\n" + "".join(f"    {line}\n" for line in prologue) + body
    namespace: dict = {}
    exec(compile(source, f"<superblock@{base + 4 * start:#x}>", "exec"), _CODEGEN_GLOBALS, namespace)
    block.items = tuple(sorted((stat, delta) for stat, delta in totals.items() if delta))
    block.instr_items = tuple(instr_items)
    block.repeat_prefix = tuple(repeat_prefix) if model_caches else None
    block.compiled = namespace["_block"]


def _single(decoded, index):
    """The compiled length-1 block for instruction ``index`` (cached).

    Only a budget that ends inside a block steps single instructions,
    so ``index`` is never the last of its run: never SVC or HALT.
    """
    block = decoded.singles[index] = Block(index, 1, False)
    _compile_block(block, decoded)
    return block


def _chain(functions):
    """One function that runs compiled ``functions`` in order."""

    def chained(core, v):
        for function in functions:
            function(core, v)

    return chained


def _prefix(decoded, index, count):
    """The block for the first ``count`` instructions of block ``index``
    (cached): the length-1 block itself, or a prefix of them.

    A prefix calls the length-1 blocks in a row and carries their
    summed statistics; each is its own fetch leader, so with caches
    modelled no repeat fetches are batched.  Its ``instr_items`` let
    :func:`_account_fault` replay a fault raised inside any of them.
    """
    singles = decoded.singles
    rows = [singles[i] or _single(decoded, i) for i in range(index, index + count)]
    if count == 1:
        block = rows[0]
    else:
        block = Block(index, count, False)
        totals: dict = {}
        for row in rows:
            for stat, delta in row.items:
                totals[stat] = totals.get(stat, 0) + delta
        block.items = tuple(sorted(totals.items()))
        block.instr_items = tuple(row.instr_items[0] for row in rows)
        block.repeat_prefix = (0,) * count if decoded.model_caches else None
        block.compiled = _chain(tuple(row.compiled for row in rows))
    decoded.prefixes[index, count] = block
    return block


# ---------------------------------------------------------------------------
# execution driver
# ---------------------------------------------------------------------------


def _account_fault(core, decoded, acc, block) -> None:
    """Replay the statistics of a block interrupted by an exception.

    Every instruction that can raise stores its next PC before doing
    work, so the PC at the raise site identifies the faulting
    instruction ``j``.  The interpreter would have committed: all
    counters of the completed prefix, plus the fetch of the faulting
    instruction (its class counters and the ``instructions`` increment
    never happen — matching ``Core.step``'s raise points exactly).
    With caches modelled, leader fetches and D-access latencies were
    already committed inline, so only the batched repeat fetches
    through ``j`` remain.  Deltas land in the burst accumulator, which
    the driver flushes before the exception leaves.
    """
    j = ((core.pc - decoded.text_base) >> 2) - 1 - block.start
    if j < 0:
        j = 0
    elif j >= block.length:
        j = block.length - 1
    acc[0] += j
    if decoded.model_caches:
        repeats = block.repeat_prefix[j]
        acc[1] += repeats * decoded.ctx["i_hit"]
        acc[_REPEATS] += repeats
    else:
        acc[1] += j + 1
    for items in block.instr_items[:j]:
        for index, delta in items:
            acc[index] += delta


def _flush(stats, acc) -> None:
    """Commit one burst's accumulated counter deltas to the core stats."""
    stats.instructions += acc[0]
    stats.cycles += acc[1]
    stats.int_ops += acc[2]
    stats.float_ops += acc[3]
    stats.branches += acc[4]
    stats.branches_taken += acc[5]
    stats.calls += acc[6]
    stats.returns += acc[7]
    stats.loads += acc[8]
    stats.stores += acc[9]
    stats.bytes_read += acc[10]
    stats.bytes_written += acc[11]
    stats.syscalls += acc[12]
    stats.idle_cycles += acc[13]
    stats.context_switches += acc[14]


def execute_burst(core, decoded, budget: int, stop_on_halt: bool) -> int:
    """Run ``core`` for at most ``budget`` instructions on decoded text.

    Stops early when the core's thread changes (a syscall detached or
    killed it) or — with ``stop_on_halt`` — when HALT executes; those
    state tests run on entry and after SVC/HALT (the only ops that can
    change them).  Returns the executed instruction count.

    Hot blocks run fused, cold blocks on ``Core.step`` and a budget
    ending inside a block on a prefix of it (:func:`_prefix`).
    Compiled code accumulates statistics in burst-local counters: each
    completed block adds its ``items``, and :func:`_account_fault` adds
    the exact prefix of a block interrupted by a guest fault.  On every
    exit the totals go to ``core.stats``, and the loads, stores and
    bytes moved also to the address space's access counters, which the
    compiled accessors leave alone; so both are interpreter-exact
    whenever control leaves this function.  The address space cannot
    change mid-burst: the kernel swaps it only on attach, between
    bursts, and a detach ends the burst.  With an ``access_log`` on the
    core, the burst appends ``(core_id, text)`` and then every
    dispatched block (a budget tail as its single-instruction rows)
    before running it.  Syscall handlers run mid-burst and must not
    read ``core.stats`` or the access counters — none do: the kernel
    touches counters only via ``attach`` during scheduling, which
    happens between bursts.
    """
    stats = core.stats
    mem = core.mem
    thread = core.thread
    base = decoded.text_base
    entries = decoded.entries
    singles = decoded.singles
    prefixes = decoded.prefixes
    length = decoded.length
    regs = core.regs
    executed = 0
    check_state = True
    step = core.step
    acc = [0] * (_REPEATS + 1)
    log = core.access_log
    if log is not None:
        log.append((core.core_id, decoded.text))
    try:
        while executed < budget:
            if check_state:
                if core.thread is not thread:
                    break
                if stop_on_halt and core.halted:
                    break
            pc = core.pc
            offset = pc - base
            if offset & 0x3:
                raise AlignmentFault(
                    f"misaligned instruction fetch at {pc:#x}", address=pc, core_id=core.core_id
                )
            index = offset >> 2
            if index < 0 or index >= length:
                raise InstructionFault(
                    f"instruction fetch outside text segment at {pc:#x}", address=pc, core_id=core.core_id
                )
            block = entries[index]
            if block.length > budget - executed:
                # The budget ends inside this block: run just its first
                # instructions, so stop_at_instruction pauses on the
                # precise boundary (schedule-neutral resume).  The log
                # gets a prefix's single-instruction rows: the def-use
                # summary reads a logged block as the suffix of its run.
                block = prefixes.get((index, budget - executed)) or _prefix(
                    decoded, index, budget - executed
                )
                if log is not None:
                    log.extend(singles[index : index + block.length])
            elif log is not None:
                log.append(block)
            if block.compiled is None:
                block.hits += 1
                if block.hits < _COMPILE_THRESHOLD:
                    # Cold block: code that runs this rarely costs more
                    # to compile than to interpret.
                    for _ in range(block.length):
                        step()
                    executed += block.length
                    check_state = block.recheck
                    continue
                _compile_block(block, decoded)
            try:
                block.compiled(core, regs._values)
            except BaseException:
                _account_fault(core, decoded, acc, block)
                raise
            # With caches modelled, leader fetches and D-accesses were
            # accounted inline and only the repeat-fetch hits ride the
            # accumulator (slot _REPEATS -> L1i counters).
            for stat_index, delta in block.items:
                acc[stat_index] += delta
            executed += block.length
            check_state = block.recheck
    finally:
        _flush(stats, acc)
        if acc[8] or acc[9]:
            mem.read_count += acc[8]
            mem.write_count += acc[9]
            mem.bytes_read += acc[10]
            mem.bytes_written += acc[11]
        repeats = acc[_REPEATS]
        if repeats:
            # Batched repeat fetches: each one is an L1i read hit at hit
            # latency (the cycles already flushed through acc[1]).
            istats = core.caches.l1i.stats
            istats.hits += repeats
            istats.read_accesses += repeats
    return executed

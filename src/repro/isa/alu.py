"""Functional semantics of TRIPS opcodes, shared by every execution model.

The execution tiles of the cycle simulator, the functional block simulator
and the compiler's constant folder all evaluate instructions through
:data:`ALU_TABLE` so that results are bit-identical everywhere.  The
arithmetic itself is delegated to :mod:`repro.tir.semantics`, the single
source of truth for 64-bit operator behaviour.

:func:`alu_fn` binds one static instruction to a ``(left, right) -> value``
callable once (the cycle simulator does this per block at decode time);
:func:`execute` is the one-shot form of the same table.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..tir import semantics
from ..tir.ir import MASK64, int_to_bits
from .encoding import Instruction
from .opcodes import OpClass, Opcode

#: TRIPS opcode -> TIR binary operator name.
_BINOP = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIVS: "div", Opcode.AND: "and", Opcode.OR: "or",
    Opcode.XOR: "xor", Opcode.SLL: "shl", Opcode.SRL: "shr",
    Opcode.SRA: "sra",
    Opcode.TEQ: "eq", Opcode.TNE: "ne", Opcode.TLT: "lt",
    Opcode.TLE: "le", Opcode.TGT: "gt", Opcode.TGE: "ge",
    Opcode.TLTU: "ltu", Opcode.TGEU: "geu",
    Opcode.FADD: "fadd", Opcode.FSUB: "fsub", Opcode.FMUL: "fmul",
    Opcode.FDIV: "fdiv",
    Opcode.FEQ: "feq", Opcode.FNE: "fne", Opcode.FLT: "flt",
    Opcode.FLE: "fle", Opcode.FGT: "fgt", Opcode.FGE: "fge",
}

#: TRIPS immediate opcode -> TIR binary operator applied as (left, imm).
_IMMOP = {
    Opcode.ADDI: "add", Opcode.SUBI: "sub", Opcode.MULI: "mul",
    Opcode.ANDI: "and", Opcode.ORI: "or", Opcode.XORI: "xor",
    Opcode.SLLI: "shl", Opcode.SRLI: "shr", Opcode.SRAI: "sra",
    Opcode.TEQI: "eq", Opcode.TNEI: "ne", Opcode.TLTI: "lt",
    Opcode.TGEI: "ge", Opcode.TGTI: "gt", Opcode.TLEI: "le",
}

#: TRIPS unary opcode -> TIR unary operator name.
_UNOP = {Opcode.NOT: "not", Opcode.FTOI: "ftoi", Opcode.ITOF: "itof"}


class AluError(ValueError):
    """An opcode reached the ALU that the ALU cannot evaluate."""


AluFn = Callable[[Optional[int], Optional[int]], int]


def _binary(name: str) -> Callable[[Instruction], AluFn]:
    fn = semantics.binop_fn(name)
    return lambda inst: fn


def _immediate(name: str) -> Callable[[Instruction], AluFn]:
    fn = semantics.binop_fn(name)

    def bind(inst: Instruction) -> AluFn:
        imm = int_to_bits(inst.imm)
        return lambda left, right=None: fn(left, imm)
    return bind


def _unary(name: str) -> Callable[[Instruction], AluFn]:
    fn = semantics.unop_fn(name)
    return lambda inst: (lambda left, right=None: fn(left))


def _movi(inst: Instruction) -> AluFn:
    value = int_to_bits(inst.const)
    return lambda left=None, right=None: value


def _movih(inst: Instruction) -> AluFn:
    low = inst.const & 0xFFFF
    return lambda left, right=None: ((left << 16) | low) & MASK64


#: opcode -> binder: ``ALU_TABLE[op](inst)`` is the instruction's
#: ``(left, right) -> value`` function (unused operands are ignored)
ALU_TABLE: Dict[Opcode, Callable[[Instruction], AluFn]] = {
    **{op: _binary(name) for op, name in _BINOP.items()},
    **{op: _immediate(name) for op, name in _IMMOP.items()},
    **{op: _unary(name) for op, name in _UNOP.items()},
    Opcode.MOV: lambda inst: (lambda left, right=None: left & MASK64),
    Opcode.MOVI: _movi,
    Opcode.MOVIH: _movih,
}


def alu_fn(inst: Instruction) -> AluFn:
    """Bind ``inst`` to its ``(left, right) -> value`` ALU function."""
    binder = ALU_TABLE.get(inst.opcode)
    if binder is None:
        raise AluError(f"ALU cannot execute {inst.opcode.mnemonic}")
    return binder(inst)


def execute(inst: Instruction, left: Optional[int] = None,
            right: Optional[int] = None) -> int:
    """Compute the result value of a non-memory, non-branch instruction.

    ``left``/``right`` are 64-bit patterns (already known to be non-null
    tokens; nullification is handled by the caller).  Loads, stores and
    branches have side effects and are executed by the tiles, not here.
    """
    return alu_fn(inst)(left, right)


def effective_address(inst: Instruction, left: int) -> int:
    """Address of a load/store: left operand plus the signed immediate."""
    if not inst.opcode.is_memory:
        raise AluError(f"{inst.opcode.mnemonic} has no effective address")
    return (left + inst.imm) & MASK64

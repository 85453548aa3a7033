"""The per-opcode ALU table agrees with ``tir.semantics`` bit for bit.

The cycle simulator binds each static instruction to an ``ALU_TABLE``
function once, at block decode, instead of dispatching on the opcode at
every firing.  Those functions are built from ``semantics.binop_fn`` /
``unop_fn``, the same per-operator table ``binop`` / ``unop`` use.  The
reference here is an independent operator if-chain kept in this file,
checked on the edge operands (zero, all-ones, INT64_MIN/MAX, shift counts
around 64, NaN, -0.0, infinities, zero divisors) and on random patterns.
"""

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Opcode, OpClass
from repro.isa.alu import (_BINOP, _IMMOP, _UNOP, ALU_TABLE, AluError,
                           alu_fn, execute)
from repro.tir import semantics
from repro.tir.ir import (MASK64, TirError, bits_to_float, bits_to_int,
                          float_to_bits, int_to_bits)

INT64_MIN = 1 << 63
INT64_MAX = (1 << 63) - 1

EDGE = [
    0, 1, 2, 3, MASK64, MASK64 - 1, INT64_MIN, INT64_MAX, INT64_MIN + 1,
    63, 64, 65, 127, 0xFFFF, 0x10000,
    float_to_bits(0.0), float_to_bits(-0.0), float_to_bits(1.0),
    float_to_bits(-1.5), float_to_bits(math.inf), float_to_bits(-math.inf),
    float_to_bits(math.nan), 0x7FF0000000000001,       # signalling NaN
    0xFFF8000000000000, float_to_bits(5e-324), float_to_bits(1e308),
    float_to_bits(2.0 ** 63), float_to_bits(-(2.0 ** 63)),
]

#: operands outside 0..MASK64 (the compiler's constant folder can pass
#: Python ints); both paths must mask them the same way
WIDE = [-1, -(1 << 63), 1 << 64, (1 << 64) + 5, -(1 << 70) + 3]

IMMS = [0, 1, -1, 2, 63, 64, 65, -64, 8191, -8192]
CONSTS = [0, 1, -1, 0x7FFF, -0x8000, 0x1234]

ALU_OPS = sorted(ALU_TABLE, key=lambda op: op.mnemonic)


def _inst(op, imm=0, const=0):
    kwargs = {}
    if op in _IMMOP:
        kwargs["imm"] = imm
    if op in (Opcode.MOVI, Opcode.MOVIH):
        kwargs["const"] = const
    return Instruction(op, **kwargs)


_RING = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "and": operator.and_, "or": operator.or_, "xor": operator.xor}
_ORDER = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
          "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def _ref_sdiv(a, b):
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _ref_fdiv(x, y):
    if y == 0.0:
        if x != x or x == 0.0:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)
    return x / y


def _ref_binop(op, a, b):
    """64-bit operator semantics as a plain if-chain."""
    a &= MASK64
    b &= MASK64
    if op in _RING:
        return _RING[op](a, b) & MASK64
    if op in _ORDER:
        return 1 if _ORDER[op](bits_to_int(a), bits_to_int(b)) else 0
    if op == "ltu":
        return 1 if a < b else 0
    if op == "geu":
        return 1 if a >= b else 0
    if op == "shl":
        return (a << (b & 63)) & MASK64
    if op == "shr":
        return a >> (b & 63)
    if op == "sra":
        return int_to_bits(bits_to_int(a) >> (b & 63))
    if op == "div":
        return int_to_bits(_ref_sdiv(bits_to_int(a), bits_to_int(b)))
    if op == "rem":
        x, y = bits_to_int(a), bits_to_int(b)
        return int_to_bits(x if y == 0 else x - _ref_sdiv(x, y) * y)
    fa, fb = bits_to_float(a), bits_to_float(b)
    if op == "fdiv":
        return float_to_bits(_ref_fdiv(fa, fb))
    if op in ("fadd", "fsub", "fmul"):
        return float_to_bits(_RING[op[1:]](fa, fb))
    if op[0] == "f" and op[1:] in _ORDER:
        return 1 if _ORDER[op[1:]](fa, fb) else 0
    raise AssertionError(f"no reference for binop {op!r}")


def _ref_unop(op, a):
    a &= MASK64
    if op == "not":
        return a ^ MASK64
    if op == "neg":
        return (-a) & MASK64
    if op == "itof":
        return float_to_bits(float(bits_to_int(a)))
    if op == "ftoi":
        f = bits_to_float(a)
        if f != f or f in (math.inf, -math.inf):
            return 0
        return int_to_bits(int(f))
    raise AssertionError(f"no reference for unop {op!r}")


def _reference(inst, left, right):
    """The instruction's value from the reference if-chains."""
    op = inst.opcode
    if op in _BINOP:
        return _ref_binop(_BINOP[op], left, right)
    if op in _IMMOP:
        return _ref_binop(_IMMOP[op], left, int_to_bits(inst.imm))
    if op in _UNOP:
        return _ref_unop(_UNOP[op], left)
    if op is Opcode.MOV:
        return left & MASK64
    if op is Opcode.MOVI:
        return int_to_bits(inst.const)
    if op is Opcode.MOVIH:
        return ((left << 16) | (inst.const & 0xFFFF)) & MASK64
    raise AssertionError(f"no reference for {op.mnemonic}")


def _variants(op):
    if op in _IMMOP:
        return [_inst(op, imm=imm) for imm in IMMS]
    if op in (Opcode.MOVI, Opcode.MOVIH):
        return [_inst(op, const=c) for c in CONSTS]
    return [_inst(op)]


def test_table_covers_exactly_the_alu_opcodes():
    alu_class = {op for op in Opcode
                 if not op.is_memory and not op.is_branch
                 and op.opclass is not OpClass.NULLIFY}
    assert set(ALU_TABLE) == alu_class


@pytest.mark.parametrize("op", ALU_OPS, ids=[op.mnemonic for op in ALU_OPS])
def test_edge_operands(op):
    for inst in _variants(op):
        fn = alu_fn(inst)
        for left in EDGE + WIDE:
            for right in EDGE + WIDE:
                want = _reference(inst, left, right)
                assert fn(left, right) == want, (inst, left, right)
                assert execute(inst, left, right) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALU_OPS),
       st.integers(0, MASK64), st.integers(0, MASK64),
       st.integers(-8192, 8191), st.integers(-0x8000, 0x7FFF))
def test_random_patterns(op, left, right, imm, const):
    inst = _inst(op, imm=imm, const=const)
    assert alu_fn(inst)(left, right) == _reference(inst, left, right)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(set(_BINOP.values()) | {"rem"})),
       st.integers(-(1 << 65), 1 << 65), st.integers(-(1 << 65), 1 << 65))
def test_binop_fn_matches_binop(name, a, b):
    want = _ref_binop(name, a, b)
    assert semantics.binop_fn(name)(a, b) == want
    assert semantics.binop(name, a, b) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["not", "neg", "itof", "ftoi"]),
       st.integers(-(1 << 65), 1 << 65))
def test_unop_fn_matches_unop(name, a):
    want = _ref_unop(name, a)
    assert semantics.unop_fn(name)(a) == want
    assert semantics.unop(name, a) == want


def test_unknown_operator_rejected():
    with pytest.raises(TirError):
        semantics.binop("rol", 1, 2)
    with pytest.raises(TirError):
        semantics.unop_fn("abs")


def test_non_alu_opcodes_rejected():
    for op in (Opcode.LD, Opcode.SD, Opcode.BRO, Opcode.NULL):
        with pytest.raises(AluError):
            alu_fn(Instruction(op))

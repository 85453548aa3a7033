"""Single source of truth for operator semantics on 64-bit patterns.

Shared by the TIR interpreter, the TRIPS execution tiles and the baseline
core's ALU so that all three produce bit-identical results.

Conventions:

* integers are 64-bit two's complement; arithmetic wraps,
* shift amounts are taken mod 64,
* signed division truncates toward zero; division by zero yields 0 and
  remainder by zero yields the dividend (a defined, testable behaviour in
  place of a fault, since the workload suite never divides by zero),
* comparisons produce 0 or 1,
* ``f*`` operators reinterpret patterns as IEEE doubles.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict

from .ir import MASK64, TirError, bits_to_float, bits_to_int, float_to_bits, int_to_bits


def _fdiv(x: float, y: float) -> float:
    if y == 0.0:
        # IEEE-754: 0/0 and nan/0 are nan; x/±0 is ±inf with the sign of
        # x*y, so the *sign* of a zero divisor matters (1.0/-0.0 == -inf).
        if x != x or x == 0.0:
            return float("nan")
        return math.copysign(float("inf"), x) * math.copysign(1.0, y)
    return x / y


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _sdiv(a, b) * b


_INT_BIN = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_CMP = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

_FCMP = {
    "feq": operator.eq,
    "fne": operator.ne,
    "flt": operator.lt,
    "fle": operator.le,
    "fgt": operator.gt,
    "fge": operator.ge,
}

_FBIN = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": _fdiv,
}


def _ring(f: Callable[[int, int], int]) -> Callable[[int, int], int]:
    return lambda a, b: f(a & MASK64, b & MASK64) & MASK64


def _signed_cmp(f: Callable[[int, int], bool]) -> Callable[[int, int], int]:
    return lambda a, b: 1 if f(bits_to_int(a), bits_to_int(b)) else 0


def _float_bin(f: Callable[[float, float], float]) -> Callable[[int, int], int]:
    return lambda a, b: float_to_bits(f(bits_to_float(a), bits_to_float(b)))


def _float_cmp(f: Callable[[float, float], bool]) -> Callable[[int, int], int]:
    return lambda a, b: 1 if f(bits_to_float(a), bits_to_float(b)) else 0


def _ftoi(a: int) -> int:
    f = bits_to_float(a)
    if f != f or f in (float("inf"), float("-inf")):
        return 0
    return int_to_bits(int(f))


#: operator name -> ``(a, b) -> value`` on 64-bit patterns (operands are
#: masked to 64 bits first); the one implementation behind binop/binop_fn
_BINOPS: Dict[str, Callable[[int, int], int]] = {
    **{op: _ring(f) for op, f in _INT_BIN.items()},
    **{op: _signed_cmp(f) for op, f in _CMP.items()},
    "ltu": lambda a, b: 1 if a & MASK64 < b & MASK64 else 0,
    "geu": lambda a, b: 1 if a & MASK64 >= b & MASK64 else 0,
    "shl": lambda a, b: ((a & MASK64) << (b & 63)) & MASK64,
    "shr": lambda a, b: (a & MASK64) >> (b & 63),
    "sra": lambda a, b: int_to_bits(bits_to_int(a) >> (b & 63)),
    "div": lambda a, b: int_to_bits(_sdiv(bits_to_int(a), bits_to_int(b))),
    "rem": lambda a, b: int_to_bits(_srem(bits_to_int(a), bits_to_int(b))),
    **{op: _float_bin(f) for op, f in _FBIN.items()},
    **{op: _float_cmp(f) for op, f in _FCMP.items()},
}

#: operator name -> ``a -> value`` on a 64-bit pattern
_UNOPS: Dict[str, Callable[[int], int]] = {
    "not": lambda a: (a & MASK64) ^ MASK64,
    "neg": lambda a: (-a) & MASK64,
    "itof": lambda a: float_to_bits(float(bits_to_int(a))),
    "ftoi": _ftoi,
}


def binop_fn(op: str) -> Callable[[int, int], int]:
    """``binop(op, a, b)`` as a two-argument callable, looked up once
    (the cycle simulator's ALU binds one per static instruction)."""
    fn = _BINOPS.get(op)
    if fn is None:
        raise TirError(f"unknown binop {op!r}")
    return fn


def unop_fn(op: str) -> Callable[[int], int]:
    """``unop(op, a)`` as a one-argument callable."""
    fn = _UNOPS.get(op)
    if fn is None:
        raise TirError(f"unknown unop {op!r}")
    return fn


def binop(op: str, a: int, b: int) -> int:
    """Apply binary operator ``op`` to two 64-bit patterns."""
    return binop_fn(op)(a, b)


def unop(op: str, a: int) -> int:
    """Apply unary operator ``op`` to a 64-bit pattern."""
    return unop_fn(op)(a)


def truncate_load(bits: int, size: int, signed: bool) -> int:
    """Model a ``size``-byte load of the low bytes of ``bits``."""
    mask = (1 << (8 * size)) - 1
    value = bits & mask
    if signed and value >> (8 * size - 1):
        value -= 1 << (8 * size)
    return int_to_bits(value)

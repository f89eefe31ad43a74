"""Checked 64-bit signed arithmetic.

The oracle uses these scalar primitives; the engine's vector kernel
`checked_arith` is tested against them, so overflow and division agree on
both routes. Division truncates toward zero, matching AVG.
"""

from __future__ import annotations

from .errors import ArithmeticOverflow, DivisionByZero

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check64(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticOverflow()
    return value


def add64(a: int, b: int) -> int:
    return check64(a + b)


def sub64(a: int, b: int) -> int:
    return check64(a - b)


def mul64(a: int, b: int) -> int:
    return check64(a * b)


def div64(a: int, b: int) -> int:
    """Truncating division toward zero; INT64_MIN / -1 overflows."""
    if b == 0:
        raise DivisionByZero()
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return check64(q)

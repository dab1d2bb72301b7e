"""Exact rationals, cyclic coordinates, and the ordering vocabulary.

Everything in this package computes with exact integer and rational
arithmetic; there is no floating point anywhere.  All values are
immutable after construction and all operations are pure functions, so
unrestricted concurrent use is safe.

Comparisons come in two flavours:

* ``Ordering`` -- the outcome of an exact three-way comparison
  (trichotomy holds: exactly one of Less / Equal / Greater).
* ``Verdict`` -- the outcome of an exact equality test: ``Equal``, or
  ``Distinct(witness)``; for wreath elements with equal tops the
  witness is the least coordinate where the two differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Protocol, runtime_checkable

#: Exact arbitrary-precision fraction.  ``fractions.Fraction`` already
#: guarantees lowest terms and a positive denominator, which is exactly
#: the canonical form required everywhere in this package.
Rational = Fraction


class Ordering(Enum):
    """Exact three-way comparison outcome."""

    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"

    @staticmethod
    def of(a: Any, b: Any) -> "Ordering":
        """Compare two values that support ``<``."""
        if a < b:
            return Ordering.LESS
        if b < a:
            return Ordering.GREATER
        return Ordering.EQUAL

    def reversed(self) -> "Ordering":
        if self is Ordering.LESS:
            return Ordering.GREATER
        if self is Ordering.GREATER:
            return Ordering.LESS
        return self

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    """Exact equality outcome: Equal / Distinct.

    ``Distinct`` carries a witness: for wreath elements with equal tops
    the least coordinate at which their base functions differ; for two
    rationals, their difference.
    """

    kind: str
    witness: Any = None

    @staticmethod
    def equal() -> "Verdict":
        return Verdict("equal")

    @staticmethod
    def distinct(witness: Any) -> "Verdict":
        return Verdict("distinct", witness=witness)

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.kind == "distinct"

    def __str__(self) -> str:
        if self.is_equal:
            return "Equal"
        return f"Distinct({self.witness})"


@runtime_checkable
class OrderedGroup(Protocol):
    """Contract shared by every group in this package.

    ``compare`` is a total, bi-invariant order: g1 < g2 implies
    g1*x < g2*x and x*g1 < x*g2.
    """

    def identity(self) -> Any: ...

    def mul(self, x: Any, y: Any) -> Any: ...

    def inv(self, x: Any) -> Any: ...

    def equal(self, x: Any, y: Any) -> bool: ...

    def compare(self, x: Any, y: Any) -> Ordering: ...

    def is_positive(self, x: Any) -> bool: ...


# -- rational helpers --------------------------------------------------

def canonical_fraction(m: int, n: int) -> Rational:
    """m/n in lowest terms with a positive denominator.

    Raises ValueError for n == 0.
    """
    if n == 0:
        raise ValueError("denominator must be nonzero")
    return Fraction(m, n)


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Rational:
    """Parse the literal syntax ``m/n`` or ``m`` (optional leading -)."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than Python converts
        raise ValueError("rational literal is too long") from None
    return canonical_fraction(num, den)


def format_rational(q: Rational) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RationalFiber:
    """The additive group of exact rationals, as a fiber of a wreath base."""

    name = "Q"

    def identity(self) -> Rational:
        return Fraction(0)

    def mul(self, x: Rational, y: Rational) -> Rational:
        return x + y

    def inv(self, x: Rational) -> Rational:
        return -x

    def pow(self, x: Rational, n: int) -> Rational:
        return x * n

    def is_identity(self, x: Rational) -> bool:
        return x == 0

    def equal(self, x: Rational, y: Rational) -> bool:
        return x == y

    def equal_verdict(self, x: Rational, y: Rational) -> Verdict:
        return Verdict.equal() if x == y else Verdict.distinct(x - y)

    def compare(self, x: Rational, y: Rational) -> Ordering:
        return Ordering.of(x, y)

    def is_positive(self, x: Rational) -> bool:
        return x > 0

    def key(self, x: Rational) -> Any:
        return x

    def fmt(self, x: Rational) -> str:
        return format_rational(x)


RATIONALS = RationalFiber()


class IntCoords:
    """Infinite cyclic coordinate group: ints standing for powers of one letter."""

    def __init__(self, letter: str):
        self.letter = letter

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def compare(self, a: int, b: int) -> Ordering:
        return Ordering.of(a, b)

    def key(self, a: int) -> int:
        return a

    def ray_decompose(self, k: int) -> tuple[int, int]:
        """(representative, index) of k: the whole line is one ray, with
        representative 0, and k is its k-th point."""
        return 0, k

    def witness_power(self, k: int) -> int:
        """The k-th point of the one ray: k itself."""
        return k

    def fmt(self, a: int) -> str:
        return f"{self.letter}^{a}"

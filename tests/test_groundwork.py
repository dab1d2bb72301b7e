from fractions import Fraction
from random import Random

import pytest

from wreathord.groundwork import (
    Ordering,
    canonical_fraction,
    format_rational,
    parse_rational,
)


def test_rat_add_textbook():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rat_add_inverse():
    for n in (1, 2, 7, 360):
        assert Fraction(1, n) + Fraction(-1, n) == 0


def test_repeated_addition_matches_embedded_value():
    # oracle: five copies of 1/6 summed one by one
    total = Fraction(0)
    for _ in range(5):
        total = total + Fraction(1, 6)
    assert total == Fraction(5, 6)
    # the embedded image of 5/6 carries the same value pointwise
    from wreathord.embed_rationals import phi_element
    inner = phi_element(Fraction(5, 6)).eval(0)
    assert inner.eval(0) == total


def test_rat_cmp_examples():
    assert Ordering.of(Fraction(1, 3), Fraction(1, 2)) is Ordering.LESS
    assert Ordering.of(Fraction(-1, 2), Fraction(-1, 3)) is Ordering.LESS
    assert Ordering.of(Fraction(7, 9), Fraction(7, 9)) is Ordering.EQUAL


def test_canonical_fraction():
    assert canonical_fraction(2, 4) == Fraction(1, 2)
    q = canonical_fraction(3, -6)
    assert (q.numerator, q.denominator) == (-1, 2)
    assert canonical_fraction(0, 7) == Fraction(0, 1)
    with pytest.raises(ValueError):
        canonical_fraction(1, 0)


def test_rational_literals():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    for bad in ("1/0", "x", "1/-2", "1.5"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_addition_laws_random():
    rng = Random(20240)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + Fraction(0) == a
        # order is compatible with addition
        if Ordering.of(a, b) is Ordering.LESS:
            assert Ordering.of(a + c, b + c) is Ordering.LESS

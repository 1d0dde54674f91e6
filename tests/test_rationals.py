from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanstab.rationals import parse_rational
from oracles import binomial

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_field_examples():
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(2, 45) * F(-8, 9) == F(-16, 405)
    with pytest.raises(ZeroDivisionError):
        F(1, 2) / F(0)


@given(rationals, rationals)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals)
def test_mul_div_roundtrip(a, b):
    if b != 0:
        assert (a * b) / b == a


@given(rationals)
def test_canonical_form(a):
    assert a.denominator > 0
    assert F(a.numerator, a.denominator) == a
    import math

    assert math.gcd(abs(a.numerator), a.denominator) == 1


def test_binomial_examples():
    assert binomial(F(1, 2), 2) == F(-1, 8)
    assert binomial(F(7, 3), 0) == 1
    assert binomial(F(2), 3) == 0  # integer upper index below lower index
    assert binomial(F(-1, 2), 1) == F(-1, 2)


def test_binomial_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        binomial(F(1, 2), -1)


def test_parse_rational():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    with pytest.raises(ValueError, match="fraction"):
        parse_rational("0.25")
    with pytest.raises(ValueError):
        parse_rational("x")

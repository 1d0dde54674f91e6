import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent import LaurentScalar
from meanstab.polynomials import QuadraticField
from meanstab.series import (
    _horner_form,
    _integer_form,
    _power_form,
    _product_form,
    series_mul,
    series_power,
)
from oracles import (
    binomial,
    cauchy_product,
    compose_on_forms,
    horner_compose,
    power_recursion,
    power_table,
)

ORDER = 10

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
exponents = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda r: r != 0)


def unit_series(draw_tail):
    return (F(1),) + tuple(draw_tail)


tails = st.lists(small_rationals, min_size=ORDER, max_size=ORDER).map(tuple)


class TestSeriesPower:
    def test_identity_exponent(self):
        a = (F(1), F(2), F(-3), F(1, 5))
        assert series_power(a, 1, 3) == a

    def test_geometric_series(self):
        # 1/(1+u) = 1 - u + u^2 - ...
        out = series_power((F(1), F(1)), -1, 6)
        assert out == tuple(F((-1) ** n) for n in range(7))

    def test_square_root_matches_binomials(self):
        out = series_power((F(1), F(1)), F(1, 2), 8)
        assert out == tuple(binomial(F(1, 2), n) for n in range(9))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            series_power((F(0), F(1)), -1, 3)

    def test_fractional_power_requires_unit_head(self):
        with pytest.raises(ValueError, match="irrational leading power"):
            series_power((F(2), F(1)), F(1, 2), 3)

    def test_integer_power_allows_any_head(self):
        out = series_power((F(3), F(1)), 2, 3)
        assert out == (F(9), F(6), F(1), F(0))

    @settings(max_examples=60, deadline=None)
    @given(tails, exponents, exponents)
    def test_exponent_additivity(self, tail, r, s):
        a = (F(1),) + tail
        lhs = series_mul(series_power(a, r, ORDER), series_power(a, s, ORDER), ORDER)
        assert lhs == series_power(a, r + s, ORDER)

    @settings(max_examples=60, deadline=None)
    @given(tails, exponents)
    def test_involution(self, tail, r):
        a = (F(1),) + tail
        assert series_power(series_power(a, r, ORDER), 1 / r, ORDER) == a

    @settings(max_examples=30, deadline=None)
    @given(tails, st.integers(min_value=1, max_value=5))
    def test_positive_integer_power_is_repeated_multiplication(self, tail, n):
        a = (F(1),) + tail
        expected = (F(1),) + (F(0),) * ORDER
        for _ in range(n):
            expected = series_mul(expected, a, ORDER)
        assert series_power(a, n, ORDER) == expected
        assert power_table((F(1),), a, ORDER)[n] == expected


class TestSeriesMul:
    def test_multiplicative_identity(self):
        a = (F(2), F(3), F(-1))
        assert series_mul(a, (F(1), F(0), F(0)), 2) == a

    def test_simple_product(self):
        assert series_mul((F(1), F(1)), (F(1), F(-1)), 2) == (F(1), F(0), F(-1))

    def test_reciprocal_law(self):
        rng = random.Random(3)
        a = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9))
        a = (F(2),) + a[1:]
        recip = series_power(a, -1, 8)
        assert series_mul(a, recip, 8) == (F(1),) + (F(0),) * 8


class TestSeriesCompose:
    """Composition by the kernel's Horner primitive, through
    compose_on_forms."""

    def test_identity_outer(self):
        inner = (F(0), F(1), F(4), F(-2))
        assert compose_on_forms((F(0), F(1)), inner, 3) == inner

    def test_arctan_of_u(self):
        arctan = tuple(
            F(0) if n % 2 == 0 else F((-1) ** (n // 2), n) for n in range(8)
        )
        assert compose_on_forms(arctan, (F(0), F(1)), 7) == arctan

    def test_log_of_exp_is_identity(self):
        order = 8
        log1p = tuple(
            F(0) if n == 0 else F((-1) ** (n + 1), n) for n in range(order + 1)
        )
        expm1 = tuple(
            F(0) if n == 0 else F(1, math.factorial(n)) for n in range(order + 1)
        )
        out = compose_on_forms(log1p, expm1, order)
        assert out == (F(0), F(1)) + (F(0),) * (order - 1)

    def test_associativity(self):
        rng = random.Random(17)
        order = 8
        for _ in range(5):
            outer = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1))
            mid = (F(0),) + tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order))
            inner = (F(0),) + tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order))
            lhs = compose_on_forms(compose_on_forms(outer, mid, order), inner, order)
            rhs = compose_on_forms(outer, compose_on_forms(mid, inner, order), order)
            assert lhs == rhs


# Sparse coefficient lists of any length, with ints among the Fractions.
sparse_series = st.lists(
    st.one_of(st.just(F(0)), small_rationals, st.integers(min_value=-4, max_value=4)),
    max_size=ORDER + 4,
)
orders = st.integers(min_value=0, max_value=ORDER)
integer_heads = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    lambda c: c not in (0, 1)
)
fractional_exponents = exponents.filter(lambda r: r.denominator != 1)


def assert_same(out, reference):
    """Equal coefficients of the same type, in a tuple of the same length."""
    assert type(out) is tuple
    assert out == reference
    assert [type(c) for c in out] == [type(c) for c in reference]


class TestIntegerKernelAgainstFractionLoops:
    @settings(max_examples=150, deadline=None)
    @given(sparse_series, sparse_series, orders)
    def test_product(self, a, b, order):
        # All-rational input comes back as Fractions, ints included.
        assert_same(series_mul(a, b, order), tuple(map(F, cauchy_product(a, b, order))))

    @settings(max_examples=60, deadline=None)
    @given(sparse_series, orders, fractional_exponents)
    def test_fractional_power_of_unit_head(self, tail, order, r):
        a = [F(1)] + tail
        assert_same(series_power(a, r, order), power_recursion(a, r, order))

    @settings(max_examples=60, deadline=None)
    @given(integer_heads, sparse_series, orders, st.integers(min_value=-6, max_value=6))
    def test_integer_power(self, head, tail, order, r):
        a = [head] + tail
        assert_same(series_power(a, r, order), power_recursion(a, r, order))
        assert_same(series_power(a, F(r), order), power_recursion(a, F(r), order))

    def test_long_operands(self):
        rng = random.Random(41)
        order = 40
        a = tuple(F(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(order + 1))
        b = tuple(F(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(order + 1))
        assert_same(series_mul(a, b, order), cauchy_product(a, b, order))
        unit = (F(1),) + a[1:]
        assert_same(series_power(unit, F(-7, 3), order), power_recursion(unit, F(-7, 3), order))
        assert_same(series_power(a, -3, order), power_recursion(a, -3, order))

    def test_int_input_gives_fractions(self):
        # All-int input runs on integer forms like any rational input.
        assert_same(series_mul((1, 2), (3, 0, 1), 2), (F(3), F(6), F(1)))


class TestHornerOverQ:
    """The kernel's integer Horner primitive against the loop of one reduced
    product per step."""

    @settings(max_examples=150, deadline=None)
    @given(
        sparse_series,
        st.sampled_from((F(0), 0)),
        st.integers(min_value=1, max_value=3),
        sparse_series,
        orders,
    )
    def test_compose(self, outer, zero, valuation, tail, order):
        inner = [zero] * valuation + tail
        reference = tuple(map(F, horner_compose(outer, inner, order)))
        assert_same(compose_on_forms(outer, inner, order), reference)

    def test_long_operands(self):
        rng = random.Random(43)
        order = 40
        outer = [F(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(order + 5)]
        for valuation in (1, 2, 5):
            inner = [F(0)] * valuation + [
                F(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(order)
            ]
            assert_same(compose_on_forms(outer, inner, order), horner_compose(outer, inner, order))

    def test_zero_inner_keeps_the_constant_term(self):
        outer, inner = (F(2, 3), 5, F(7)), (0, 0, 0)
        assert_same(compose_on_forms(outer, inner, 2), (F(2, 3), F(0), F(0)))
        assert_same(horner_compose(outer, inner, 2), (F(2, 3), F(0), F(0)))


class TestPrimitivesHandOnLowestTerms:
    """The integer primitives return the least common denominator form of
    the public result, the form their callers hand on without a Fraction."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_series, sparse_series, st.integers(min_value=1, max_value=3), orders)
    def test_product_power_and_composition(self, a, b, valuation, order):
        a = [F(1)] + a
        inner = [F(0)] * valuation + b
        fa, fb, fi = (_integer_form(seq, order) for seq in (a, b, inner))
        assert _product_form(fa, fb, order) == _integer_form(series_mul(a, b, order), order)
        for r in (-2, -1, F(1, 2), F(-5, 3)):
            assert _power_form(fa, F(r), order) == _integer_form(
                series_power(a, r, order), order
            )
        assert _horner_form(fa, fi, order) == _integer_form(
            compose_on_forms(a, inner, order), order
        )


class TestPowerAtExponentOne:
    """At r = 1 the power primitive does no recursion: it returns its
    operand through the order, reduced, for every scalar."""

    def test_over_q(self):
        assert _power_form(([6, 4, -2, 8], 4), F(1), 2) == ([3, 2, -1], 2)
        assert _power_form(([3, 1, 2], 5), 1, 2) == ([3, 1, 2], 5)
        with pytest.raises(ValueError, match="zero constant term"):
            _power_form(([0, 1], 1), F(1), 1)

    def test_over_a_fraction_subclass(self):
        class Sub(F):
            pass

        nums = [Sub(2), Sub(-1, 3), Sub(4)]
        assert _power_form((nums, F(1)), F(1), 2) == (nums, F(1))
        out, den = _power_form((nums, F(2)), F(1), 1)
        assert type(den) is F and den == 1 and out == [F(1), F(-1, 6)]

    def test_over_laurent_germs(self):
        germs = [LaurentScalar.from_poly([F(1), F(2)], window=8), LaurentScalar(1, (F(3),), 5, 8)]
        out, den = _power_form((germs, F(1)), F(1), 1)
        assert den == 1 and out == germs
        out, den = _power_form((germs, F(2)), F(1), 1)
        assert den == 1 and [(c.val, c.coeffs, c.floor) for c in out] == [
            (c.val, c.coeffs, c.floor) for c in (germs[0] * F(1, 2), germs[1] * F(1, 2))
        ]


class TestPowerNearExponentMinusOne:
    """At r = -1 the power primitive drops the k-weighted sum, whose weight
    s + t is 0; the inverse and its neighbours r = -2 and -1/2 must still
    equal the scalar-generic recursion in every field."""

    EXPONENTS = [-1, F(-1), -2, F(-1, 2)]

    @staticmethod
    def operand(r, one, head, tail):
        """head + tail, with the head one when r is fractional."""
        return (head if F(r).denominator == 1 else one,) + tuple(tail)

    @pytest.mark.parametrize("r", EXPONENTS, ids=repr)
    @settings(max_examples=40, deadline=None)
    @given(head=small_rationals.filter(lambda c: c != 0), tail=tails, order=st.integers(0, ORDER))
    def test_over_q(self, r, head, tail, order):
        a = self.operand(r, F(1), head, tail)
        nums, den = _power_form(_integer_form(a, order), r, order)
        assert type(den) is int
        assert_same(tuple(F(q, den) for q in nums), power_recursion(a, r, order))

    @pytest.mark.parametrize("r", EXPONENTS, ids=repr)
    def test_over_a_fraction_subclass(self, r):
        class Sub(F):
            pass

        rng = random.Random(17)
        tail = [Sub(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)]
        a = self.operand(r, Sub(1), Sub(-3, 4), tail)
        reference = power_recursion(a, r, 12)
        for den in (F(1), F(5, 3)):
            out, out_den = _power_form(([c * den for c in a], den), r, 12)
            assert out_den == 1 and out == list(reference)
        assert series_power(a, r, 12) == reference

    @pytest.mark.parametrize("r", EXPONENTS, ids=repr)
    def test_over_laurent_germs(self, r):
        germ = lambda *coeffs: LaurentScalar.from_poly([F(c) for c in coeffs], window=8)
        tail = [germ(0, 2), germ(F(1, 3)), germ(-1, 0, 1), germ(5, F(-1, 2))]
        a = self.operand(r, germ(1), germ(2, 1), tail)
        parts = lambda out: [(c.val, c.coeffs, c.floor) for c in out]
        out, den = _power_form((list(a), F(1)), r, 6)
        assert den == 1 and parts(out) == parts(power_recursion(a, r, 6))


def lowest_terms_form(values):
    """(nums, den) of rational values over their least common denominator."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


@st.composite
def power_form_inputs(draw):
    """(values, form, r, order): a rational exponent with head 1, or an
    integer one with a negative head, and the form of the values with its
    numerators and den multiplied by a common factor."""
    order = draw(orders)
    if draw(st.booleans()):
        r, head = draw(exponents), F(1)
    else:
        r = draw(st.integers(min_value=-5, max_value=5))
        head = -draw(st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7))
    values = (head,) + draw(st.lists(small_rationals, min_size=order, max_size=order).map(tuple))
    nums, den = lowest_terms_form(values)
    factor = draw(st.sampled_from((1, 2, 6, 35, 2**40)))
    return values, ([c * factor for c in nums], den * factor), r, order


class TestPowerFormAgainstTheRecursion:
    """The power primitive on integer forms returns the oracle's values over
    their least common denominator, whatever content its operand carries."""

    @settings(max_examples=300, deadline=None)
    @given(power_form_inputs())
    def test_over_q(self, case):
        values, form, r, order = case
        reference = power_recursion(values, r, order)
        assert all(type(c) is F for c in reference)
        out = _power_form(form, r, order)
        assert type(out[1]) is int and out == lowest_terms_form(reference)

    @settings(max_examples=60, deadline=None)
    @given(
        small_rationals,
        small_rationals.filter(lambda b: b != 0),
        st.sampled_from((2, 3, 5, 7)),
        st.lists(small_rationals, min_size=6, max_size=6),
        st.sampled_from((1, 4, 15)),
    )
    def test_quadratic_field_exponent(self, a, b, s, tail, factor):
        # A field exponent takes the field path: its values over Fraction(1).
        r = QuadraticField(a, b, s)
        values = (F(1),) + tuple(tail)
        nums, den = lowest_terms_form(values)
        out = _power_form(([c * factor for c in nums], den * factor), r, 6)
        assert out == (list(power_recursion(values, r, 6)), 1)

    def test_int_parts_stay_exact(self):
        # A quotient of int parts is exact, and so is a power at such an
        # exponent: (1 + u)**sqrt(2) = 1 + sqrt2 u + (1 - sqrt2/2) u**2 + ...
        root2 = QuadraticField(0, 1, 2)
        inverse = 1 / root2
        assert inverse == QuadraticField(F(0), F(1, 2), 2)
        assert type(inverse.a) is F and type(inverse.b) is F
        out = series_power((1, 1), root2, 3)
        assert out == (F(1), root2, QuadraticField(F(1), F(-1, 2), 2),
                       QuadraticField(F(-1), F(2, 3), 2))
        assert all(type(part) is F for c in out[1:] for part in (c.a, c.b))


class TestIntInputStaysExact:
    """Dividing loops on int coefficients give Fractions, never floats."""

    def test_values_and_types(self):
        assert_same(series_power((1, 1), -1, 3), (F(1), F(-1), F(1), F(-1)))
        assert_same(series_power((2, 1), -1, 2), (F(1, 2), F(-1, 4), F(1, 8)))
        assert_same(series_power((3, 1), 2, 3), (F(9), F(6), F(1), F(0)))
        assert_same(series_power((1, 2), F(1, 2), 2), (F(1), F(1), F(-1, 2)))
        # A product of ints: test_int_input_gives_fractions.


class TestNonRationalScalars:
    """A scalar that is neither Fraction nor int runs on forms of its own
    values, through the primitives of a rational call, and gives the values
    and windows of the scalar-generic oracles."""

    @staticmethod
    def germ(*coeffs):
        return LaurentScalar.from_poly([F(c) for c in coeffs], window=8)

    def series(self):
        return (self.germ(1, 1), self.germ(0, 2), self.germ(F(1, 3)), self.germ(-1, 0, 1))

    @staticmethod
    def parts(out):
        return [(c.val, c.coeffs, c.floor) for c in out]

    def test_product_power_and_composition(self):
        a = self.series()
        b = (self.germ(2),) + a[1:]
        z = (self.germ(0),) + a[1:]
        runs = [
            (series_mul(a, b, 5), cauchy_product(a, b, 5)),
            (series_power(b, -2, 5), power_recursion(b, -2, 5)),
            (series_power((self.germ(1),) + a[1:], F(1, 2), 5),
             power_recursion((self.germ(1),) + a[1:], F(1, 2), 5)),
            (compose_on_forms(a, z, 5), horner_compose(a, z, 5)),
            (compose_on_forms(a[:1], z, 5), horner_compose(a[:1], z, 5)),
            (compose_on_forms(a, (), 5), horner_compose(a, (), 5)),
        ]
        for out, reference in runs:
            assert all(type(c) is LaurentScalar for c in out)
            assert self.parts(out) == self.parts(reference)

    def test_mixed_operands_compute_in_the_germs(self):
        # A Fraction series with a germ series: the values of the oracles on
        # the same pair, and the windows of the oracles on the Fraction
        # series lifted to exact germs, every coefficient a germ.
        a = self.series()[:1] + (LaurentScalar(1, (F(2), F(-1)), 4, 8),) + self.series()[2:]
        z = (self.germ(0),) + a[1:]
        f = (F(1, 2), F(-1), 0, F(2, 3), F(5))
        fz = (F(0),) + f[1:]
        lift = lambda seq: tuple(self.germ(c) for c in seq)
        runs = [
            (series_mul(f, a, 5), cauchy_product(f, a, 5), cauchy_product(lift(f), a, 5)),
            (series_mul(a, f, 5), cauchy_product(a, f, 5), cauchy_product(a, lift(f), 5)),
            (compose_on_forms(f, z, 5), horner_compose(f, z, 5), horner_compose(lift(f), z, 5)),
            (compose_on_forms(a, fz, 5), horner_compose(a, fz, 5), horner_compose(a, lift(fz), 5)),
        ]
        for out, values, windows in runs:
            assert all(type(c) is LaurentScalar for c in out)
            assert all(not (c - v).coeffs for c, v in zip(out, values, strict=True))
            assert self.parts(out) == self.parts(windows)

    def test_fraction_subclass_takes_the_generic_form(self):
        products = []

        class Counted(F):
            def __mul__(self, other):
                products.append(other)
                return super().__mul__(other)

        a = (Counted(1), Counted(1, 2), Counted(-2, 3))
        out = series_mul(a, a, 4)
        assert products  # the subclass's own product, not integer numerators
        assert_same(out, cauchy_product(a, a, 4))


class TestCalculus:
    def test_int_pow_with_zero_head(self):
        u = (F(0), F(1))
        assert power_table((F(1),), u, 5)[3] == (F(0), F(0), F(0), F(1), F(0), F(0))

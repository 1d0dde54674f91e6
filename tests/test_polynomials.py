import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_roots_by_sturm,
    descartes_count_by_products,
    extract_square_every_divisor,
    isolate_real_roots_by_divisor_search,
    lagrange_interpolate,
    rational_roots_by_divisor_search,
    simplest_between_by_recursion,
    surd_approx_by_fractions,
    surd_bounds_by_bisection,
    surd_from_parts,
)
from meanstab.polynomials import (
    IntervalRoot,
    QuadraticField,
    RationalRoot,
    UniPoly,
    _descartes_count,
    _exact_sqrt,
    _extract_square,
    _refine,
    forward_differences,
    isolate_real_roots,
    newton_forward,
    poly_gcd,
    simplest_between,
    squarefree_part,
)
from meanstab.series import _integer_form
from meanstab.solver import AffineLocus


def poly(*coeffs):
    return UniPoly(coeffs)


def surd_intervals(roots, a, b):
    """The two IntervalRoots of roots that hold a - sqrt(b) and a + sqrt(b),
    checked exactly: each is at most 10**-12 wide, (x - a)**2 - b changes
    sign across it, and it lies on its root's side of a."""
    quadratic = poly(a * a - b, -2 * a, 1)
    holding = [r for r in roots
               if isinstance(r, IntervalRoot) and quadratic(r.low) * quadratic(r.high) < 0]
    low = [r for r in holding if r.high < a]
    high = [r for r in holding if r.low > a]
    assert len(holding) == 2 and len(low) == len(high) == 1, holding
    assert all(r.high - r.low <= F(1, 10**12) for r in holding)
    return low[0], high[0]


def sign_of(value):
    """The sign of an irrational value of Q(sqrt(s)), from its enclosures by
    bisection (surd_bounds_by_bisection), narrowed until one excludes 0."""
    width = F(1, 2**64)
    while True:
        low, high = surd_bounds_by_bisection(value, width)
        if low > 0 or high < 0:
            return 1 if low > 0 else -1
        width *= width


def holds(root, surd):
    """Whether root is an IntervalRoot at most 10**-12 wide that holds the
    surd, a value of Q(sqrt(s)), by the exact signs of its distances to the
    ends."""
    return (isinstance(root, IntervalRoot) and root.high - root.low <= F(1, 10**12)
            and sign_of(surd - root.low) == 1 == sign_of(root.high - surd))


def spelled(value):
    """The parts (add, sign, radicand, div) that a report spells a value of
    Q(sqrt(s)) with, sign that of b."""
    return value.add, 1 if value.b > 0 else -1, value.radicand, value.div


def midpoint(root):
    """A root's float: a rational root's value, an interval's midpoint."""
    return float(root.value if isinstance(root, RationalRoot) else (root.low + root.high) / 2)


class TestUniPoly:
    def test_trimming_and_degree(self):
        assert poly(1, 2, 0, 0).degree == 1
        assert poly().is_zero
        assert poly(0, 0).is_zero

    def test_arithmetic(self):
        a = poly(1, 1)  # 1 + x
        b = poly(-1, 1)  # -1 + x
        assert (a * b).coeffs == (F(-1), F(0), F(1))
        assert (a + b).coeffs == (F(0), F(2))
        assert (a - a).is_zero

    def test_divmod(self):
        p = poly(-2, 0, 1)  # x^2 - 2
        d = poly(1, 1)
        q, r = divmod(p, d)
        assert q * d + r == p

    def test_gcd_and_squarefree(self):
        a = poly(-1, 1)
        b = poly(2, 1)
        p = a * a * b
        assert poly_gcd(p, p.derivative()) == a.monic()
        assert squarefree_part(p) == (a * b).monic()

    def test_zero_polynomial_edges(self):
        with pytest.raises(ValueError, match="no leading coefficient"):
            poly().leading
        with pytest.raises(ZeroDivisionError):
            divmod(poly(1, 1), poly())
        assert poly().monic() == poly()
        with pytest.raises(ValueError, match="zero polynomial"):
            squarefree_part(poly())

    def test_squarefree_part_checks_the_gcd_divides(self, monkeypatch):
        import meanstab.polynomials as polynomials

        # (x - 1)**2 * (x + 2) with a gcd that is not its divisor x - 1
        monkeypatch.setattr(polynomials, "poly_gcd", lambda a, b: poly(-5, 1))
        with pytest.raises(ArithmeticError, match="does not divide"):
            squarefree_part(poly(2, -3, 0, 1))


class TestSurdsAndSquares:
    @pytest.mark.parametrize("radicand", [F(0), F(-3), F(-1, 4)], ids=str)
    def test_a_surd_needs_a_positive_radicand(self, radicand):
        # 1/2 + sqrt(0)/2 is the Fraction 1/2; a negative radicand has no
        # real root
        if radicand == 0:
            value = F(1, 2) + F(1, 2) * _exact_sqrt(radicand)
            assert type(value) is F and value == F(1, 2)
        else:
            with pytest.raises(ValueError, match="no real square root"):
                _exact_sqrt(radicand)

    @pytest.mark.parametrize("radicand", [F(4), F(9, 25), F(1, 16), F(18, 8)], ids=str)
    def test_a_surd_refuses_a_perfect_square(self, radicand):
        # the root of a rational square is a Fraction, and so is 1/3 - root/3
        root = _exact_sqrt(radicand)
        assert type(root) is F and root > 0 and root * root == radicand
        assert type(F(1, 3) - F(1, 3) * root) is F

    @pytest.mark.parametrize(
        ("coeffs", "small"),
        [((1, -2 * 10**8, 1), 5e-9), ((F(1, 10**12), -2, 1), 5.00000000000125e-13)],
        ids=["x^2-2e8x+1", "x^2-2x+1e-12"],
    )
    def test_float_of_a_small_root_does_not_cancel(self, coeffs, small):
        low, high = isolate_real_roots_by_divisor_search(poly(*coeffs))
        assert math.isclose(float(low), small, rel_tol=1e-15)
        assert math.isclose(float(high), coeffs[0] / small, rel_tol=1e-15)  # the product of the roots

    @settings(max_examples=300, deadline=None)
    @given(
        add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        sign=st.sampled_from((-1, 1)),
        offset=st.fractions(min_value=F(1, 10**6), max_value=10**12, max_denominator=10**6),
        near=st.booleans(),
        div=st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3).filter(bool),
    )
    def test_float_is_within_a_few_units_of_the_value(self, add, sign, offset, near, div):
        # near: a radicand just above add**2, where add - sqrt(radicand) cancels
        radicand = add * add + offset if near else offset
        sqrt = _exact_sqrt(radicand)
        assume(isinstance(sqrt, QuadraticField))
        value = add / div + sign / div * sqrt
        low, high = surd_bounds_by_bisection(value, F(1, 10**80))
        assert math.isclose(float(value), float(low), rel_tol=2e-15)

    @settings(max_examples=500, deadline=None)
    @given(
        add=st.just(F(0)) | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        sign=st.sampled_from((-1, 1)),
        radicand=(st.fractions(min_value=0, max_value=10**12, max_denominator=10**6)
                  | st.fractions(min_value=0, max_value=10**3, max_denominator=10**3).map(lambda x: x * x)),
        div=st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3).filter(bool),
        canonical=st.booleans(),
    )
    def test_float_is_the_fraction_dispatch_bit_for_bit(self, add, sign, radicand, div, canonical):
        # the parts as they are, the radicand n/d made the integer n*d as
        # sqrt(n/d) = sqrt(n*d)/d (perfect squares and zero included, where
        # add + sign*sqrt(radicand) can cancel to a signed zero), or the
        # canonical value of Q(sqrt(core))
        if canonical:
            sqrt = _exact_sqrt(radicand)
            assume(isinstance(sqrt, QuadraticField))
            value = add / div + sign / div * sqrt
        else:
            n, d = radicand.as_integer_ratio()
            value = QuadraticField(add / div, F(sign, d) / div, F(n * d))
        assert float(value).hex() == surd_approx_by_fractions(value).hex()

    @pytest.mark.parametrize(("add", "sign", "expected"), [
        (F(-2), 1, "-0x0.0p+0"), (F(2), -1, "0x0.0p+0"), (F(2), 1, "0x1.5555555555555p+0"),
    ])
    def test_float_spells_an_exact_cancellation_with_its_sign(self, add, sign, expected):
        # (add + sign*2)/3 with add*sign < 0 takes the non-cancelling form
        # (add**2 - 4)/(3*(add - sign*2)), an exact zero over a signed float
        value = QuadraticField(add / 3, F(sign, 3), F(4))
        assert float(value).hex() == surd_approx_by_fractions(value).hex() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        sign=st.sampled_from((-1, 1)),
        radicand=st.fractions(min_value=F(1, 10**6), max_value=10**12, max_denominator=10**6),
        div=st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3).filter(bool),
        slope=st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
        intercept=st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    def test_a_surd_value_is_the_canonical_form_of_its_parts(
        self, add, sign, radicand, div, slope, intercept
    ):
        # the value a + b*sqrt(s), and an affine image of it computed in
        # Q(sqrt(s)), are what arithmetic on (add, sign, radicand, div)
        # gives, and spell themselves with div > 0 and their own value
        value = add / div + sign / div * _exact_sqrt(radicand)
        assume(isinstance(value, QuadraticField))
        assert value == surd_from_parts(add, sign, radicand, div)
        image = intercept + slope * value
        add, sign, radicand, div = spelled(value)
        assert image == surd_from_parts(intercept * div + slope * add, sign if slope > 0 else -sign,
                                        slope * slope * radicand, div)
        for x in (value, image):
            add, sign, radicand, div = spelled(x)
            assert div > 0 and x == surd_from_parts(add, sign, radicand, div)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.integers(-10**6, 10**6) | st.fractions(max_denominator=10**6),
        b=(st.integers(-10**6, 10**6) | st.fractions(max_denominator=10**6)).filter(bool),
        s=st.integers(2, 10**6),
    )
    def test_report_parts_are_quotients_of_the_parts(self, a, b, s):
        # add and div, read from the integer ratios of a and b, are the
        # Fraction quotients a/|b| and 1/|b|, at either sign of either part
        value = QuadraticField(a, b, F(s))
        assert value.add == value.a / abs(value.b) and type(value.add) is F
        assert value.div == 1 / abs(value.b) and type(value.div) is F

    def test_exact_sqrt(self):
        assert _exact_sqrt(F(9, 4)) == F(3, 2) and type(_exact_sqrt(F(9, 4))) is F
        assert _exact_sqrt(F(0)) == 0 and type(_exact_sqrt(F(0))) is F
        for q in (F(-4), F(-9, 4)):
            with pytest.raises(ValueError, match="no real square root"):
                _exact_sqrt(q)
        assert _exact_sqrt(F(2)) == QuadraticField(F(0), F(1), F(2))
        assert _exact_sqrt(F(4, 3)) == QuadraticField(F(0), F(2, 3), F(3))  # sqrt(12)/3
        assert _exact_sqrt(F(9973**2 * 3, 20)) == QuadraticField(F(0), F(9973, 10), F(15))

    @settings(max_examples=300, deadline=None)
    @example(0, 1)
    @example(9973 * 9973 * 2, 7)
    @given(
        st.integers(0, 10**12) | st.integers(0, 10**6).map(lambda x: x * x)
        | st.builds(lambda p, k: p * p * k, st.sampled_from((9941, 9967, 9973, 10007)),
                    st.integers(1, 10**4)),
        st.integers(1, 10**6) | st.integers(1, 10**3).map(lambda x: x * x),
    )
    def test_exact_sqrt_reads_the_square_part_once(self, num, den):
        # q = n/d: a Fraction exactly when n*d is a square, else a value of
        # Q(sqrt(core)) with the oracle's core, that of spells as the four
        # parts of sqrt(q) give it
        q = F(num, den)
        n, d = q.numerator, q.denominator
        root = _exact_sqrt(q)
        assert (type(root) is F) == (math.isqrt(n * d) ** 2 == n * d)
        assert root * root == q
        if type(root) is not F:
            assert root.a == 0 and root.s == extract_square_every_divisor(n * d)[1]
            assert root == surd_from_parts(0, 1, q, 1)

    @pytest.mark.parametrize(
        "lo, hi", [(F(1, 3), F(1, 2)), (F(-7, 5), F(-4, 3)), (F(-1, 2), F(2)), (F(5, 7), F(5, 7))],
        ids=str,
    )
    def test_simplest_between_takes_its_bounds_in_either_order(self, lo, hi):
        value = simplest_between(lo, hi)
        assert lo <= value <= hi
        assert simplest_between(hi, lo) == value


class TestLagrange:
    def test_line(self):
        assert lagrange_interpolate([(0, 1), (1, 2)]).coeffs == (F(1), F(1))

    def test_parabola(self):
        assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)]).coeffs == (F(0), F(0), F(1))

    def test_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(1, 1), (1, 2)])

    def test_reproduces_points_exactly(self):
        rng = random.Random(5)
        pts = [
            (F(i), F(rng.randint(-50, 50), rng.randint(1, 9)))
            for i in range(-3, 4)
        ]
        p = lagrange_interpolate(pts)
        assert all(p(x) == y for x, y in pts)

    def test_quartic_coefficient_recovery(self):
        # Sample the map p -> 1 + 16 a^2 - 16 a^4 - p^2 at a = 1/3; the
        # interpolated polynomial must be 209/81 - p^2.
        a = F(1, 3)

        def fn(p):
            return 1 + 16 * a**2 - 16 * a**4 - p * p

        pts = [(F(i), fn(F(i))) for i in range(-2, 2)]
        p = lagrange_interpolate(pts)
        assert p.coeffs == (F(209, 81), F(0), F(-1))


class TestNewtonForward:
    @staticmethod
    def leading_differences(values):
        out, row = [], list(values)
        while row:
            out.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        x0=st.integers(-12, 12),
        values=st.lists(st.integers(-10**30, 10**30), max_size=14),
        den=st.integers(1, 10**9),
    )
    def test_equals_lagrange_at_consecutive_integers(self, x0, values, den):
        deltas = self.leading_differences(values)
        points = [(x0 + i, F(v, den)) for i, v in enumerate(values)]
        expected = lagrange_interpolate(points) if points else UniPoly.zero()
        assert newton_forward(x0, deltas, den) == expected
        assert forward_differences(values) == deltas
        # The same table over any common denominator, the least one of the
        # reduced fractions among them.
        reduced, lcd = _integer_form([F(v, den) for v in values], len(values) - 1)
        assert den % lcd == 0
        assert newton_forward(x0, forward_differences(reduced), lcd) == expected
        assert newton_forward(x0, forward_differences([3 * v for v in values]), 3 * den) == expected

    def test_drops_vanishing_top_differences(self):
        # 3p^2 - p + 5 at p = -4..2, over 7: Delta^3 and above are zero
        values = [3 * p * p - p + 5 for p in range(-4, 3)]
        deltas = self.leading_differences(values)
        assert deltas[3:] == [0] * 4
        assert newton_forward(-4, deltas, 7).coeffs == (F(5, 7), F(-1, 7), F(3, 7))


class TestRootIsolation:
    def test_rational_roots(self):
        p = poly(-1, 1) * poly(2, 1)  # roots 1, -2
        roots = isolate_real_roots(p)
        assert [r.value for r in roots] == [F(-2), F(1)]
        assert all(type(r) is RationalRoot for r in roots)

    def test_no_real_roots(self):
        assert isolate_real_roots(poly(1, 0, 1)) == []

    def test_quadratic_surds(self):
        # q^2 - 5q + 2 has roots (5 -/+ sqrt(17))/2: two intervals, and the
        # oracle's closed form gives the two surds they hold
        roots = isolate_real_roots(poly(2, -5, 1))
        assert [type(r) for r in roots] == [IntervalRoot] * 2
        assert surd_intervals(roots, F(5, 2), F(17, 4)) == tuple(roots)
        low, high = isolate_real_roots_by_divisor_search(poly(2, -5, 1))
        assert spelled(low) == (F(5), -1, F(17), F(2))
        assert spelled(high) == (F(5), 1, F(17), F(2))
        for r in (low, high):
            assert poly(2, -5, 1)(r) == 0

    def test_surd_canonicalization(self):
        # the roots -/+ sqrt(209)/9 of x^2 - 209/81
        roots = [sign * _exact_sqrt(F(209, 81)) for sign in (-1, 1)]
        assert [(r.add, r.radicand, r.div) for r in roots] == [
            (F(0), F(209), F(9)),
            (F(0), F(209), F(9)),
        ]
        isolated = isolate_real_roots(poly(F(-209, 81), 0, 1))
        assert surd_intervals(isolated, 0, F(209, 81)) == tuple(isolated)

    # Square-free degrees 0 to 2 take the one route of every degree.

    def test_a_nonzero_constant_has_no_root(self):
        assert isolate_real_roots(poly(F(-7, 3))) == []

    def test_linear_root_with_a_30_digit_denominator(self):
        root = F(-10**31 - 9, 10**29 + 3)
        assert len(str(root.denominator)) == 30
        assert isolate_real_roots(poly(-root * 7, 7)) == [RationalRoot(root)]

    def test_square_discriminant_with_20_digit_coefficients(self):
        # (a*x - b)(c*x - d) with 10-digit a, b, c, d: two exact rationals
        a, b, c, d = 9876543211, -5234567891, 8765432109, 3456789013
        p = poly(-b, a) * poly(-d, c)
        assert [len(str(abs(x))) for x in p.coeffs] == [20] * 3
        assert isolate_real_roots(p) == [RationalRoot(F(b, a)), RationalRoot(F(d, c))]

    def test_irrational_pair_is_two_intervals(self):
        roots = isolate_real_roots(poly(-2, 0, 1))
        assert [type(r) for r in roots] == [IntervalRoot] * 2
        assert surd_intervals(roots, 0, 2) == tuple(roots)  # -sqrt(2) < sqrt(2)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(UniPoly.zero())

    def test_mixed_kinds_high_degree(self):
        # (x - 1/2)(x^2 - 2)(x^3 - x - 4): -sqrt(2) < 1/2 < sqrt(2) < the
        # cubic's root; from degree 3 up every irrational root is an interval.
        p = poly(F(-1, 2), 1) * poly(-2, 0, 1) * poly(-4, -1, 0, 1)
        roots = isolate_real_roots(p)
        assert [type(r) for r in roots] == [
            IntervalRoot,
            RationalRoot,
            IntervalRoot,
            IntervalRoot,
        ]
        assert roots[1].value == F(1, 2)
        assert surd_intervals(roots, 0, 2) == (roots[0], roots[2])
        interval = roots[3]
        assert interval.high - interval.low <= F(1, 10**12)
        cubic = poly(-4, -1, 0, 1)
        assert cubic(interval.low) * cubic(interval.high) < 0

    HUGE_ROOT = 1922760350154212639070
    # A root near 2e21 makes the Cauchy bound huge, so the small roots
    # separate only after many bisection levels.
    HUGE_ROOT_POLY = (
        poly(F(9, 4), 1) * poly(F(-HUGE_ROOT, 999979), 1) * poly(-HUGE_ROOT, 1)
        * poly(-13, 16, 1) * poly(-2, 0, 0, 1)
    )

    def test_huge_root_beside_small_ones(self):
        big = self.HUGE_ROOT
        start = time.process_time()
        roots = isolate_real_roots(self.HUGE_ROOT_POLY)
        assert time.process_time() - start < 2.0
        low_surd, quarter, high_surd, cube_root, middle, top = roots
        assert [r.value for r in (quarter, middle, top)] == [F(-9, 4), F(big, 999979), F(big)]
        assert surd_intervals(roots, -8, 77) == (low_surd, high_surd)  # -8 -/+ sqrt(77)
        assert isinstance(cube_root, IntervalRoot)
        assert cube_root.high - cube_root.low <= F(1, 10**12)
        assert cube_root.low**3 < 2 < cube_root.high**3

    def test_isolates_once(self, monkeypatch):
        # Dividing out the three rational roots leaves a quotient of degree
        # 5 whose roots are already isolated: no second isolation runs.
        import meanstab.polynomials as polynomials

        calls = []
        isolate = polynomials._isolate_intervals
        monkeypatch.setattr(polynomials, "_isolate_intervals", lambda g: calls.append(g) or isolate(g))
        roots = isolate_real_roots(self.HUGE_ROOT_POLY)
        assert [type(r) for r in roots].count(RationalRoot) == 3
        assert len(calls) == 1

    def test_refines_to_the_rational_width_then_the_irrational_roots(self, monkeypatch):
        # All six intervals are refined to 1/(2*L**2) for the rational pass,
        # and only the three irrational roots' on to 10**-12.
        import meanstab.polynomials as polynomials

        widths = []
        refine = polynomials._refine
        monkeypatch.setattr(
            polynomials, "_refine", lambda g, a, b, width: widths.append(width) or refine(g, a, b, width)
        )
        isolate_real_roots(self.HUGE_ROOT_POLY)
        lead = polynomials._integer_lead(squarefree_part(self.HUGE_ROOT_POLY))
        assert widths == [1 / (2 * lead * lead)] * 6 + [F(1, 10**12)] * 3

    def test_roots_ascend_exactly(self):
        # 1 - sqrt(2)*10**-18 < 1 + 10**-20 < 1 + sqrt(2)*10**-18 < 2**(1/3):
        # the first three have one float value, 1.0.
        p = poly(-1 - F(1, 10**20), 1) * poly(1 - F(2, 10**36), -2, 1) * poly(-2, 0, 0, 1)
        roots = isolate_real_roots(p)
        assert [type(r) for r in roots] == [
            IntervalRoot, RationalRoot, IntervalRoot, IntervalRoot
        ]
        assert roots[1].value == 1 + F(1, 10**20)
        assert surd_intervals(roots, 1, F(2, 10**36)) == (roots[0], roots[2])
        assert len({midpoint(r) for r in roots[:3]}) == 1
        ends = [r.bounds(F(1, 10**40)) for r in roots]
        assert all(high < low for (_, high), (low, _) in zip(ends, ends[1:]))

    def test_large_lead_coefficient(self):
        # 7**1200 * x**3 - 2: recognition refines to about 7**-2400, and its
        # simplest rational has about 4000 continued-fraction terms.
        p = poly(-2, 0, 0, 7**1200)
        (root,) = isolate_real_roots(p)
        assert isinstance(root, IntervalRoot)
        assert 0 < root.high - root.low <= F(1, 10**12)
        assert p(root.low) < 0 < p(root.high)

    @pytest.mark.parametrize("d", [10**6 + 3, 10**7 + 19, 10**9 + 7, 10**12 + 39])
    def test_quadratic_factor_of_large_denominators_is_two_intervals(self, d):
        # x**2 - x/d - 2/(d + 2) = (x - a)**2 - b with a = 1/(2d), b = a**2 +
        # 2/(d + 2): each of its roots a -/+ sqrt(b) is one interval, both
        # below the cube root of 2's.
        roots = isolate_real_roots(poly(F(-2, d + 2), F(-1, d), 1) * poly(-2, 0, 0, 1))
        assert [type(r) for r in roots] == [IntervalRoot] * 3
        a = F(1, 2 * d)
        assert surd_intervals(roots, a, a * a + F(2, d + 2)) == (roots[0], roots[1])
        assert roots[2].low ** 3 < 2 < roots[2].high ** 3

    def test_multiplicities_collapse(self):
        p = poly(-1, 1) * poly(-1, 1) * poly(3, 1)
        roots = isolate_real_roots(p)
        assert [r.value for r in roots] == [F(-3), F(1)]

    def test_root_count_matches_known_factorization(self):
        rng = random.Random(11)
        for _ in range(10):
            vals = sorted(rng.sample(range(-8, 9), 4))
            p = poly(1)
            for v in vals:
                p = p * poly(-v, 1)
            roots = isolate_real_roots(p)
            assert [r.value for r in roots] == [F(v) for v in vals]


def shifted_bounds(root, c, width):
    """The enclosure of root - c from root.bounds(width)."""
    return tuple(b - c for b in root.bounds(width))


#: sqrt(2), the larger root of x^2 - 2, as the solver holds it.
SQRT2 = QuadraticField(F(0), F(1), F(2))


class TestEvalAtRoot:
    """A polynomial at a surd root, evaluated exactly at the root's value
    in Q(sqrt(s)), whose sign the bisection oracle certifies, against the
    enclosures bounds(width) of the interval that isolation gives for the
    same root."""

    def test_surd_exact_even_part(self):
        root = QuadraticField(F(0), F(1), F(17))  # +sqrt(17)
        # an even polynomial evaluates to a rational at +-sqrt(17)
        assert poly(-2, 0, 1)(root) == 15

    def test_surd_sign_certified(self):
        val = poly(-1, 1)(SQRT2)  # sqrt(2) - 1 > 0
        assert isinstance(val, QuadraticField)
        assert sign_of(val) == 1
        low, high = shifted_bounds(isolate_real_roots(poly(-2, 0, 1))[1], 1, F(1, 10**12))
        assert float(low) <= 2**0.5 - 1 <= float(high)

    def test_sign_certified_in_a_later_round(self):
        # c is sqrt(2) rounded down to 25 digits, so x - c is positive and
        # below 10**-25 at sqrt(2): its enclosure over a 10**-12 wide
        # enclosure of sqrt(2) contains 0, a later round, the width squared
        # each round, certifies the sign, and so does the field value's
        # enclosure by bisection.
        interval = isolate_real_roots(poly(-2, 0, 1))[1]
        c = F(math.isqrt(2 * 10**50), 10**25)
        assert c * c < 2 < (c + F(1, 10**25)) ** 2
        lo, hi = shifted_bounds(interval, c, F(1, 10**12))
        assert lo < 0 < hi
        val = poly(-c, 1)(SQRT2)
        assert isinstance(val, QuadraticField) and sign_of(val) == 1
        width = F(1, 10**12)
        while lo <= 0 <= hi:
            width *= width
            lo, hi = shifted_bounds(interval, c, width)
        assert lo > 0 and hi - lo < F(1, 10**20)

    def test_surd_exact_zero(self):
        root = QuadraticField(F(5, 2), F(-1, 2), F(17))  # (5 - sqrt(17))/2
        assert (poly(2, -5, 1) * poly(3, 1))(root) == 0

    def test_bisection_lands_on_the_root(self):
        # The first midpoint of (0, 1) is the root 1/2 itself: bisection
        # returns it exactly.
        half = poly(F(-1, 2), 1)
        assert _refine(half, F(0), F(1), F(1, 10**6)) == (F(1, 2), F(1, 2))


SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
field_parts = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def parts(x):
    """(a, b) of a + b*sqrt(s): a QuadraticField's fields, else (x, 0)."""
    return (x.a, x.b) if isinstance(x, QuadraticField) else (x, 0)


class TestQuadraticField:
    """Q(sqrt(s)) against pairs of Fractions: (a, b) + (c, d) = (a + c,
    b + d), (a, b)(c, d) = (ac + bds, ad + bc), and the quotient through the
    norm c**2 - d**2 s.  A result whose sqrt(s) part cancels is a Fraction.
    The sign of a value, which no production route reads, is read by
    bisection (sign_of) and checked against mpmath and near cancellation."""

    @staticmethod
    def expected(op, x, y, s):
        (a, b), (c, d) = x, y
        if op == "+":
            return a + c, b + d
        if op == "-":
            return a - c, b - d
        if op == "*":
            return a * c + b * d * s, a * d + b * c
        norm = c * c - d * d * s
        return (a * c - b * d * s) / norm, (b * c - a * d) / norm

    @settings(max_examples=300, deadline=None)
    @given(s=st.sampled_from(SQUAREFREE), a=field_parts, b=field_parts.filter(bool),
           c=field_parts, other=st.sampled_from(["field", "cancel", "rational", "int"]),
           op=st.sampled_from("+-*/"), swap=st.booleans(), data=st.data())
    def test_field_laws(self, s, a, b, c, other, op, swap, data):
        x = QuadraticField(a, b, F(s))
        if other == "field":
            y = QuadraticField(c, data.draw(field_parts.filter(bool)), F(s))
        elif other == "cancel":
            # the sqrt(s) parts cancel in a sum or a difference
            y = QuadraticField(c, -b if op == "+" else b, F(s))
        elif other == "rational":
            y = c
        else:
            y = data.draw(st.integers(-9, 9))
        left, right = (y, x) if swap else (x, y)
        if op == "/" and parts(right) == (0, 0):
            return
        got = {"+": lambda: left + right, "-": lambda: left - right,
               "*": lambda: left * right, "/": lambda: left / right}[op]()
        want = self.expected(op, parts(left), parts(right), s)
        assert parts(got) == want
        assert type(got) is (QuadraticField if want[1] else F)
        if other == "cancel" and op in "+-" and not swap:
            assert type(got) is F

    def test_products_that_cancel(self):
        root2 = QuadraticField(F(0), F(1), F(2))
        assert root2 * root2 == 2 and type(root2 * root2) is F
        assert root2 * 0 == 0 and type(root2 * 0) is F
        unit = QuadraticField(F(1), F(1), F(2))  # 1 + sqrt(2), of norm -1
        assert unit * (unit - 2) == 1 and type(1 / unit) is QuadraticField
        assert parts(1 / unit) == (-1, 1)

    @pytest.mark.parametrize("swap", [False, True], ids=["field-first", "float-first"])
    @pytest.mark.parametrize("op", ["+", "*", "/"])
    def test_a_float_operand_raises(self, op, swap):
        # no float enters the exact arithmetic, on either side
        x = QuadraticField(F(1), F(1), F(2))
        left, right = (0.5, x) if swap else (x, 0.5)
        with pytest.raises(TypeError):
            {"+": lambda: left + right, "*": lambda: left * right, "/": lambda: left / right}[op]()

    @settings(max_examples=200, deadline=None)
    @given(s=st.sampled_from(SQUAREFREE), a=field_parts, b=field_parts.filter(bool))
    def test_sign_against_mpmath(self, s, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            value = mpmath.mpf(a.numerator) / a.denominator + (
                mpmath.mpf(b.numerator) / b.denominator) * mpmath.sqrt(s)
        assert sign_of(QuadraticField(a, b, F(s))) == (1 if value > 0 else -1)

    @pytest.mark.parametrize("s", [2, 3, 7, 13])
    def test_sign_near_cancellation(self, s):
        # The convergents p/q of sqrt(s) make q*sqrt(s) - p tiny, about
        # 1/(2pq), and of either sign: that of q**2 s - p**2.  Far past
        # float precision the sign is still exact.
        h0, h1, k0, k1 = 1, math.isqrt(s), 0, 1
        a0, m, d, a = math.isqrt(s), 0, 1, math.isqrt(s)
        signs = set()
        for _ in range(120):
            m = d * a - m
            d = (s - m * m) // d
            a = (a0 + m) // d
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            value = QuadraticField(F(-h1), F(k1), F(s))
            expected = 1 if k1 * k1 * s > h1 * h1 else -1
            assert sign_of(value) == expected and sign_of(-value) == -expected
            signs.add(expected)
        assert signs == {-1, 1} and h1 > 10**30

    @pytest.mark.parametrize("quadratic", [(-2, 0, 1), (2, -5, 1), (-1, -1, 1), (F(-209, 81), 0, 1)])
    def test_surd_root_value(self, quadratic):
        for value in isolate_real_roots_by_divisor_search(poly(*quadratic)):
            assert isinstance(value, QuadraticField) and value.s == value.radicand
            assert sign_of(value) == (1 if float(value) > 0 else -1)
            assert poly(*quadratic)(value) == 0
            assert type(poly(*quadratic)(value)) is F


class TestBounds:
    """bounds(width) of every root isolation returns encloses the root and
    is at most the width wide; a rational root gives (v, v)."""

    @staticmethod
    def true_values(mp):
        """The roots of x^2 - 8, x^2 - x - 1, 3x + 1 and x^3 - 2, ascending."""
        five = mp.sqrt(5)
        return [-mp.sqrt(8), (1 - five) / 2, mp.mpf(-1) / 3, mp.cbrt(2), (1 + five) / 2, mp.sqrt(8)]

    @pytest.mark.parametrize("width", [F(1, 10**3), F(1, 10**12), F(1, 10**40)], ids=str)
    @pytest.mark.parametrize("alone", [False, True], ids=["isolated", "quadratics-alone"])
    def test_each_kind_encloses_its_root(self, width, alone):
        # x^2 - 8 and x^2 - x - 1 isolated alone, and beside x^3 - 2 and the
        # rational -1/3: every irrational root is an interval.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(100):
            true_values = self.true_values(mpmath)
            if alone:
                roots = isolate_real_roots(poly(-8, 0, 1)) + isolate_real_roots(poly(-1, -1, 1))
                true_values = [true_values[i] for i in (0, 5, 1, 4)]
                assert [type(r) for r in roots] == [IntervalRoot] * 4
            else:
                p = poly(-2, 0, 0, 1) * poly(-8, 0, 1) * poly(-1, -1, 1) * poly(1, 3)
                roots = isolate_real_roots(p)
                assert [type(r) for r in roots] == [IntervalRoot] * 2 + [
                    RationalRoot] + [IntervalRoot] * 3
            for root, true in zip(roots, true_values, strict=True):
                lo, hi = root.bounds(width)
                assert lo <= hi and hi - lo <= width, root
                assert mpmath.mpf(lo.numerator) / lo.denominator <= true, root
                assert true <= mpmath.mpf(hi.numerator) / hi.denominator, root

    def test_rational_root_is_its_own_enclosure(self):
        assert RationalRoot(F(-7, 3)).bounds(F(1, 10)) == (F(-7, 3), F(-7, 3))


class TestAffineImage:
    LOCUS = AffineLocus(F(5, 2), F(-1, 2))

    def test_rational(self):
        assert self.LOCUS.q_of(F(3)) == 1

    def test_surd(self):
        root = QuadraticField(F(0), F(-1), F(17))  # -sqrt(17)
        image = self.LOCUS.q_of(root)  # 5/2 + sqrt(17)/2
        assert isinstance(image, QuadraticField)
        assert spelled(image) == (F(5), 1, F(17), F(2))


def test_simplest_between():
    assert simplest_between(F(31, 100), F(36, 100)) == F(1, 3)
    assert simplest_between(F(-1, 2), F(1, 5)) == 0
    assert simplest_between(F(7, 3), F(8, 3)) == F(5, 2)


def test_simplest_between_consecutive_fibonacci_ratios():
    # Consecutive convergents of the golden ratio: nothing strictly between
    # them has a denominator below the sum of theirs, and the expansion has
    # about 3000 terms, past the recursion limit of one call per term.
    fib = [0, 1]
    while len(fib) < 3003:
        fib.append(fib[-1] + fib[-2])
    lo, hi = F(fib[3001], fib[3000]), F(fib[3002], fib[3001])
    assert simplest_between(lo, hi) == lo
    assert simplest_between(hi, lo) == lo


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
    st.fractions(min_value=0, max_value=1, max_denominator=10**12),
)
def test_simplest_between_matches_the_recursion(lo, gap):
    assert simplest_between(lo, lo + gap) == simplest_between_by_recursion(lo, lo + gap)


def test_clustered_rational_roots_separate():
    # two rational roots 1e-6 apart, denominators within the divisor search
    r1, r2 = F(1, 3), F(1, 3) + F(1, 999983)
    p = poly(1) * poly(-r1, 1) * poly(-r2, 1) * poly(-3, 0, 1)
    roots = isolate_real_roots(p)
    values = [r.value for r in roots if isinstance(r, RationalRoot)]
    assert values == [r1, r2]
    assert len(roots) == 4
    surd_intervals(roots, 0, 3)  # +-sqrt(3)


# Factors that defeat the divisor search: two primes above the trial-division
# bound leave a cofactor above its square, and the 17 primes up to 59 give
# 2**17 divisors, more than the divisor cap.
BIG_PRIMES = 1000003 * 1000033
PRIMORIAL_59 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))

# Rational roots of size up to about a thousand whose numerator or
# denominator carries one of those factors.
big_rationals = st.builds(
    lambda big, num, den, sign, inverted: sign * (F(den * 10**6, big * num) if inverted
                                                  else F(big * num, den * 10**6)),
    st.sampled_from((BIG_PRIMES, PRIMORIAL_59)),
    st.integers(min_value=1, max_value=999),
    st.sampled_from((1, 7, 999979)),
    st.sampled_from((1, -1)),
    st.booleans(),
)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# a + sign*sqrt(b) for a non-square rational b.
surd_pairs = st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.fractions(min_value=F(1, 5), max_value=200, max_denominator=5).filter(
        lambda b: math.isqrt(b.numerator * b.denominator) ** 2 != b.numerator * b.denominator
    ),
)
# Irreducible cubics over Q and their numbers of real roots.
CUBICS = [((-2, 0, 0, 1), 1), ((-1, -3, 0, 1), 3), ((2, -4, 0, 1), 3), ((-4, -1, 0, 1), 1)]


class TestRootIsolationProperties:
    """Polynomials built from known roots, with coefficients the divisor
    search gives up on: exactly those roots come back, the rationals
    exactly and each irrational root as one interval."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(big_rationals, min_size=1, max_size=2),
        st.lists(small_rationals, max_size=2),
        st.lists(surd_pairs, max_size=1),
        st.lists(st.sampled_from(CUBICS), max_size=1),
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    )
    def test_known_roots_come_back(self, big, small, surds, cubics, scale):
        rationals = sorted(set(big + small))
        p = poly(scale)
        for r in rationals:
            p = p * poly(-r, 1)
        for a, b in surds:
            p = p * poly(a * a - b, -2 * a, 1)
        for coeffs, _ in cubics:
            p = p * poly(*coeffs)
        assert rational_roots_by_divisor_search(squarefree_part(p))[1] is False

        roots = isolate_real_roots(p)
        check_roots_by_sturm(p, roots)
        assert [midpoint(r) for r in roots] == sorted(midpoint(r) for r in roots)
        assert [r.value for r in roots if isinstance(r, RationalRoot)] == rationals
        intervals = [r for r in roots if isinstance(r, IntervalRoot)]
        assert len(intervals) == 2 * len(surds) + sum(count for _, count in cubics)
        held = {r for a, b in surds for r in surd_intervals(roots, a, b)}
        for root in intervals:
            if root in held:
                continue
            cubic = poly(*cubics[0][0])
            assert root.high - root.low <= F(1, 10**12)
            assert cubic(root.low) * cubic(root.high) < 0

    def test_the_sturm_check_rejects_a_wrong_root_list(self):
        # x**3 - 2x = x(x**2 - 2): a missing root, an interval that holds
        # two roots or none, a rational that is no root and a list out of
        # order each fail the check that the right list passes
        p = poly(0, -2, 0, 1)
        roots = isolate_real_roots(p)
        check_roots_by_sturm(p, roots)
        low, zero, high = roots
        for wrong in ([low, zero], [IntervalRoot(F(-2), F(1, 2), p), high],
                      [low, zero, IntervalRoot(F(1, 2), F(1), p), high],
                      [low, RationalRoot(F(1)), high], [zero, low, high]):
            with pytest.raises(AssertionError):
                check_roots_by_sturm(p, wrong)

    def test_large_rational_roots_after_the_divisor_search_gives_up(self):
        # -999983 is far from the other roots; 1/3 + 1/BIG_PRIMES sits next
        # to 1/3 with a denominator above the trial-division bound.
        values = [F(-999983), F(1, 3), F(1, 3) + F(1, BIG_PRIMES), F(PRIMORIAL_59, 10**19)]
        p = poly(-2, 0, 0, 1)
        for v in values:
            p = p * poly(-v, 1)
        assert rational_roots_by_divisor_search(squarefree_part(p))[1] is False
        roots = isolate_real_roots(p)
        assert [r.value for r in roots if isinstance(r, RationalRoot)] == sorted(values)
        assert sum(isinstance(r, IntervalRoot) for r in roots) == 1

    def test_root_at_a_splitting_point(self):
        # The first bisection point of the root bound's interval is 0, a root
        # here; moving the split keeps every interval end a non-root, which
        # bisection needs to find the sign change around BIG_PRIMES/(3*10**12).
        r = F(BIG_PRIMES, 3 * 10**12)
        p = poly(0, 1) * poly(-r, 1) * poly(-2, 0, 0, 1)
        assert rational_roots_by_divisor_search(squarefree_part(p))[1] is False
        roots = isolate_real_roots(p)
        assert [type(r) for r in roots] == [RationalRoot, RationalRoot, IntervalRoot]
        assert [roots[0].value, roots[1].value] == [0, r]

    def test_candidate_count_is_capped(self):
        # Each divisor list is within the cap but their product is not: the
        # search gives up instead of testing billions of candidates.
        tiny = F(100000, 15903974896275558828879)
        p = poly(-tiny, 1) * poly(-4, -1, 0, 1)
        assert rational_roots_by_divisor_search(squarefree_part(p))[1] is False
        roots = isolate_real_roots(p)
        assert [type(r) for r in roots] == [RationalRoot, IntervalRoot]
        assert roots[0].value == tiny


class TestRecognitionAgainstDivisorSearch:
    """Rational roots by interval recognition alone give every root once,
    in ascending order, by the Sturm count, and the same root list as the
    divisor search followed by the oracle's own isolation: the same
    rationals in the same places, an interval where the oracle isolates
    one, and where what is left of the square-free part is an irrational
    quadratic, an interval that holds each surd of the oracle's closed
    form."""

    @settings(max_examples=80, deadline=None)
    @example([], [], [], F(1))  # a constant
    @example([(3, -7)], [], [], F(2, 5))  # a linear factor
    @example([(2, 1), (1, -4)], [], [], F(1))  # a quadratic of two rational roots
    @example([], [(F(1, 3), F(5))], [], F(7, 2))  # an irrational pair
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-20, 20)), max_size=4
        ),
        st.lists(surd_pairs, max_size=1),
        st.lists(st.sampled_from(CUBICS), max_size=1),
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    )
    def test_same_roots_as_the_divisor_search(self, factors, surds, cubics, scale):
        p = poly(scale)
        for a, b in factors:
            p = p * poly(-b, a)
        for a, b in surds:
            p = p * poly(a * a - b, -2 * a, 1)
        for coeffs, _ in cubics:
            p = p * poly(*coeffs)
        roots = isolate_real_roots(p)
        check_roots_by_sturm(p, roots)
        expected = isolate_real_roots_by_divisor_search(p)
        assert len(roots) == len(expected)
        for root, want in zip(roots, expected):
            if isinstance(want, QuadraticField):
                assert holds(root, want)
            elif isinstance(want, IntervalRoot):
                assert isinstance(root, IntervalRoot) and root.low < want.high and want.low < root.high
            else:
                assert root == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        st.fractions(min_value=F(1, 7), max_value=10**6, max_denominator=7).filter(
            lambda b: math.isqrt(b.numerator * b.denominator) ** 2 != b.numerator * b.denominator
        ),
        st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
    )
    def test_conjugate_pair_canonicalizes_like_two_surds(self, add, radicand, div):
        # (add -/+ sqrt(radicand))/div are the roots of these coefficients:
        # the oracle's closed form gives them canonical, in ascending order,
        # and isolation gives one interval that holds each
        coeffs = ((add * add - radicand) / (2 * div), -add, div / 2)
        surds = [add / div + sign / div * _exact_sqrt(radicand)
                 for sign in ((-1, 1) if div > 0 else (1, -1))]
        assert isolate_real_roots_by_divisor_search(poly(*coeffs)) == surds
        roots = isolate_real_roots(poly(*coeffs))
        assert len(roots) == 2 and all(map(holds, roots, surds))


class TestRootSearchAgainstOracles:
    """The divisor search's integer candidate test and the square-factor
    search over 2 and odd d give what Fraction evaluation of every candidate
    and every d up to 10**4 give."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-20, 20)), min_size=1, max_size=4
        ),
        st.lists(st.sampled_from(CUBICS), max_size=1),
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    )
    def test_rational_roots_of_linear_factors(self, factors, cubics, scale):
        p = poly(scale)
        for a, b in factors:
            p = p * poly(-b, a)
        for coeffs, _ in cubics:
            p = p * poly(*coeffs)
        g = squarefree_part(p)
        roots, complete = rational_roots_by_divisor_search(g)
        assert complete
        assert sorted(roots) == sorted({F(b, a) for a, b in factors})
        found = [r.value for r in isolate_real_roots(p) if isinstance(r, RationalRoot)]
        assert found == sorted(roots)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**14))
    def test_extract_square(self, n):
        assert _extract_square(n) == extract_square_every_divisor(n)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**30),
        st.sampled_from((1, 2, 3, 9, 9967, 9973, 10007, 9999991)),
    )
    def test_extract_square_against_odd_trial_division(self, k, factor):
        # Trial division up to 10**4; 10007**2 stays in core.
        for n in (k, k * factor * factor):
            assert _extract_square(n) == extract_square_every_divisor(n)

    @pytest.mark.parametrize("k", [2, 3, 6, 9973, 2 * 9973 + 1, 10**6 + 3])
    def test_extract_square_of_a_large_prime_square(self, k):
        n = 9973 * 9973 * k
        assert _extract_square(n) == extract_square_every_divisor(n)
        f, core = _extract_square(n)
        assert f % 9973 == 0 and f * f * core == n

    @pytest.mark.parametrize("k", [2, 5, 7 * 11, 13 * 17 * 19])
    def test_extract_square_with_composite_square_factors(self, k):
        for square in (6, 9, 15, 45, 210, 9999):
            n = square * square * k
            assert _extract_square(n) == extract_square_every_divisor(n)
            f, core = _extract_square(n)
            assert f % square == 0 and f * f * core == n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2**18 + 2**12),
           st.sampled_from((1, 4, 9, 25, 3 * 3 * 7 * 7, 61 * 61, 509 * 509, 10007 * 10007)))
    def test_extract_square_of_small_radicands(self, k, square):
        # Radicands up to about 2**18, times small squares and one square
        # of a prime past 10**4, which stays in core.
        for n in (k, k * square):
            assert _extract_square(n) == extract_square_every_divisor(n)

    @pytest.mark.parametrize("n", [2**18 - 1, 2**18, 2**18 + 1, 2**17, 2 * 3**10, 61**3, 7**6,
                                   2 * 181**2, 3 * 293**2, 509**2 + 509, 511**2, 262139, 262147])
    def test_extract_square_of_radicands_near_2_to_the_18(self, n):
        # prime powers, squares of primes below 2**9 and primes next to 2**18
        assert _extract_square(n) == extract_square_every_divisor(n)

    @pytest.mark.parametrize("n", [
        9973**2 * 7, 9967**2 * 9973 * 3, (9967 * 9973) ** 2 * 5,
        *(p * p * k for p in (9973, 9967, 9949, 7919, 5003) for k in (1, 2, 3, 2 * 3 * 5 * 7, 9967))])
    def test_extract_square_of_primes_near_10_to_the_4(self, n):
        # The split of the primes that divide n twice ends at the square
        # root of what is left of their product, here one such prime.
        assert _extract_square(n) == extract_square_every_divisor(n)


class TestShortcutsAgainstParentRoutes:
    """The Taylor-shift Descartes count and substitution give what the
    product-sum count and Horner's rule gave."""

    def test_descartes_count_on_random_intervals(self):
        rng = random.Random(41)
        for _ in range(300):
            p = poly(*(F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(rng.randint(2, 9))))
            if p.degree < 1:
                continue
            a = F(rng.randint(-400, 400), rng.randint(1, 40))
            b = a + F(rng.randint(1, 400), rng.randint(1, 40))
            assert _descartes_count(p, a, b) == descartes_count_by_products(p, a, b), (p, a, b)

    def test_isolation_matches_product_count(self, monkeypatch):
        import meanstab.polynomials as polynomials

        p = poly(-2, 0, 0, 1) * poly(-13, 16, 1) * poly(F(9, 4), 1) * poly(-7, 0, 3)
        expected = isolate_real_roots(p)
        monkeypatch.setattr(polynomials, "_descartes_count", descartes_count_by_products)
        assert repr(isolate_real_roots(p)) == repr(expected)

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    SignedInterval,
    descartes_count_by_products,
    eval_at_root,
    extract_square_every_divisor,
    extract_square_odd_divisors,
    interval_eval,
    isolate_real_roots_by_divisor_search,
    lagrange_interpolate,
    minimal_polynomial,
    rational_roots_by_divisor_search,
    rational_roots_by_fraction_evaluation,
    simplest_between_by_recursion,
    sqrt_bounds_by_bisection,
)
from meanstab.polynomials import (
    IntervalRoot,
    QuadraticField,
    QuadraticSurdRoot,
    RationalRoot,
    UniPoly,
    _descartes_count,
    _extract_square,
    _is_square,
    _quadratic_roots,
    _refine,
    affine_image,
    forward_differences,
    isolate_real_roots,
    make_surd,
    newton_forward,
    poly_gcd,
    simplest_between,
    squarefree_part,
)
from meanstab.series import _integer_form


def poly(*coeffs):
    return UniPoly(coeffs)


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


class TestSurdsAndSquares:
    @pytest.mark.parametrize("radicand", [F(0), F(-3), F(-1, 4)], ids=str)
    def test_make_surd_needs_a_positive_radicand(self, radicand):
        with pytest.raises(ValueError, match="must be positive"):
            make_surd(F(1), 1, radicand, F(2))

    @pytest.mark.parametrize("radicand", [F(4), F(9, 25), F(1, 16), F(18, 8)], ids=str)
    def test_make_surd_refuses_a_perfect_square(self, radicand):
        with pytest.raises(ValueError, match="perfect square"):
            make_surd(F(1), -1, radicand, F(3))

    @pytest.mark.parametrize(
        ("coeffs", "small"),
        [((1, -2 * 10**8, 1), 5e-9), ((F(1, 10**12), -2, 1), 5.00000000000125e-13)],
        ids=["x^2-2e8x+1", "x^2-2x+1e-12"],
    )
    def test_approx_of_a_small_root_does_not_cancel(self, coeffs, small):
        low, high = isolate_real_roots(poly(*coeffs))
        assert math.isclose(low.approx(), small, rel_tol=1e-15)
        assert math.isclose(high.approx(), coeffs[0] / small, rel_tol=1e-15)  # the product of the roots

    @settings(max_examples=300, deadline=None)
    @given(
        add=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        sign=st.sampled_from((-1, 1)),
        offset=st.fractions(min_value=F(1, 10**6), max_value=10**12, max_denominator=10**6),
        near=st.booleans(),
        div=st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3).filter(bool),
    )
    def test_approx_is_within_a_few_units_of_the_value(self, add, sign, offset, near, div):
        # near: a radicand just above add**2, where add - sqrt(radicand) cancels
        radicand = add * add + offset if near else offset
        assume(not _is_square(radicand))
        root = make_surd(add, sign, radicand, div)
        low, high = root.bounds(F(1, 10**80))
        assert math.isclose(root.approx(), float(low), rel_tol=2e-15)

    def test_is_square(self):
        assert _is_square(F(9, 4)) and _is_square(F(0))
        assert not _is_square(F(-4)) and not _is_square(F(-9, 4))
        assert not _is_square(F(2)) and not _is_square(F(4, 3))

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
        assert all(r.kind == "exact-rational" for r in roots)

    def test_no_real_roots(self):
        assert isolate_real_roots(poly(1, 0, 1)) == []

    def test_quadratic_surds(self):
        # q^2 - 5q + 2 has roots (5 -/+ sqrt(17))/2
        roots = isolate_real_roots(poly(2, -5, 1))
        assert [r.kind for r in roots] == ["quadratic-surd"] * 2
        low, high = roots
        assert (low.add, low.sign, low.radicand, low.div) == (F(5), -1, F(17), F(2))
        assert (high.add, high.sign, high.radicand, high.div) == (F(5), 1, F(17), F(2))
        for r in roots:
            assert poly(2, -5, 1) % minimal_polynomial(r) == UniPoly.zero()

    def test_surd_canonicalization(self):
        roots = isolate_real_roots(poly(F(-209, 81), 0, 1))
        assert [(r.add, r.radicand, r.div) for r in roots] == [
            (F(0), F(209), F(9)),
            (F(0), F(209), F(9)),
        ]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(UniPoly.zero())

    def test_mixed_kinds_high_degree(self):
        # (x - 1/2)(x^2 - 2)(x^3 - x - 4): one rational, two surds, one cubic root
        p = poly(F(-1, 2), 1) * poly(-2, 0, 1) * poly(-4, -1, 0, 1)
        roots = isolate_real_roots(p)
        kinds = sorted(r.kind for r in roots)
        assert kinds == [
            "exact-rational",
            "isolated-interval",
            "quadratic-surd",
            "quadratic-surd",
        ]
        interval = [r for r in roots if isinstance(r, IntervalRoot)][0]
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
        for surd, sign in ((low_surd, -1), (high_surd, 1)):
            assert (surd.add, surd.sign, surd.radicand, surd.div) == (F(-8), sign, F(77), F(1))
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
        assert [r.kind for r in roots].count("exact-rational") == 3
        assert len(calls) == 1

    def test_pairing_width_ignores_the_rational_roots(self, monkeypatch):
        # All six intervals are refined to 1/(2*L**2) for the rational pass.
        # The roots near 2e21 are rational, so the pairing width
        # 1/(2*(B + 1)*L**2) takes B over the three irrational roots' intervals.
        import meanstab.polynomials as polynomials

        widths = []
        refine = polynomials._refine
        monkeypatch.setattr(
            polynomials, "_refine", lambda g, a, b, width: widths.append(width) or refine(g, a, b, width)
        )
        isolate_real_roots(self.HUGE_ROOT_POLY)
        lead = polynomials._integer_lead(squarefree_part(self.HUGE_ROOT_POLY))
        pairing_width = min(set(widths) - {F(1, 10**12)})
        assert 1 / (2 * pairing_width * lead * lead) - 1 < 100
        assert widths[:6] == [1 / (2 * lead * lead)] * 6

    def test_roots_ascend_exactly(self):
        # 1 - sqrt(2)*10**-18 < 1 + 10**-20 < 1 + sqrt(2)*10**-18 < 2**(1/3):
        # the first three have one float value, 1.0.
        p = poly(-1 - F(1, 10**20), 1) * poly(1 - F(2, 10**36), -2, 1) * poly(-2, 0, 0, 1)
        roots = isolate_real_roots(p)
        assert [r.kind for r in roots] == [
            "quadratic-surd", "exact-rational", "quadratic-surd", "isolated-interval"
        ]
        assert roots[1].value == 1 + F(1, 10**20)
        assert len({r.approx() for r in roots[:3]}) == 1
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
    def test_quadratic_factor_of_large_denominators_pairs(self, d):
        # The trace 1/d and the product -2/(d + 2) of the quadratic factor's
        # roots are read once the pair's intervals are narrower than 1/L**2,
        # L = d*(d + 2); 10**-12 wide intervals miss them from d = 10**7 on.
        roots = isolate_real_roots(poly(F(-2, d + 2), F(-1, d), 1) * poly(-2, 0, 0, 1))
        assert sorted(r.kind for r in roots) == ["isolated-interval"] + ["quadratic-surd"] * 2
        for r in roots:
            if isinstance(r, QuadraticSurdRoot):
                assert minimal_polynomial(r).monic() == poly(F(-2, d + 2), F(-1, d), 1)

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


class TestEvalAtRoot:
    """The oracle's evaluation at a surd, which the band route of
    oracles.candidates_by_bands reads."""

    def test_surd_exact_even_part(self):
        root = isolate_real_roots(poly(-17, 0, 1))[1]  # +sqrt(17)
        # an even polynomial evaluates to a rational at +-sqrt(17)
        assert eval_at_root(poly(-2, 0, 1), root) == 15

    def test_surd_sign_certified(self):
        root = isolate_real_roots(poly(-2, 0, 1))[1]  # sqrt(2) = 1.414...
        val = eval_at_root(poly(-1, 1), root)  # sqrt(2) - 1 > 0
        assert isinstance(val, SignedInterval)
        assert val.sign == 1
        assert float(val.low) <= 2**0.5 - 1 <= float(val.high)

    @pytest.mark.parametrize(
        ("quadratic", "low", "high"),
        [
            # sqrt(2) - 1 and (1 + sqrt(5))/2 - 1 over the surds' first
            # enclosure, bounds(10**-12)
            (poly(-2, 0, 1), F(455432628211, 2**40), F(113858157053, 2**38)),
            (poly(-1, -1, 1), F(679535556991, 2**40), F(1359071113983, 2**41)),
        ],
        ids=["sqrt2", "golden"],
    )
    def test_surd_enclosure_is_pinned(self, quadratic, low, high):
        root = isolate_real_roots(quadratic)[1]
        assert eval_at_root(poly(-1, 1), root) == SignedInterval(low, high)

    def test_sign_certified_in_a_later_round(self):
        # c is sqrt(2) rounded down to 25 digits, so x - c is positive and
        # below 10**-25 at sqrt(2): its enclosure over a 10**-12 wide
        # enclosure of sqrt(2) contains 0, and a later round certifies the
        # sign.
        root = isolate_real_roots(poly(-2, 0, 1))[1]
        c = F(math.isqrt(2 * 10**50), 10**25)
        assert c * c < 2 < (c + F(1, 10**25)) ** 2
        p = poly(-c, 1)
        lo, hi = interval_eval(p, *root.bounds(F(1, 10**12)))
        assert lo < 0 < hi
        val = eval_at_root(p, root)
        assert isinstance(val, SignedInterval) and val.sign == 1
        assert val.high - val.low < F(1, 10**20)

    def test_surd_exact_zero(self):
        root = isolate_real_roots(poly(2, -5, 1))[0]
        assert eval_at_root(poly(2, -5, 1) * poly(3, 1), root) == 0

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
    norm c**2 - d**2 s.  A result whose sqrt(s) part cancels is a Fraction."""

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

    @settings(max_examples=200, deadline=None)
    @given(s=st.sampled_from(SQUAREFREE), a=field_parts, b=field_parts.filter(bool))
    def test_sign_against_mpmath(self, s, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            value = mpmath.mpf(a.numerator) / a.denominator + (
                mpmath.mpf(b.numerator) / b.denominator) * mpmath.sqrt(s)
        assert QuadraticField(a, b, F(s)).sign == (1 if value > 0 else -1)

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
            assert value.sign == expected and (-value).sign == -expected
            signs.add(expected)
        assert signs == {-1, 1} and h1 > 10**30

    @pytest.mark.parametrize("quadratic", [(-2, 0, 1), (2, -5, 1), (-1, -1, 1), (F(-209, 81), 0, 1)])
    def test_surd_root_value(self, quadratic):
        for root in isolate_real_roots(poly(*quadratic)):
            value = root.value
            assert isinstance(value, QuadraticField) and value.s == root.radicand
            assert value.sign == (1 if root.approx() > 0 else -1)
            assert minimal_polynomial(root)(value) == 0
            assert type(poly(*quadratic)(value)) is F


class TestBounds:
    """bounds(width) of every root kind encloses the root and is at most
    the width wide; a rational root gives (v, v)."""

    # x^3 - 2, x^2 - 8 and x^2 - x - 1 beside the rational -1/3: an interval
    # root, surds of div 1/2 and 2 from the pairing, and a rational root.
    TRUE_VALUES = {
        "exact-rational": lambda mp, r: mp.mpf(-1) / 3,
        "isolated-interval": lambda mp, r: mp.cbrt(2),
        "quadratic-surd": lambda mp, r: (r.add + r.sign * mp.sqrt(r.radicand)) / r.div,
    }

    @pytest.mark.parametrize("width", [F(1, 10**3), F(1, 10**12), F(1, 10**40)], ids=str)
    @pytest.mark.parametrize("closed_form", [False, True], ids=["paired", "closed-form"])
    def test_each_kind_encloses_its_root(self, width, closed_form):
        mpmath = pytest.importorskip("mpmath")
        if closed_form:
            roots = isolate_real_roots(poly(-8, 0, 1)) + isolate_real_roots(poly(-1, -1, 1))
        else:
            p = poly(-2, 0, 0, 1) * poly(-8, 0, 1) * poly(-1, -1, 1) * poly(1, 3)
            roots = isolate_real_roots(p)
            assert sorted({r.kind for r in roots}) == sorted(self.TRUE_VALUES)
        assert sorted(r.div for r in roots if isinstance(r, QuadraticSurdRoot)) == [F(1, 2)] * 2 + [F(2)] * 2
        with mpmath.workdps(100):
            for root in roots:
                lo, hi = root.bounds(width)
                assert lo <= hi and hi - lo <= width, root
                true = self.TRUE_VALUES[root.kind](mpmath, root)
                assert mpmath.mpf(lo.numerator) / lo.denominator <= true, root
                assert true <= mpmath.mpf(hi.numerator) / hi.denominator, root

    def test_rational_root_is_its_own_enclosure(self):
        assert RationalRoot(F(-7, 3)).bounds(F(1, 10)) == (F(-7, 3), F(-7, 3))


class TestAffineImage:
    def test_rational(self):
        assert affine_image(RationalRoot(F(3)), F(-1, 2), F(5, 2)).value == 1

    def test_surd(self):
        root = isolate_real_roots(poly(-17, 0, 1))[0]  # -sqrt(17)
        image = affine_image(root, F(-1, 2), F(5, 2))  # 5/2 + sqrt(17)/2
        assert isinstance(image, QuadraticSurdRoot)
        assert (image.add, image.sign, image.radicand, image.div) == (F(5), 1, F(17), F(2))


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
    surd_count = sum(isinstance(r, QuadraticSurdRoot) for r in roots)
    assert surd_count == 2  # +-sqrt(3)


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
    search gives up on: exactly those roots come back, each in its
    strongest form."""

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
        assert roots == isolate_real_roots_by_divisor_search(p)
        assert [r.approx() for r in roots] == sorted(r.approx() for r in roots)
        assert [r.value for r in roots if isinstance(r, RationalRoot)] == rationals
        found_surds = {
            (r.add / r.div, r.sign, r.radicand / (r.div * r.div))
            for r in roots if isinstance(r, QuadraticSurdRoot)
        }
        assert found_surds == {(a, sign, b) for a, b in surds for sign in (-1, 1)}
        intervals = [r for r in roots if isinstance(r, IntervalRoot)]
        assert len(intervals) == sum(count for _, count in cubics)
        for root in intervals:
            cubic = poly(*cubics[0][0])
            assert root.high - root.low <= F(1, 10**12)
            assert cubic(root.low) * cubic(root.high) < 0

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
        assert [r.kind for r in roots] == ["exact-rational", "exact-rational", "isolated-interval"]
        assert [roots[0].value, roots[1].value] == [0, r]

    def test_candidate_count_is_capped(self):
        # Each divisor list is within the cap but their product is not: the
        # search gives up instead of testing billions of candidates.
        tiny = F(100000, 15903974896275558828879)
        p = poly(-tiny, 1) * poly(-4, -1, 0, 1)
        assert rational_roots_by_divisor_search(squarefree_part(p))[1] is False
        roots = isolate_real_roots(p)
        assert [r.kind for r in roots] == ["exact-rational", "isolated-interval"]
        assert roots[0].value == tiny


class TestRecognitionAgainstDivisorSearch:
    """Rational roots by interval recognition alone give the same root list
    as the divisor search followed by the same surd and interval stages:
    the same kinds, values and interval endpoints, in the same order."""

    @settings(max_examples=80, deadline=None)
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
        assert list(map(repr, roots)) == list(map(repr, isolate_real_roots_by_divisor_search(p)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        st.fractions(min_value=F(1, 7), max_value=10**6, max_denominator=7).filter(
            lambda b: math.isqrt(b.numerator * b.denominator) ** 2 != b.numerator * b.denominator
        ),
        st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
    )
    def test_conjugate_pair_canonicalizes_like_two_surds(self, add, radicand, div):
        # (add -/+ sqrt(radicand))/div are the roots of these coefficients
        coeffs = ((add * add - radicand) / (2 * div), -add, div / 2)
        assert _quadratic_roots(*coeffs) == [
            make_surd(add, -1, radicand, div),
            make_surd(add, +1, radicand, div),
        ]


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
        assert (roots, complete) == rational_roots_by_fraction_evaluation(g)
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
        # The parent search: 2 and odd d up to 10**4; 10007**2 stays in core.
        for n in (k, k * factor * factor):
            assert _extract_square(n) == extract_square_odd_divisors(n)

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


class TestShortcutsAgainstParentRoutes:
    """The Taylor-shift Descartes count and substitution and the one-isqrt
    surd bounds give what the product-sum count, Horner's rule and the
    bisection gave."""

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

    @settings(max_examples=400, deadline=None)
    @given(
        radicand=st.one_of(
            st.integers(2, 10**12).map(F),
            st.fractions(min_value=F(1, 10**6), max_value=10**9, max_denominator=10**6),
        ),
        width=st.sampled_from([F(1, 3), F(1), F(5, 2), F(1, 10**9), F(1, 10**18), F(1, 10**24), F(7, 2**40)]),
    )
    def test_sqrt_bounds(self, radicand, width):
        root = QuadraticSurdRoot(F(0), 1, radicand, F(1))
        assert root.sqrt_bounds(width) == sqrt_bounds_by_bisection(radicand, width)

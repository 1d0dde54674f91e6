import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanstab import resultant
from meanstab.catalog import (
    ALIASES,
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR,
    MeanExpansion,
    PowerMean,
    SAlpha,
    expand_mean,
    expand_power_mean,
    expand_quotient_mean,
)
import oracles
from laurent import LaurentScalar
from meanstab.series import _integer_form, _values
from meanstab.solver import first_order_locus
from oracles import (
    composition_sums,
    resultant_by_double_sums,
    resultant_on_fraction_tuples,
    resultant_two_sides,
)
from meanstab.resultant import (
    resultant_case,
    resultant_coeffs,
    resultant_power_means,
)

# Closed forms for the first resultant coefficients, used as oracles.


def a1_closed(k1, m1, n1):
    return (k1 + m1 + n1 - k1 * m1 * n1) / 2


def a2_closed(k, m, n):
    k1, k2, m1, m2, n1, n2 = k[1], k[2], m[1], m[2], n[1], n[2]
    return (
        n2 * (2 - 2 * k1 * m1)
        + k2 * (-1 + m1 * n1) ** 2
        + m2
        + m2 * n1 * (n1 - 2 * k1)
    ) / 4


def a3_closed(k, m, n):
    k1, k2, k3 = k[1], k[2], k[3]
    m1, m2, m3 = m[1], m[2], m[3]
    n1, n2, n3 = n[1], n[2], n[3]
    return (
        -32 * n3 * (k1 * m1 - 1)
        - 8 * k3 * (m1 * n1 - 1) ** 3
        - 8
        * k2
        * (-1 + m1 * n1)
        * (n1 * n1 * m1 - m1 * (4 * n2 + 1) + n1 * (m1 * m1 - 4 * m2 - 1))
        + 8 * m2 * (k1 - n1) * (n1 * n1 - 4 * n2 - 1)
        - 8 * m3 * (k1 * n1 * (3 + n1 * n1) - 3 * n1 * n1 - 1)
    ) / 64


def closed_outer_step(p, middle, inner, order):
    """R(B_p, M, N) by the closed power-mean outer step, from the
    coefficient sequences of M and N."""
    forms = resultant._checked_forms(order, middle=middle, inner=inner)
    return _values(*resultant._resultant(F(p), *forms, order))


def random_coeffs(rng, order, a1_forbidden=()):
    while True:
        coeffs = [F(1)] + [
            F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(order)
        ]
        if coeffs[1] not in a1_forbidden:
            return coeffs


class TestClosedForms:
    def test_fifty_random_triples(self):
        rng = random.Random(41)
        for _ in range(50):
            k = random_coeffs(rng, 3)
            m = random_coeffs(rng, 3)
            n = random_coeffs(rng, 3, a1_forbidden=(F(1), F(-1)))
            r = resultant_coeffs(k, m, n, 3)
            assert r[0] == 1
            assert r[1] == a1_closed(k[1], m[1], n[1])
            assert r[2] == a2_closed(k, m, n)
            assert r[3] == a3_closed(k, m, n)

    def test_pure_first_coefficients(self):
        # (a1^K, a1^M, a1^N) = (1/2, -1/3, 1/5) with no higher terms
        k = [F(1), F(1, 2), F(0), F(0)]
        m = [F(1), F(-1, 3), F(0), F(0)]
        n = [F(1), F(1, 5), F(0), F(0)]
        r = resultant_coeffs(k, m, n, 3)
        assert r[1] == a1_closed(F(1, 2), F(-1, 3), F(1, 5)) == F(1, 5)


class TestPowerMeanSpecialization:
    def test_even_middle_closed_forms(self):
        rng = random.Random(43)
        for _ in range(20):
            p = F(rng.randint(-6, 6), rng.randint(1, 4))
            q = F(rng.randint(-6, 6), rng.randint(1, 4))
            a2m = F(rng.randint(-8, 8), rng.randint(1, 6))
            a4m = F(rng.randint(-8, 8), rng.randint(1, 6))
            middle = MeanExpansion((F(1), F(0), a2m, F(0), a4m))
            r = resultant_power_means(p, q, middle, 4)
            assert r.coefficient(1) == 0
            assert r.coefficient(2) == (2 * a2m + p + 2 * q - 3) / 8
            expected4 = (
                24 * a4m
                + 12 * a2m * (-4 * p * q + p + 2 * q * (q + 1) + 1)
                - 2 * p**3
                + 3 * p**2
                + 2 * p * (7 - 6 * q)
                + 4 * q * (-4 * q**2 + 6 * q + 7)
                - 39
            ) / 384
            assert r.coefficient(4) == expected4

    def test_mixed_middle_closed_forms(self):
        rng = random.Random(47)
        for _ in range(20):
            p = F(rng.randint(-6, 6), rng.randint(1, 4))
            q = F(rng.randint(-6, 6), rng.randint(1, 4))
            coeffs = [F(1)] + [
                F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)
            ]
            middle = MeanExpansion(tuple(coeffs))
            r = resultant_power_means(p, q, middle, 3)
            a1m, a3m = coeffs[1], coeffs[3]
            assert r.coefficient(1) == a1m / 2
            assert r.coefficient(3) == (2 * a3m - (p - 1) * (2 * q - 1) * a1m) / 16

    def test_m1_leading_coefficient(self):
        middle = expand_quotient_mean(M1, 6)
        r = resultant_power_means(F(2), F(3), middle, 6)
        assert r.coefficient(1) == F(1, 2)

    def test_power_mean_fixed_point(self):
        for p in (F(-1), F(0), F(1, 2), F(2)):
            bp = expand_power_mean(p, 10)
            r = resultant_power_means(p, p, bp, 10)
            assert r.coeffs == bp.coeffs


class TestIdentities:
    def test_all_arithmetic_gives_arithmetic(self):
        a = expand_power_mean(F(1), 8).coeffs
        assert resultant_coeffs(a, a, a, 8) == a

    def test_log_mean_sandwiches(self):
        log = expand_mean(SAlpha(F(0)), 12).coeffs
        a, g, h = (expand_power_mean(F(p), 12).coeffs for p in (1, 0, -1))
        assert resultant_coeffs(a, log, g, 12) == log
        assert resultant_coeffs(h, log, a, 12) == log

    def test_even_closure(self):
        rng = random.Random(53)
        for _ in range(10):
            def even(order):
                c = [F(1)] + [F(0)] * order
                for idx in range(2, order + 1, 2):
                    c[idx] = F(rng.randint(-6, 6), rng.randint(1, 5))
                return c

            r = resultant_coeffs(even(8), even(8), even(8), 8)
            assert all(r[n] == 0 for n in range(1, 9, 2))

    def test_head_is_always_one(self):
        rng = random.Random(59)
        for _ in range(10):
            k = random_coeffs(rng, 5)
            m = random_coeffs(rng, 5)
            n = random_coeffs(rng, 5, a1_forbidden=(F(1), F(-1)))
            assert resultant_coeffs(k, m, n, 5)[0] == 1


def _fit_coefficients(triple, powers, t, xs):
    """Recover expansion coefficients of R from direct float evaluation by
    solving the exact Vandermonde system in t**n x**(1-n)."""
    outer, middle, inner = triple
    from meanstab.numeric import eval_resultant

    ys = [F(eval_resultant(outer, middle, inner, x - t, x + t)) - F(x) for x in xs]
    a = [[F(t) ** n * F(x) ** (1 - n) for n in powers] for x in xs]
    n = len(powers)
    # Gaussian elimination over Q
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        ys[col], ys[pivot] = ys[pivot], ys[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                ys[r] = ys[r] - f * ys[col]
    return [ys[i] / a[i][i] for i in range(n)]


class TestNumericCoefficientFit:
    """Engine coefficients must agree with fits of the directly evaluated
    composition at x in {1e3, 1e4, 1e5}.  In double arithmetic the first two
    nonconstant coefficients are extractable to 1e-4 and far beyond; the
    third hits the truncation-bias/round-off floor near a few percent, which
    is the precision asserted for it."""

    def test_mixed_triple(self):
        triple = (PowerMean(F(1)), M1, PowerMean(F(3)))
        exact = MeanExpansion(resultant_coeffs(*(expand_mean(s, 8).coeffs for s in triple), 8))
        xs = [1e3, 1e4, 1e5]
        fitted = _fit_coefficients(triple, [1, 2, 3], 1.0, xs)
        for n, value, tol in zip([1, 2, 3], fitted, (1e-4, 1e-4, 5e-2)):
            target = exact.coefficient(n)
            assert abs(float(value - target)) <= tol * abs(float(target)), n

    def test_even_triple(self):
        triple = (PowerMean(F(2)), SAlpha(F(0)), PowerMean(F(1, 2)))
        exact = MeanExpansion(resultant_coeffs(*(expand_mean(s, 10).coeffs for s in triple), 10))
        # two-node fit pins c2, c4 cleanly
        fitted = _fit_coefficients(triple, [2, 4], 10.0, [1e3, 1e4])
        for n, value, tol in zip([2, 4], fitted, (1e-4, 1e-4)):
            target = exact.coefficient(n)
            assert abs(float(value - target)) <= tol * abs(float(target)), n
        # c6 drowns in round-off for any multi-node fit over these nodes;
        # validate it against direct evaluation as the residual after the
        # certified lower coefficients are removed (still a float-vs-exact
        # check, precision ~1e-3 at t = 20)
        from meanstab.numeric import eval_resultant

        x, t = 1e3, 20.0
        v = eval_resultant(*triple, x - t, x + t) - x
        residual = (
            v
            - float(exact.coefficient(2)) * t**2 / x
            - float(exact.coefficient(4)) * t**4 / x**3
        )
        c6 = residual * x**5 / t**6
        target = float(exact.coefficient(6))
        assert abs(c6 - target) <= 1e-2 * abs(target)


class TestDegenerateCases:
    def test_case_detection(self):
        a = expand_power_mean(F(1), 6)
        m1 = expand_quotient_mean(M1, 6)
        minus = expand_quotient_mean(MAlphaR(F(1), F(1)), 6)  # a1 = -1
        assert resultant_case(a) == 1
        assert resultant_case(m1) == 3
        assert resultant_case(minus) == 2

    def test_case_three_z_two(self):
        # inner a1 = +1 with first nonzero tail coefficient at index 2
        m1 = expand_quotient_mean(M1, 10)
        r = resultant_coeffs(m1.coeffs, m1.coeffs, m1.coeffs, 10)
        assert r[0] == 1 and r[1] == 1 and r[2] == 0

    def test_case_three_z_three(self):
        # M3 has a1 = 1 and a2 = 0, so the shift index is 3
        m3 = expand_quotient_mean(M3, 10)
        r = resultant_coeffs(m3.coeffs, m3.coeffs, m3.coeffs, 10)
        assert r[0] == 1 and r[1] == 1

    def test_closed_forms_remain_valid_at_degenerate_inner(self):
        # The printed coefficient polynomials extend continuously to
        # a1^N = +-1; the degenerate algorithm must agree with them.
        rng = random.Random(61)
        for n1 in (F(1), F(-1)):
            for _ in range(10):
                k = random_coeffs(rng, 3)
                m = random_coeffs(rng, 3)
                n = [F(1), n1] + [
                    F(rng.randint(1, 8), rng.randint(1, 6)),
                    F(rng.randint(-8, 8), rng.randint(1, 6)),
                ]
                r = resultant_coeffs(k, m, n, 3)
                assert r[1] == a1_closed(k[1], m[1], n[1])
                assert r[2] == a2_closed(k, m, n)
                assert r[3] == a3_closed(k, m, n)

    def test_projection_inner(self):
        # N = second projection: N(x-t, x+t) = x + t exactly.
        proj = [F(1), F(1), F(0), F(0), F(0), F(0)]
        k = [F(1), F(0), F(1, 2), F(0), F(-1, 8), F(0)]
        m = [F(1), F(0), F(-1, 3), F(0), F(-4, 45), F(0)]
        r = resultant_coeffs(k, m, proj, 5)
        # R(K, M, proj2)(x-t, x+t) = K(M(x-t, x+t), x+t); spot-check numerically.
        from meanstab.numeric import eval_mean
        from meanstab.catalog import PowerMean, SAlpha

        x, t = 500.0, 1.0
        inner_val = x + t
        direct = eval_mean(
            PowerMean(F(2)), eval_mean(SAlpha(F(0)), x - t, inner_val), inner_val
        )
        series = MeanExpansion(r).partial_sum(x, t)
        assert abs(series - direct) / direct < 1e-10

    def test_zero_tail_is_truncation_independent(self):
        # Inner a1 = +-1 with no nonzero tail coefficient through the order:
        # the result must be the truncation of a deeper resultant whose inner
        # tail is nonzero past the order, whatever those coefficients are.
        rng = random.Random(67)
        for _ in range(120):
            order = rng.randint(1, 5)
            deep = order + rng.randint(1, 3)
            k = random_coeffs(rng, deep)
            m = random_coeffs(rng, deep)
            n = [F(1), rng.choice((F(1), F(-1)))] + [F(0)] * (order - 1) + [
                F(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 6))
                for _ in range(deep - order)
            ]
            shallow = resultant_coeffs(k, m, n[: order + 1], order)
            assert shallow == resultant_coeffs(k, m, n, deep)[: order + 1]

    def test_order_mismatch_error(self):
        a = expand_power_mean(F(1), 4)
        with pytest.raises(ValueError, match="order mismatch"):
            resultant_coeffs(a.coeffs, a.coeffs, a.coeffs, 9)


class TestLimitConsistency:
    """The degenerate-case outputs must equal the eps -> 0 limits of the
    generic recursion run at inner a1 = +-1 -/+ eps over exact Laurent
    germs."""

    @pytest.mark.parametrize(
        "inner_spec,target",
        [(M1, F(1)), (MAlphaR(F(1), F(1)), F(-1))],
        ids=["case-III", "case-II"],
    )
    def test_matches_laurent_limit(self, inner_spec, target):
        order = 10
        window = 40
        inner = expand_mean(inner_spec, order)
        middle = expand_mean(M2, order)
        outer = expand_mean(PowerMean(F(1)), order)
        direct = resultant_coeffs(outer.coeffs, middle.coeffs, inner.coeffs, order)

        eps = LaurentScalar.epsilon(window)
        lift = lambda c: LaurentScalar.constant(c, window)
        perturbed = [lift(c) for c in inner.coeffs]
        perturbed[1] = lift(target) - (eps if target > 0 else -eps)
        germ = resultant_coeffs(
            [lift(c) for c in outer.coeffs],
            [lift(c) for c in middle.coeffs],
            perturbed,
            order,
        )
        assert tuple(g.limit() for g in germ) == tuple(direct)

    def test_matches_laurent_limit_self_composition(self):
        order = 8
        window = 40
        m1 = expand_mean(M1, order)
        direct = resultant_coeffs(m1.coeffs, m1.coeffs, m1.coeffs, order)
        eps = LaurentScalar.epsilon(window)
        lift = lambda c: LaurentScalar.constant(c, window)
        perturbed = [lift(c) for c in m1.coeffs]
        perturbed[1] = lift(1) - eps
        germ = resultant_coeffs(
            [lift(c) for c in m1.coeffs], [lift(c) for c in m1.coeffs], perturbed, order
        )
        assert tuple(g.limit() for g in germ) == tuple(direct)


# Sparse coefficients with ints among the Fractions.
coefficients = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.integers(min_value=-3, max_value=3),
)
nonzero = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=7), st.integers(-3, 3)
).filter(lambda c: c != 0)


@st.composite
def means(draw, order):
    return [F(1)] + draw(st.lists(coefficients, min_size=order, max_size=order))


class TestCompositionAgainstDoubleSums:
    """Each composition sum is one composition h * W(u * g / h), with no
    case split at inner t-coefficient -1 or +1; the results equal the double
    sums over power tables on shifted sequences, type for type."""

    @staticmethod
    def check(outer, middle, inner, order):
        out = resultant_coeffs(outer, middle, inner, order)
        reference = resultant_by_double_sums(outer, middle, inner, order)
        assert out == reference
        assert [type(c) for c in out] == [type(c) for c in reference]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=9))
    def test_generic_inner(self, data, order):
        n1 = data.draw(coefficients.filter(lambda c: c not in (1, -1)))
        tail = data.draw(st.lists(coefficients, min_size=order - 1, max_size=order - 1))
        inner = [F(1), n1] + tail
        self.check(data.draw(means(order)), data.draw(means(order)), inner, order)

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=3, max_value=9),
        st.sampled_from((F(1), F(-1), 1, -1)),
        st.sampled_from((2, 3)),
    )
    def test_degenerate_inner_with_shift(self, data, order, n1, z):
        rest = data.draw(st.lists(coefficients, min_size=order - z, max_size=order - z))
        inner = [F(1), n1] + [F(0)] * (z - 2) + [data.draw(nonzero)] + rest
        assert resultant_case(MeanExpansion(tuple(inner))) == (2 if n1 == -1 else 3)
        self.check(data.draw(means(order)), data.draw(means(order)), inner, order)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=9), st.sampled_from((F(1), F(-1))))
    def test_degenerate_inner_with_zero_tail(self, data, order, n1):
        inner = ([F(1), n1] + [F(0)] * order)[: order + 1]
        self.check(data.draw(means(order)), data.draw(means(order)), inner, order)

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=8),
        st.sampled_from((1, 2, 3)),
        st.booleans(),
    )
    def test_single_composition_sum(self, data, order, z, degenerate):
        # A shift by z is z - 1 leading zeros of g; a degenerate side is g = 0.
        weights = [data.draw(coefficients.map(F))] + data.draw(
            st.lists(coefficients, min_size=order, max_size=order + 2)
        )
        g = None if degenerate else data.draw(st.lists(coefficients, max_size=order + 1))
        h = [data.draw(nonzero.map(F))] + data.draw(
            st.lists(coefficients, min_size=order, max_size=order)
        )
        padded = [F(0)] * (order + 1) if g is None else [F(0)] * (z - 1) + g
        reference = composition_sums(weights, g, h, z, order)
        # The integer forms, and the same sequences as forms of their own
        # values over Fraction(1), the form of any scalar but Q.
        forms = [_integer_form(seq, order) for seq in (weights, padded, h)]
        out = _values(*resultant._composition_sums(*forms, order))
        assert list(out) == reference
        assert [type(c) for c in out] == [type(c) for c in reference]
        generic, den = resultant._composition_sums(
            (weights, F(1)), (padded, F(1)), (h, F(1)), order
        )
        assert type(den) is F and den == 1 and list(generic) == reference

    def test_long_catalog_triple(self):
        order = 24
        m2 = expand_quotient_mean(M2, order).coeffs
        m1 = expand_quotient_mean(M1, order).coeffs
        self.check(m2, m2, m2, order)
        self.check(m2, m1, m1, order)


@st.composite
def even_means(draw, order):
    coeffs = [F(1)] + draw(st.lists(coefficients, min_size=order, max_size=order))
    zeros = draw(st.lists(st.sampled_from((F(0), 0)), min_size=order, max_size=order))
    coeffs[1::2] = zeros[: len(coeffs[1::2])]
    return coeffs


class TestParityRoute:
    """Even middle and inner means take one middle composition and reflect
    it for the other side, and an even outer mean runs Horner in the square
    of its ratio; the results equal the double sums, type for type, and at
    the catalog's long orders the three full-length compositions of the
    general route, where the double sums would take 10 to 40 times as
    long, and for all-int input."""

    @staticmethod
    def check(outer, middle, inner, order, oracle=resultant_by_double_sums):
        out = resultant_coeffs(outer, middle, inner, order)
        reference = oracle(outer, middle, inner, order)
        assert out == reference
        assert [type(c) for c in out] == [type(c) for c in reference]

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=24), st.booleans())
    def test_even_middle_and_inner(self, data, order, even_outer):
        outer = data.draw(even_means(order) if even_outer else means(order))
        self.check(outer, data.draw(even_means(order)), data.draw(even_means(order)), order)

    @pytest.mark.parametrize("order", [0, 1, 2, 7])
    def test_all_int_inputs(self, order):
        # The double sums divide ints to floats, so the general route types
        # all-int input.
        even = [1, 0, 2, 0, -1, 0, 3, 0][: order + 1]
        mixed = [1, 1, -2, 3, 0, 1, 2, -1][: order + 1]
        inner = [1, 0, -1, 0, 2, 0, 1, 0][: order + 1]
        for outer in (even, mixed):
            self.check(outer, even, inner, order, resultant_two_sides)

    @pytest.mark.parametrize(
        "names",
        [
            (PowerMean(F(7, 4)), "L", PowerMean(F(-1, 2))),
            ("G", SAlpha(F(3, 7)), "A"),
            (M2, M4, "HZ1/4"),
        ],
        ids=["B7/4-L-B-1/2", "G-S3/7-A", "M2-M4-HZ1/4"],
    )
    def test_catalog_triple_at_order_48(self, names):
        order = 48
        specs = [ALIASES[n] if isinstance(n, str) else n for n in names]
        self.check(*(expand_mean(spec, order).coeffs for spec in specs), order, resultant_two_sides)

    def test_m4_l_m2_at_order_40(self):
        triple = (expand_mean(spec, 40).coeffs for spec in (M4, ALIASES["L"], M2))
        self.check(*triple, 40, resultant_two_sides)

    @pytest.mark.parametrize("order", [1, 3, 9])
    @pytest.mark.parametrize("even_outer", [True, False])
    def test_almost_even_takes_the_general_route(self, order, even_outer):
        # The only odd coefficient sits at the order, the last index the
        # parity check must read.
        rng = random.Random(71 + order)
        even = [F(1)] + [
            F(rng.randint(-6, 6), rng.randint(1, 5)) if n % 2 == 0 else F(0)
            for n in range(1, order + 1)
        ]
        almost = even[:order] + [F(3, 5)]
        outer = even if even_outer else almost
        for middle, inner in ((even, almost), (almost, even)):
            out = resultant_coeffs(outer, middle, inner, order)
            assert out == resultant_by_double_sums(outer, middle, inner, order)
            assert out[order] != 0


class TestEvenInnerRoute:
    """An even inner mean gives both sides from one ratio rho = u * g / h,
    as A(u) = [h * M(-rho)](-u), for a mixed middle mean too: Horner runs
    over the even and odd parts of M in rho**2.  The results equal the two
    full-length middle compositions of the general route, type for type."""

    @pytest.mark.parametrize("order", [33, 40])
    @pytest.mark.parametrize(
        "names",
        [
            ("T", M5, "L"),
            ("HZ1/4", M1, "G"),
            ("H", MAlphaR(F(1, 2), F(2)), M4),
            ("P", MAlphaR(F(-2, 3), F(5, 4)), "HZ1/4"),
        ],
        ids=["T-M5-L", "HZ1/4-M1-G", "H-M1/2,2-M4", "P-M-2/3,5/4-HZ1/4"],
    )
    def test_catalog_triple(self, names, order):
        specs = [ALIASES[n] if isinstance(n, str) else n for n in names]
        outer, middle, inner = (expand_mean(spec, order).coeffs for spec in specs)
        assert any(middle[1::2]) and not any(inner[1::2])
        TestParityRoute.check(outer, middle, inner, order, resultant_two_sides)

    @pytest.mark.parametrize("q", [F(0), F(1, 3), F(-1)], ids=str)
    @pytest.mark.parametrize("p", [F(0), F(1), F(-2), F(3, 2)], ids=str)
    def test_power_means_with_a_mixed_middle(self, p, q):
        # B_q is even and M5 mixed: both power outer steps get an A side.
        order = 24
        m5, b_q = expand_mean(M5, order), expand_power_mean(q, order)
        out = resultant_power_means(p, q, m5, order)
        assert out.coeffs == closed_outer_step(p, m5.coeffs, b_q.coeffs, order)
        outer = expand_power_mean(p, order).coeffs
        assert out.coeffs == resultant_two_sides(outer, m5.coeffs, b_q.coeffs, order)

    @staticmethod
    def counted_sides(monkeypatch, middle, inner, order):
        """_sides on the integer forms, with the exponents handed to
        _power_form and the valuations of the Horner arguments."""
        powers, valuations = [], []
        power_form, horner_form = resultant._power_form, resultant._horner_form

        def counted_power(a, r, order):
            powers.append(r)
            return power_form(a, r, order)

        def counted_horner(outer, inner, order):
            valuations.append(next(i for i, c in enumerate(inner[0]) if c != 0))
            return horner_form(outer, inner, order)

        monkeypatch.setattr(resultant, "_power_form", counted_power)
        monkeypatch.setattr(resultant, "_horner_form", counted_horner)
        forms = [_integer_form(seq, order) for seq in (middle, inner)]
        return resultant._sides(*forms, order), powers, valuations

    @pytest.mark.parametrize("order", [2, 3, 12])
    def test_one_ratio_for_a_mixed_middle(self, monkeypatch, order):
        middle = expand_mean(M5, order).coeffs
        inner = expand_mean(ALIASES["L"], order).coeffs
        (b_side, a_side), powers, valuations = self.counted_sides(
            monkeypatch, middle, inner, order
        )
        assert powers == [-1] and valuations == [2, 2]
        # Each side against its own double sum.
        one, tail = inner[0], list(inner[2:])
        g, h = [one + inner[1]] + tail, [one + one, inner[1] - one] + tail
        gt, ht = [one - inner[1]] + [-c for c in tail], [one + one, inner[1] + one] + tail
        assert list(_values(*b_side)) == composition_sums(middle, g, h, 1, order)
        assert list(_values(*a_side)) == composition_sums(middle, gt, ht, 1, order)

    def test_even_middle_still_reflects(self, monkeypatch):
        order = 12
        middle = expand_mean(M4, order).coeffs
        inner = expand_mean(ALIASES["G"], order).coeffs
        (b_side, a_side), powers, valuations = self.counted_sides(
            monkeypatch, middle, inner, order
        )
        assert a_side is None and powers == [-1] and valuations == [2]


class TestIntegerFormBody:
    """resultant_coeffs converts rational inputs once and runs on integer
    numerators; it equals the double sums, type for type.  Any other
    scalar still takes the generic forms: every product of a Fraction
    subclass is its own, counted against the oracle on tuples of Fractions
    through the public series functions, which composes a mixed middle mean
    twice."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=24),
        st.sampled_from(("mixed", "even", "degenerate")),
        st.booleans(),
        st.booleans(),
    )
    def test_random_rational_triples(self, data, order, inner_kind, even_middle, even_outer):
        outer = data.draw(even_means(order) if even_outer else means(order))
        middle = data.draw(even_means(order) if even_middle else means(order))
        inner = data.draw(even_means(order) if inner_kind == "even" else means(order))
        if inner_kind == "degenerate" and order >= 1:
            inner[1] = data.draw(st.sampled_from((F(1), F(-1), 1, -1)))
        out = resultant_coeffs(outer, middle, inner, order)
        reference = resultant_by_double_sums(outer, middle, inner, order)
        assert type(out) is tuple
        assert out == reference
        assert [type(c) for c in out] == [type(c) for c in reference]
        # The body hands on the least common denominator form.
        forms = [_integer_form(seq, order) for seq in (outer, middle, inner)]
        assert resultant._resultant(*forms, order) == _integer_form(reference, order)

    @pytest.mark.parametrize("kind", ["mixed", "even", "degenerate", "even-inner"])
    def test_fraction_subclass_sees_every_generic_product(self, kind):
        products = []

        class Counted(F):
            def __mul__(self, other):
                products.append(other)
                return super().__mul__(other)

        order = 8
        rng = random.Random(97)
        triple = [random_coeffs(rng, order) for _ in range(3)]
        if kind == "even":
            for seq in triple:
                seq[1::2] = [F(0)] * len(seq[1::2])
        if kind == "even-inner":
            triple[2][1::2] = [F(0)] * len(triple[2][1::2])
        if kind == "degenerate":
            triple[2][1] = F(-1)
        counted = [[Counted(c) for c in seq] for seq in triple]
        out = resultant_coeffs(*counted, order)
        seen = len(products)
        reference = resultant_on_fraction_tuples(*counted, order)
        if kind == "even":
            # The even middle weights run Horner in the square of the ratio:
            # 4 steps that scale a weight instead of 8, and the top weight's
            # first product through t**2 instead of t: 3 products fewer.
            # The even outer weights run the same way at full length, where
            # the oracle's outer step runs in w = t**2 at half the order: the
            # same 4 steps, and the top weight's first product through t**2
            # instead of through w: 1 product more.
            assert (seen, len(products) - seen) == (98, 100)
        elif kind == "even-inner":
            # The mixed middle weights run one inverse and one ratio where
            # the oracle runs two, and Horner over their even and odd parts
            # in the square of the ratio where it runs two full-length
            # passes: 34 products fewer.
            assert (seen, len(products) - seen) == (136, 170)
        else:
            assert seen > 0 and seen == len(products) - seen
        assert out == reference
        assert [type(c) for c in out] == [type(c) for c in reference]


    def test_common_brings_forms_over_one_denominator(self):
        forms = ([1, 2], 3), ([5], 4), ([-7, 0, 1], 6)
        assert resultant._common(*forms) == ([4, 8], [15], [-14, 0, 2], 12)
        # Forms that share a denominator come back as they are; so do the
        # forms of another field, over Fraction(1), which math.lcm refuses.
        over_five = ([1, 2], 5), ([3], 5), ([4, 4], 5)
        over_one = ([F(1, 2)], F(1)), ([F(3, 7), F(2)], F(1)), ([F(-5)], F(1))
        for shared in (over_five, over_one):
            out = resultant._common(*shared)
            assert out[-1] == shared[0][1] and type(out[-1]) is type(shared[0][1])
            assert all(got is nums for got, (nums, _) in zip(out, shared))


class TestEvenWeights:
    """Even weights W(x) = W~(x**2) run Horner's rule over W~ in the square
    of the ratio u * g / h; the composition sum equals the double sum over
    power tables, over Q, a Fraction subclass and Laurent germs, degenerate
    inner means included."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=16),
        st.sampled_from((1, 2, 3)),
        st.booleans(),
    )
    def test_over_q(self, data, order, z, degenerate):
        # A shift by z is z - 1 leading zeros of g; a degenerate side is g = 0.
        weights = data.draw(even_means(order + data.draw(st.integers(0, 2))))
        tail = data.draw(st.lists(coefficients, max_size=order + 1))
        g = [] if degenerate else [F(0)] * (z - 1) + tail
        h = [data.draw(nonzero.map(F))] + data.draw(
            st.lists(coefficients, min_size=order, max_size=order)
        )
        forms = [_integer_form(seq, order) for seq in (weights, g, h)]
        out = resultant._composition_sums(*forms, order)
        reference = composition_sums(weights, None if degenerate else g, h, 1, order)
        assert out == _integer_form(reference, order)

    def test_over_a_fraction_subclass(self):
        class Sub(F):
            pass

        rng = random.Random(13)
        order = 10
        for _ in range(20):
            weights, g, h = (random_coeffs(rng, order) for _ in range(3))
            weights[1::2] = [F(0)] * len(weights[1::2])
            subs = [[Sub(c) for c in seq] for seq in (weights, g, h)]
            out, den = resultant._composition_sums(*((seq, F(1)) for seq in subs), order)
            assert den == 1 and out == composition_sums(*subs, 1, order)

    @pytest.mark.parametrize("target", [F(1), F(-1)], ids=["n1=+1", "n1=-1"])
    @pytest.mark.parametrize("middle", [M2, ALIASES["L"], ALIASES["G"]], ids=["M2", "L", "G"])
    def test_over_laurent_germs_at_a_degenerate_inner(self, middle, target):
        order, window = 8, 24
        lift = lambda c: LaurentScalar.constant(c, window)
        eps = LaurentScalar.epsilon(window)
        inner = [lift(c) for c in expand_mean(M1, order).coeffs]
        inner[1] = lift(target) - (eps if target > 0 else -eps)  # from inside
        one, n1, tail = inner[0], inner[1], inner[2:]
        # the side whose leading term vanishes at n1 = target
        if target > 0:
            g, h = [one - n1] + [-c for c in tail], [one + one, n1 + one] + tail
        else:
            g, h = [one + n1] + tail, [one + one, n1 - one] + tail
        weights = [lift(c) for c in expand_mean(middle, order).coeffs]
        out, _ = resultant._composition_sums((weights, F(1)), (g, F(1)), (h, F(1)), order)
        reference = composition_sums(weights, g, h, 1, order)
        assert [(c.val, c.coeffs, c.floor) for c in out] == [
            (c.val, c.coeffs, c.floor) for c in reference
        ]

    @pytest.mark.parametrize("inner", [M1, MAlphaR(F(1), F(1))], ids=["n1=+1", "n1=-1"])
    @pytest.mark.parametrize("middle", [M2, ALIASES["L"], ALIASES["G"]], ids=["M2", "L", "G"])
    def test_even_middle_with_a_degenerate_inner(self, middle, inner):
        order = 12
        triple = [expand_mean(spec, order).coeffs for spec in (M4, middle, inner)]
        assert resultant_case(MeanExpansion(triple[2])) in (2, 3)
        assert resultant_coeffs(*triple, order) == resultant_by_double_sums(*triple, order)


class TestMixedScalars:
    """One operand of Laurent germs and two of Fractions: the resultant runs
    in the germs' field and gives the values and windows of the double
    sums on the same triple."""

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["outer", "middle", "inner"])
    def test_one_laurent_operand(self, position):
        order, window = 6, 16
        triple = [list(expand_mean(spec, order).coeffs) for spec in (PowerMean(F(1)), M2, M1)]
        germs = [LaurentScalar.constant(c, window) for c in triple[position]]
        germs[1] = germs[1] - LaurentScalar.epsilon(window)  # the inner M1: case III from below
        triple[position] = germs
        out = resultant_coeffs(*triple, order)
        reference = resultant_by_double_sums(*triple, order)
        assert all(type(c) is LaurentScalar for c in out)
        assert [(c.val, c.coeffs, c.floor) for c in out] == [
            (c.val, c.coeffs, c.floor) for c in reference
        ]


# Power-mean exponents: 0, +-1, integers up to +-12 and fractions of height
# at most 20.
powers = st.one_of(
    st.sampled_from((F(0), F(1), F(-1))),
    st.integers(min_value=-12, max_value=12).map(F),
    st.builds(F, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=20)),
)


@st.composite
def inner_means(draw, order, kind):
    """An even or mixed inner mean, or a degenerate one (t-coefficient +-1)
    whose tail starts at index 2, 3 or 4."""
    if kind == "even":
        return draw(even_means(order))
    inner = draw(means(order))
    if kind == "degenerate" and order >= 1:
        inner[1] = draw(st.sampled_from((F(1), F(-1))))
        z = draw(st.integers(min_value=2, max_value=4))
        inner[2:z] = [F(0)] * len(inner[2:z])
    return inner


class TestClosedPowerOuterStep:
    """A power-mean outer B_p takes the closed step ((X**p + Y**p)/2)**(1/p),
    (X*Y)**(1/2) at p = 0, on the sides X = B/2 and Y = A/2; it equals
    Horner's outer step over the expansion of B_p, value for value and type
    for type, over Q, a Fraction subclass and Laurent germs."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=24),
        powers,
        st.booleans(),
        st.sampled_from(("even", "mixed", "degenerate")),
    )
    def test_against_the_horner_route(self, data, order, p, even_middle, inner_kind):
        middle = data.draw(even_means(order) if even_middle else means(order))
        inner = data.draw(inner_means(order, inner_kind))
        out = closed_outer_step(p, middle, inner, order)
        reference = resultant_coeffs(expand_power_mean(p, order).coeffs, middle, inner, order)
        assert out == reference
        assert [type(c) for c in out] == [type(c) for c in reference]

    @pytest.mark.parametrize("kind", ["mixed", "even", "degenerate"])
    def test_over_a_fraction_subclass(self, kind):
        class Sub(F):
            pass

        rng = random.Random(59)
        for order in (1, 4, 9):
            for p in (F(0), F(1), F(-3), F(2, 5)):
                middle, inner = random_coeffs(rng, order), random_coeffs(rng, order)
                if kind == "even":
                    for seq in (middle, inner):
                        seq[1::2] = [F(0)] * len(seq[1::2])
                if kind == "degenerate" and order >= 1:
                    inner[1] = F(rng.choice((1, -1)))
                forms = [([Sub(c) for c in seq], F(1)) for seq in (middle, inner)]
                outer = ([Sub(c) for c in expand_power_mean(p, order).coeffs], F(1))
                out, den = resultant._resultant(p, *forms, order)
                reference, ref_den = resultant._resultant(outer, *forms, order)
                assert type(den) is F and den == ref_den == 1 and out == reference

    @pytest.mark.parametrize("p", [F(0), F(1), F(-1), F(2), F(1, 3), F(-5, 2)], ids=str)
    @pytest.mark.parametrize("target", [F(1), F(-1)], ids=["n1=+1", "n1=-1"])
    @pytest.mark.parametrize("middle", [M2, M3], ids=["M2", "M3"])
    def test_over_laurent_germs_at_a_degenerate_inner(self, middle, target, p):
        # The inner M1 with t-coefficient target -/+ eps, from inside: the
        # limits of both routes equal the resultant at target itself.
        order, window = 8, 24
        lift = lambda c: LaurentScalar.constant(c, window)
        eps = LaurentScalar.epsilon(window)
        inner = [lift(c) for c in expand_mean(M1, order).coeffs]
        inner[1] = lift(target) - (eps if target > 0 else -eps)
        forms = [([lift(c) for c in expand_mean(middle, order).coeffs], F(1)), (inner, F(1))]
        outer = ([lift(c) for c in expand_power_mean(p, order).coeffs], F(1))
        closed = _values(*resultant._resultant(p, *forms, order))
        horner = _values(*resultant._resultant(outer, *forms, order))
        at_target = list(expand_mean(M1, order).coeffs)
        at_target[1] = target
        direct = resultant_by_double_sums(
            expand_power_mean(p, order).coeffs, expand_mean(middle, order).coeffs, at_target, order
        )
        assert all(type(c) is LaurentScalar for c in closed)
        assert [c.limit() for c in closed] == [c.limit() for c in horner] == list(direct)


# R(B_-13/6, S_3/7, B_q*) at the point of the first-order locus of S_3/7.
Q_STAR = first_order_locus(expand_mean(SAlpha(F(3, 7)), 2)).q_of(F(-13, 6))

CAUCHY_TRIPLES = [
    ((PowerMean(F(2)), ALIASES["G"], PowerMean(F(1, 3))), F(2, 5)),
    ((PowerMean(F(-3, 2)), ALIASES["L"], PowerMean(F(5, 4))), F(2, 5)),
    ((ALIASES["G"], M1, ALIASES["HZ1/4"]), F(2, 5)),
    # M1 is singular at u = (1/e - 1)/(1/e + 1), |u| = 0.46, so a circle of
    # radius 2/5 would alias at (0.4/0.46)**128.
    ((ALIASES["A"], ALIASES["A"], M1), F(1, 5)),
    ((ALIASES["H"], M5, ALIASES["G"]), F(2, 5)),
    ((PowerMean(F(-13, 6)), SAlpha(F(3, 7)), PowerMean(Q_STAR)), F(2, 5)),
]


class TestResultantByCauchyIntegral:
    """Both routes against K(M(1 - u, N), M(N, 1 + u)) from the mpmath closed
    forms on a circle, an oracle that shares no code with either."""

    @pytest.mark.parametrize(
        "triple,radius",
        CAUCHY_TRIPLES,
        ids=["B2-G-B1/3", "B-3/2-L-B5/4", "G-M1-HZ1/4", "A-A-M1", "H-M5-G", "B-13/6-S3/7-Bq*"],
    )
    def test_order_24(self, triple, radius):
        mpmath = pytest.importorskip("mpmath")
        from test_catalog import assert_cauchy_coefficients

        order = 24
        outer, middle, inner = triple
        m, n = expand_mean(middle, order), expand_mean(inner, order)
        closed = MeanExpansion(closed_outer_step(outer.p, m.coeffs, n.coeffs, order))
        horner = MeanExpansion(resultant_coeffs(expand_mean(outer, order).coeffs, m.coeffs, n.coeffs, order))
        assert_cauchy_coefficients(
            mpmath, lambda u: oracles.mpmath_resultant(outer, middle, inner, u), radius, closed, horner
        )

import math
import random
from fractions import Fraction as F

import oracles
import pytest
from oracles import denominator_series
from hypothesis import given, settings
from hypothesis import strategies as st

from meanstab.catalog import (
    _cosh_mean_form,
    _power_mean_form,
    ALIASES,
    ClassicMean,
    LAlpha,
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR,
    MeanExpansion,
    PowerMean,
    MuGenerated,
    SAlpha,
    coincident,
    describe_spec,
    expand_mean,
    expand_power_mean,
    expand_quotient_mean,
    expand_stable,
)
from meanstab.numeric import eval_f, eval_mean
from meanstab.polynomials import UniPoly, forward_differences
from meanstab.series import _integer_form, _values, series_power

# Displayed coefficient formulas used as oracles throughout.


def power_mean_a2(p):
    return (p - 1) / 2


def power_mean_a4(p):
    return (p - 1) * (3 + p - 2 * p * p) / 24


def l_alpha_display(a):
    return {
        2: -F(1, 3) * (2 * a**2 + 1),
        4: F(2, 45) * (a - 1) * (a + 1) * (7 * a**2 + 2),
        6: -F(2, 945) * (a - 1) * (a + 1) * (62 * a**4 - 85 * a**2 - 22),
        8: F(2, 14175) * (a - 1) * (a + 1) * (381 * a**6 - 1169 * a**4 + 889 * a**2 + 214),
    }


def s_alpha_display(a):
    return {
        2: F(1, 3) * (2 * a**2 - 1),
        4: -F(2, 45) * (5 * a**4 - 5 * a**2 + 2),
        6: F(2, 945) * (86 * a**6 - 105 * a**4 + 63 * a**2 - 22),
        8: -F(2, 14175)
        * (214 + 5 * a**2 * (a - 1) * (a + 1) * (135 - 159 * a**2 + 271 * a**4)),
    }


def stable_display(b):
    return {
        4: b * (1 + b) * (1 - 4 * b) / 6,
        6: b * (1 + b) * (6 - 31 * b + 36 * b**2 + 64 * b**3) / 90,
        8: b * (1 + b) * (90 - 531 * b + 937 * b**2 + 568 * b**3 - 3088 * b**4 - 2176 * b**5)
        / 2520,
    }


# a_2 of the stable series: the benchmark's pool, the power means -1..3,
# and heights up to four digits.
STABLE_A2 = [
    F(-1), F(-1, 2), F(-1, 4), F(0), F(1, 2), F(1), F(7),
    F(2, 7), F(-1, 3), F(1, 4), F(-2, 5), F(1, 6), F(-3, 4), F(5, 9), F(-1, 10),
    F(3, 11), F(2, 13), F(-5, 7), F(7, 10),
    F(13, 3), F(-101, 99), F(1, 1000), F(1234, 4567), F(-9876, 5431), F(-7, 3),
]


CLASSIC_TABLES = {
    1: [F(1), F(1), F(-2, 3), F(1, 3), F(-28, 45), F(37, 45), F(-1369, 945)],
    2: [F(1), F(0), F(1, 3), F(0), F(-2, 9), F(0), F(14, 135), F(0), F(-122, 945)],
    3: [F(1), F(1), F(0), F(-1, 3), F(4, 15), F(-13, 45), F(1, 9)],
    4: [F(1), F(0), F(0), F(0), F(-1, 6), F(0), F(8, 315), F(0), F(-367, 4536)],
    5: [F(1), F(1, 2), F(-1, 4), F(-1, 6), F(5, 48), F(-73, 360), F(1033, 10080)],
}


def m_alpha_r_head(a, r):
    # t^1..t^5 closed forms; the series dips below x near the diagonal for
    # positive alpha, hence the leading -alpha.
    return [
        -a,
        (a**2 + 2 * r * a - 1) / 3,
        -r * a * (2 * r + a) / 3,
        -(a * (a + 2 * r) * (a**2 - 18 * r**2 + 2 * a * r - 5) + 4) / 45,
        -(a * r * (a + 2 * r) * (3 * (2 * r - a) * (a + 4 * r) + 10)) / 45,
    ]


def assert_cauchy_coefficients(mpmath, fn, radius, *expansions, points=128):
    """Every coefficient of each expansion equals, to 1e-30, Cauchy's integral
    of fn(u) = M(1 - u, 1 + u) on the circle |u| = radius, taken as the DFT of
    points samples at 50 digits:

        a_n = (1/N) sum_j fn(u_j) e^(-2 pi i j n/N) / r^n,  u_j = r e^(2 pi i j/N),

    up to aliasing of order (r/R)^N, R the radius of convergence, and
    rounding amplified by r^-n."""
    with mpmath.workdps(50):
        r = mpmath.mpf(radius.numerator) / radius.denominator
        values = [fn(r * mpmath.expjpi(mpmath.mpf(2 * j) / points)) for j in range(points)]
        for n in range(len(expansions[0].coeffs)):
            dft = sum(
                v * mpmath.expjpi(mpmath.mpf(-2 * j * n) / points) for j, v in enumerate(values)
            )
            approx = dft / points / r**n
            for expansion in expansions:
                c = expansion.coeffs[n]
                assert abs(approx - mpmath.mpf(c.numerator) / c.denominator) < mpmath.mpf(10) ** -30, n


class TestPowerMean:
    def test_arithmetic_mean_is_exact(self):
        assert expand_power_mean(F(1), 10).coeffs == (F(1),) + (F(0),) * 10

    def test_displayed_values(self):
        e = expand_power_mean(F(2), 6)
        assert e.coefficient(2) == F(1, 2)
        assert e.coefficient(4) == F(-1, 8)
        assert expand_power_mean(F(0), 4).coefficient(2) == F(-1, 2)

    def test_closed_forms_at_random_parameters(self):
        rng = random.Random(23)
        for _ in range(10):
            p = F(rng.randint(-12, 12), rng.randint(1, 7))
            e = expand_power_mean(p, 6)
            assert e.coefficient(2) == power_mean_a2(p)
            assert e.coefficient(4) == power_mean_a4(p)
            assert not any(e.coeffs[1::2])

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.one_of(
            st.just(F(0)),
            st.integers(-12, 12).map(F),
            st.fractions(min_value=-12, max_value=12, max_denominator=9),
        ),
        order=st.integers(0, 40),
    )
    def test_half_length_route_matches_full_order_oracle(self, p, order):
        coeffs = expand_power_mean(p, order).coeffs
        assert coeffs == oracles.expand_power_mean_full_order(p, order)
        assert len(coeffs) == order + 1
        assert all(type(c) is F for c in coeffs)
        assert all(c == 0 for c in coeffs[1::2])

    @pytest.mark.parametrize(
        "p", [F(0), F(1), F(-1), F(2), F(-2), F(1, 3), F(-5, 3), F(7, 4), F(-13, 6)], ids=str
    )
    def test_integer_form_matches_the_fraction_route(self, p):
        # The helper hands on the least common denominator form of the
        # coefficients that the full-order binomial series gives, exact
        # through every order below its own.
        full = oracles.expand_power_mean_full_order(p, 40)
        for order in range(41):
            reference = full[: order + 1]
            assert _power_mean_form(p, order) == _integer_form(reference, order)
            coeffs = expand_power_mean(p, order).coeffs
            assert coeffs == reference
            assert [type(c) for c in coeffs] == [type(c) for c in reference]

    @pytest.mark.parametrize("p", [F(0), F(-2), F(1, 3), F(7, 4)], ids=str)
    def test_cauchy_integral_on_a_circle(self, p):
        # the power mean is analytic on |u| < 1, so aliasing is of order 0.4^128
        mpmath = pytest.importorskip("mpmath")

        def power_mean(u):
            if p == 0:
                return mpmath.sqrt((1 - u) * (1 + u))
            e = mpmath.mpf(p.numerator) / p.denominator
            return (((1 - u) ** e + (1 + u) ** e) / 2) ** (1 / e)

        assert_cauchy_coefficients(mpmath, power_mean, F(2, 5), expand_power_mean(p, 24))


class TestLAlpha:
    def test_harmonic_case(self):
        e = expand_mean(LAlpha(F(1)), 10)
        assert e.coeffs == expand_power_mean(F(-1), 10).coeffs
        assert e.coefficient(2) == -1

    def test_geometric_case(self):
        assert expand_mean(LAlpha(F(1, 2)), 12).coeffs == expand_power_mean(F(0), 12).coeffs

    def test_displayed_coefficients(self):
        for a in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
            e = expand_mean(LAlpha(a), 8)
            for n, expected in l_alpha_display(a).items():
                assert e.coefficient(n) == expected, (a, n)
            assert not any(e.coeffs[1::2])

    def test_specific_values(self):
        e = expand_mean(LAlpha(F(1, 3)), 8)
        assert e.coefficient(2) == F(-11, 27)
        assert e.coefficient(4) == F(-80, 729)

    def test_even_in_alpha(self):
        assert expand_mean(LAlpha(F(-2, 3)), 8).coeffs == expand_mean(LAlpha(F(2, 3)), 8).coeffs

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match=r"^LAlpha requires \|alpha\| <= 1$"):
            expand_mean(LAlpha(F(3, 2)), 4)


class TestSAlpha:
    def test_displayed_coefficients(self):
        for a in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
            e = expand_mean(SAlpha(a), 8)
            for n, expected in s_alpha_display(a).items():
                assert e.coefficient(n) == expected, (a, n)

    def test_seiffert_values(self):
        assert expand_mean(SAlpha(F(1, 2)), 4).coefficient(2) == F(-1, 6)
        assert expand_mean(SAlpha(F(1)), 4).coefficient(2) == F(1, 3)

    def test_logarithmic_mean(self):
        e = expand_mean(SAlpha(F(0)), 8)
        assert e.coefficient(2) == F(-1, 3)
        assert e.coefficient(4) == F(-4, 45)
        assert e.coefficient(6) == F(-44, 945)
        assert expand_mean(LAlpha(F(0)), 8).coeffs == e.coeffs

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match=r"^SAlpha requires \|alpha\| <= 1$"):
            expand_mean(SAlpha(F(-9, 8)), 4)


def euler_numbers(n):
    """E_0, E_2, .., E_2n of sech x = sum E_2k x**(2k)/(2k)!."""
    e = [1]
    for m in range(1, n + 1):
        e.append(-sum(math.comb(2 * m, 2 * j) * e[j] for j in range(m)))
    return e


class TestCoshFormInBeta:
    """The one catalog entry for L_alpha and S_alpha takes beta = alpha**2 at
    any rational beta, a negative one included, where cosh(alpha*y) is
    cos(sqrt(-beta)*y)."""

    @pytest.mark.parametrize("beta", [F(-3), F(-2, 9), F(0), F(1, 2), F(1), F(2), F(49, 9)])
    @pytest.mark.parametrize("invert", [False, True], ids=["L", "S"])
    def test_equals_the_mu_generated_mean_of_its_denominator(self, invert, beta):
        # D'(y) = cosh(sqrt(beta)*y) = sum beta^k y^(2k)/(2k)!, or sech with
        # the Euler numbers: D is the mu of a mu-generated mean.
        order = 16
        weights = euler_numbers(order // 2) if invert else [1] * (order // 2 + 1)
        mu = tuple(e * beta**k / math.factorial(2 * k + 1) for k, e in enumerate(weights))
        expected = expand_mean(MuGenerated(mu), order).coeffs
        assert _values(*_cosh_mean_form(beta, invert, order)) == expected

    @pytest.mark.parametrize("invert", [False, True], ids=["L", "S"])
    def test_the_u_2k_coefficient_has_degree_k_in_beta(self, invert):
        order = 16
        forms = [_values(*_cosh_mean_form(F(beta), invert, order)) for beta in range(-5, 5)]
        for k in range(order // 2 + 1):
            deltas = forward_differences(_integer_form([f[2 * k] for f in forms], 9)[0])
            assert deltas[k] != 0 and not any(deltas[k + 1 :]), k


class TestMuGenerated:
    def test_identity_generator_gives_logarithmic_mean(self):
        e = expand_mean(MuGenerated((F(1),)), 8)
        assert e.coefficient(2) == F(-1, 3)
        assert e.coeffs == expand_mean(SAlpha(F(0)), 8).coeffs

    def test_reproduces_l_alpha(self):
        a = F(2, 3)
        c = tuple(a ** (2 * n) / math.factorial(2 * n + 1) for n in range(9))
        assert expand_mean(MuGenerated(c), 16).coeffs == expand_mean(LAlpha(a), 16).coeffs

    def test_reproduces_s_alpha(self):
        a = F(3, 4)
        cosh_even = tuple(a ** (2 * i) / math.factorial(2 * i) for i in range(9))
        sech = series_power(cosh_even, -1, 8)
        c = tuple(sech[n] / (2 * n + 1) for n in range(9))
        assert expand_mean(MuGenerated(c), 16).coeffs == expand_mean(SAlpha(a), 16).coeffs

    def test_head_validation(self):
        with pytest.raises(ValueError):
            expand_mean(MuGenerated((F(2),)), 4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                           st.sampled_from((2, 3, F(1, 2), F(5, 7), F(50, 3))),
                           st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5)
                           .map(lambda r: r * r)), max_size=3),
        st.lists(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9), max_size=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16),
        st.integers(min_value=0, max_value=2),
    )
    def test_has_positive_root_iff_some_positive_z_root(self, rhos, sigmas, b, excess, k):
        # mu(y) = y * P(y**2), P(z) = prod (1 - z/rho) * prod (1 + z/sigma)
        # * (1 + b*z + c*z**2)**k with c > b**2/4: P vanishes at z = rho > 0
        # (a surd y = sqrt(rho) unless rho is a rational square) and at no
        # other z >= 0, so mu has a positive root exactly when some rho is
        # given.
        p = UniPoly((1,))
        for rho in rhos:
            p = p * UniPoly((1, -1 / F(rho)))
        for sigma in sigmas:
            p = p * UniPoly((1, 1 / sigma))
        for _ in range(k):
            p = p * UniPoly((1, b, b * b / 4 + excess))
        assert MuGenerated(p.coeffs).has_positive_root is bool(rhos)


class TestClassicMeans:
    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
    def test_displayed_tables(self, index):
        table = CLASSIC_TABLES[index]
        e = expand_quotient_mean(ClassicMean(index), len(table) - 1)
        assert list(e.coeffs) == table

    @pytest.mark.parametrize("index", [0, 6])
    def test_index_outside_one_to_five(self, index):
        with pytest.raises(ValueError, match="1..5"):
            ClassicMean(index)

    @pytest.mark.parametrize("index", [True, False, 2.0, 1.0, F(2), "2"], ids=repr)
    def test_index_must_be_an_int(self, index):
        # a bool or a float is refused, not described as "MTrue" or "M2.0"
        with pytest.raises(ValueError, match="classic mean index must be 1..5"):
            ClassicMean(index)

    def test_an_int_index_is_described_by_its_number(self):
        assert [describe_spec(ClassicMean(i)) for i in range(1, 6)] == [
            "M1", "M2", "M3", "M4", "M5"]

    def test_parity(self):
        assert not any(expand_quotient_mean(M2, 8).coeffs[1::2])
        assert not any(expand_quotient_mean(M4, 8).coeffs[1::2])
        assert any(expand_quotient_mean(M1, 8).coeffs[1::2])
        assert any(expand_quotient_mean(M5, 8).coeffs[1::2])

    def test_m4_head(self):
        e = expand_quotient_mean(M4, 8)
        assert e.coefficient(2) == 0
        assert e.coefficient(4) == F(-1, 6)
        assert e.coefficient(6) == F(8, 315)


class TestMAlphaR:
    @pytest.mark.parametrize(
        "alpha,r", [(F(-1), F(1)), (F(1, 2), F(1)), (F(1, 3), F(2))]
    )
    def test_closed_form_head(self, alpha, r):
        e = expand_quotient_mean(MAlphaR(alpha, r), 6)
        expected = m_alpha_r_head(alpha, r)
        assert [e.coefficient(n) for n in range(1, 6)] == expected

    def test_reduces_to_m1(self):
        e = expand_quotient_mean(MAlphaR(F(-1), F(1)), 10)
        assert e.coeffs == expand_quotient_mean(M1, 10).coeffs

    def test_zero_alpha_is_logarithmic(self):
        e = expand_quotient_mean(MAlphaR(F(0), F(3)), 10)
        assert e.coeffs == expand_mean(SAlpha(F(0)), 10).coeffs

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match=r"^MAlphaR requires r > 0$"):
            MAlphaR(F(1, 2), F(0))
        with pytest.raises(ValueError, match=r"^MAlphaR requires \|alpha\| <= 1$"):
            MAlphaR(F(2), F(1))
        # r is checked first
        with pytest.raises(ValueError, match=r"^MAlphaR requires r > 0$"):
            MAlphaR(F(2), F(-1))


class TestStableSeries:
    @pytest.mark.parametrize(
        "b", [F(-1, 2), F(1, 2), F(0), F(3, 7), F(-2, 5)]
    )
    def test_displayed_coefficients(self, b):
        e = expand_stable(b, 8)
        for n, expected in stable_display(b).items():
            assert e.coefficient(n) == expected

    def test_matches_power_means(self):
        # The fixed point solved order by order is B_p with a_2 = (p - 1)/2.
        for a2 in STABLE_A2:
            fixed = oracles.stable_by_closed_slope(a2, 64).coeffs
            for order in [*range(34), 64]:
                bp = expand_power_mean(2 * a2 + 1, order)
                assert bp.coefficient(2) == (a2 if order >= 2 else 0)
                assert expand_stable(a2, order).coeffs == bp.coeffs == fixed[: order + 1]

    def test_zero_a2_is_arithmetic_mean(self):
        assert expand_stable(F(0), 12).coeffs == (F(1),) + (F(0),) * 12

    @pytest.mark.parametrize(
        "a2", [F(-1, 2), F(3), F(-17, 5), F(0), F(5, 8), F(-7, 3)], ids=str
    )
    def test_closed_form_slope_matches_expand_stable(self, a2):
        # B_p is the unique fixed point: a wrong closed slope at an even
        # order misplaces the coefficient solved there unless it is zero
        for order in range(25):
            expected = oracles.stable_by_closed_slope(a2, order).coeffs
            assert expand_stable(a2, order).coeffs == expected
            assert len(expected) == order + 1


class TestSpecsAndAliases:
    def test_aliases(self):
        assert ALIASES["A"] == PowerMean(F(1))
        assert ALIASES["G"] == PowerMean(F(0))
        assert ALIASES["H"] == PowerMean(F(-1))
        assert ALIASES["L"] == SAlpha(F(0))
        assert ALIASES["P"] == SAlpha(F(1, 2))
        assert ALIASES["T"] == SAlpha(F(1))
        assert ALIASES["HZ1/4"] == LAlpha(F(1, 4))

    def test_alias_expansions_agree_with_their_families(self):
        assert expand_mean(ALIASES["P"], 8).coefficient(2) == F(-1, 6)
        assert expand_mean(ALIASES["T"], 8).coefficient(2) == F(1, 3)
        assert expand_mean(ALIASES["HZ1/4"], 8).coefficient(2) == -F(1, 3) * (
            2 * F(1, 16) + 1
        )

    def test_expansion_head_validation(self):
        with pytest.raises(ValueError):
            MeanExpansion((F(2), F(0)))

    def test_expansion_keeps_fractions_and_converts_the_rest(self):
        class Sub(F):
            pass

        kept = F(-1, 3)
        coeffs = MeanExpansion((1, F(0), kept, Sub(1, 2))).coeffs
        assert coeffs == (1, 0, F(-1, 3), F(1, 2))
        assert all(type(c) is F for c in coeffs)
        assert coeffs[2] is kept


#: Every spelling of a mean in the table of exact coincidences, by row.
COINCIDENT_ROWS = {
    "A": [ALIASES["A"], PowerMean(F(1))],
    "G": [ALIASES["G"], PowerMean(F(0)), LAlpha(F(1, 2)), LAlpha(F(-1, 2))],
    "H": [ALIASES["H"], PowerMean(F(-1)), LAlpha(F(1)), LAlpha(F(-1))],
    "L": [ALIASES["L"], SAlpha(F(0)), LAlpha(F(0)), MAlphaR(0, 1), MAlphaR(0, F(7, 2)),
          MuGenerated((1,)), MuGenerated((1, 0))],
}


class TestCoincidences:
    """The spellings of one row are one mean: one spec in the table, equal
    expansions, and values that agree to rounding."""

    @pytest.mark.parametrize("row", sorted(COINCIDENT_ROWS))
    def test_a_row_is_one_mean(self, row):
        specs = COINCIDENT_ROWS[row]
        assert {coincident(spec) for spec in specs} == {ALIASES[row]}
        assert len({expand_mean(spec, 96) for spec in specs}) == 1
        reference = specs[0]
        for spec in specs[1:]:
            for a, b in [(1, 2), (0.5, 3), (1e-3, 10), (2, 2.0000001), (1, 1e6), (1e-300, 1e300)]:
                assert math.isclose(eval_mean(spec, a, b), eval_mean(reference, a, b),
                                    rel_tol=1e-12)
            for x in (1e-6, 0.01, 0.5, 3.0, 20.0, 300.0, 700.0):
                assert math.isclose(eval_f(spec, x), eval_f(reference, x), rel_tol=1e-12)

    def test_the_rows_are_distinct_and_other_specs_stand_for_themselves(self):
        assert len({coincident(ALIASES[row]) for row in COINCIDENT_ROWS}) == 4
        rows = {spec: ALIASES[row] for row, specs in COINCIDENT_ROWS.items() for spec in specs}
        for spec in [*ALL_SPECS, LAlpha(F(1, 4)), LAlpha(F(-1, 3)), SAlpha(F(-1, 2)),
                     MAlphaR(0, 1), MuGenerated((F(1),)), MAlphaR(F(1, 3), 1),
                     MuGenerated((1, 0, F(1, 5))), ALIASES["P"], ALIASES["T"]]:
            assert coincident(spec) == rows.get(spec, spec)


ALL_SPECS = [
    PowerMean(F(3)),
    PowerMean(F(-2)),
    PowerMean(F(0)),
    LAlpha(F(1, 3)),
    LAlpha(F(1)),
    SAlpha(F(1, 2)),
    SAlpha(F(0)),
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR(F(1, 2), F(1)),
    MAlphaR(F(-1, 3), F(2)),
]


class TestSeriesVsDirectEvaluation:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_partial_sum_tracks_direct_value(self, spec):
        order = 4
        e = expand_mean(spec, order)
        x, t = 1000.0, 1.0
        series_value = e.partial_sum(x, t)
        direct = eval_mean(spec, x - t, x + t)
        assert abs(series_value - direct) / direct <= 10.0 * x**-order

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_head_and_parity_flags(self, spec):
        e = expand_mean(spec, 9)
        assert e.coefficient(0) == 1
        # The mixed means are M1, M3, M5 and M_{alpha,r} at alpha != 0.
        mixed = spec in (M1, M3, M5) or isinstance(spec, MAlphaR)
        assert any(e.coeffs[1::2]) == mixed


def test_denominator_series_rejects_power_means():
    with pytest.raises(ValueError):
        denominator_series(PowerMean(F(2)), 6)


def test_expand_quotient_mean_rejects_a_power_mean():
    with pytest.raises(TypeError, match=r"no denominator form for PowerMean\(p=Fraction\(2, 1\)\)"):
        expand_quotient_mean(PowerMean(F(2)), 4)


ORACLE_CASES = [
    (LAlpha(F(3, 7)), 97),
    (LAlpha(F(-1)), 12),
    (LAlpha(F(0)), 9),
    (SAlpha(F(2, 5)), 65),
    (SAlpha(F(1)), 12),
    (SAlpha(F(0)), 9),
    (M1, 11),
    (M2, 10),
    (M3, 66),
    (M4, 10),
    (M5, 11),
    (MAlphaR(F(1, 3), F(2)), 64),
    (MAlphaR(F(-1), F(1)), 9),
    (MuGenerated((F(1), F(1, 6), F(-2, 5), F(3))), 48),
    (MuGenerated((F(1),)), 9),
]


class TestProductionRouteAgainstOracles:
    """The one production route for difference-quotient means must equal
    every independent derivation kept in ``oracles``: the composition route
    for each family, and the dedicated formulas of the L/S/mu families.  One
    case per family runs at a workload-sized order."""

    @pytest.mark.parametrize(
        "spec,order", ORACLE_CASES, ids=[f"{describe_spec(s)}-{n}" for s, n in ORACLE_CASES]
    )
    def test_every_oracle(self, spec, order):
        expected = expand_mean(spec, order).coeffs
        assert oracles.expand_by_composition(spec, order).coeffs == expected
        dedicated = {
            LAlpha: lambda: oracles.expand_l_alpha(spec.alpha, order),
            SAlpha: lambda: oracles.expand_s_alpha(spec.alpha, order),
            MuGenerated: lambda: oracles.expand_mu_generated(spec.odd_coeffs, order),
        }.get(type(spec))
        if dedicated is not None:
            assert dedicated().coeffs == expected

    @pytest.mark.parametrize("alpha", [F(1, 4), F(1, 3), F(2, 3), F(1)])
    def test_l_alpha_composition_route(self, alpha):
        assert (
            oracles.expand_by_composition(LAlpha(alpha), 14).coeffs
            == expand_mean(LAlpha(alpha), 14).coeffs
        )

    @pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(4, 5), F(1)])
    def test_s_alpha_composition_route(self, alpha):
        assert (
            oracles.expand_by_composition(SAlpha(alpha), 14).coeffs
            == expand_mean(SAlpha(alpha), 14).coeffs
        )

    @pytest.mark.parametrize(
        "spec",
        [LAlpha(F(2, 3)), SAlpha(F(3, 4)), M3, MAlphaR(F(1, 2), F(3)),
         MuGenerated((F(1), F(-1, 7), F(2)))],
        ids=describe_spec,
    )
    def test_denominator_series_matches_closed_forms(self, spec):
        assert denominator_series(spec, 15) == oracles.direct_denominator_series(spec, 15)

    def test_denominator_must_start_2u(self):
        spec = MuGenerated((F(1),))
        object.__setattr__(spec, "odd_coeffs", (F(2),))  # bypass validation
        with pytest.raises(ArithmeticError, match="must start 2u"):
            expand_mean(spec, 4)


SERIES_ORACLE_ALPHAS = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(3, 7), F(-9, 10), F(11, 13), F(1234, 4567)]
SERIES_ORACLE_SPECS = (
    [LAlpha(a) for a in SERIES_ORACLE_ALPHAS]
    + [SAlpha(a) for a in SERIES_ORACLE_ALPHAS]
    + [M1, M2, M3, M4, M5]
    + [MAlphaR(a, r) for a, r in [(F(1), F(1)), (F(-1), F(1)), (F(2, 3), F(2, 3)),
                                  (F(-2, 3), F(2, 3)), (F(1, 3), F(2)), (F(0), F(3))]]
    + [MuGenerated((F(1),)), MuGenerated((F(1), F(1, 6), F(-2, 5), F(3), F(-7, 11)))]
)


@pytest.mark.parametrize("spec", SERIES_ORACLE_SPECS, ids=describe_spec)
def test_integer_route_matches_the_series_chain(spec):
    """The integer-form route equals the parent chain of public series
    functions on Fractions, coefficient by coefficient and type by type; the
    odd orders end on an index the even route fills by spreading."""
    for order in [0, 1, 2, 3, 4, 5, 16, 33, 64, 97]:
        coeffs = expand_quotient_mean(spec, order).coeffs
        assert coeffs == oracles.expand_quotient_by_series(spec, order).coeffs, order
        assert {type(c) for c in coeffs} == {F}


# Each radius lies inside the disc of convergence in u, which ends where
# D(Lambda(u)) vanishes or D is singular: M1's ln(1 + y) at y = -1, that is
# at u = -tanh(1/2), |u| = 0.46; M_{alpha,r} at y = -1/r.
CIRCLE_CASES = [
    (LAlpha(F(1, 3)), F(2, 5)),
    (LAlpha(F(-1)), F(2, 5)),
    (SAlpha(F(1, 2)), F(2, 5)),
    (SAlpha(F(1)), F(2, 5)),
    (M1, F(1, 5)),
    (M2, F(2, 5)),
    (M3, F(1, 4)),
    (M4, F(2, 5)),
    (M5, F(1, 4)),
    (MAlphaR(F(1, 2), F(1)), F(1, 5)),
    (MAlphaR(F(-1, 3), F(1, 2)), F(2, 5)),
    (MuGenerated((F(1), F(1, 6), F(-2, 5), F(3))), F(1, 5)),
]


@pytest.mark.parametrize(
    "spec,radius", CIRCLE_CASES, ids=[describe_spec(s) for s, _ in CIRCLE_CASES]
)
def test_quotient_means_by_cauchy_integral(spec, radius):
    # M(1 - u, 1 + u) = 2u / D(Lambda(u)), Lambda(u) = ln((1 + u)/(1 - u)),
    # with each family's own D in mpmath: an oracle that shares no code
    mpmath = pytest.importorskip("mpmath")

    def quotient_mean(u):
        return 2 * u / oracles.mpmath_denominator(spec, mpmath.log((1 + u) / (1 - u)))

    assert_cauchy_coefficients(mpmath, quotient_mean, radius, expand_mean(spec, 24))


def test_m2_denominator_closed_form():
    # sqrt2*arctan(y/sqrt2) = sum (-1)^k y^(2k+1) / ((2k+1) 2^k)
    d = denominator_series(M2, 9)
    for k in range(5):
        assert d[2 * k + 1] == F((-1) ** k, (2 * k + 1) * 2**k)

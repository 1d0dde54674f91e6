import math
import random
import sys
from fractions import Fraction as F

import pytest

import oracles
from meanstab import numeric
from meanstab.catalog import (
    ALIASES,
    LAlpha,
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR,
    MuGenerated,
    PowerMean,
    SAlpha,
)
from meanstab.numeric import (
    GridSpec,
    LimitReport,
    boundary_limit,
    check_decay_setup,
    compare_scan,
    eval_f,
    eval_mean,
    eval_resultant,
    verify_expansion_decay,
)
from meanstab.polynomials import (
    IntervalRoot,
    RationalRoot,
    UniPoly,
    isolate_real_roots,
)

_EPS = 2.0**-52

CATALOG = [
    PowerMean(F(1)),
    PowerMean(F(0)),
    PowerMean(F(-1)),
    PowerMean(F(5, 2)),
    LAlpha(F(1, 3)),
    LAlpha(F(3, 4)),
    SAlpha(F(0)),
    SAlpha(F(1, 2)),
    SAlpha(F(1)),
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR(F(1, 2), F(1)),
    MAlphaR(F(-1, 3), F(2)),
]


class TestEvalMean:
    def test_named_values(self):
        assert eval_mean(LAlpha(F(1, 2)), 1.0, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert eval_mean(MAlphaR(F(0), F(3)), 2.0, 3.0) == pytest.approx(
            1.0 / math.log(1.5), rel=1e-13
        )
        assert eval_mean(PowerMean(F(2)), 1.0, 9.0) == pytest.approx(
            math.sqrt(41), rel=1e-14
        )

    def test_diagonal(self):
        for spec in CATALOG:
            assert eval_mean(spec, 3.7, 3.7) == 3.7

    def test_positive_domain_enforced(self):
        with pytest.raises(ValueError):
            eval_mean(M1, -1.0, 2.0)
        with pytest.raises(ValueError):
            eval_mean(M1, 1.0, 0.0)

    @pytest.mark.parametrize("spec", CATALOG, ids=str)
    def test_mean_axioms_on_grid(self, spec):
        rng = random.Random(5)
        for _ in range(40):
            a = rng.uniform(0.02, 50.0)
            b = rng.uniform(0.02, 50.0)
            v = eval_mean(spec, a, b)
            assert min(a, b) <= v <= max(a, b)
            assert eval_mean(spec, b, a) == pytest.approx(v, rel=1e-12)
            for lam in (1e-3, 7.0, 1e3, 1e-290, 1e290):
                assert eval_mean(spec, lam * a, lam * b) == pytest.approx(
                    lam * v, rel=1e-12
                )

    @pytest.mark.parametrize("spec", CATALOG, ids=str)
    def test_near_diagonal_continuity(self, spec):
        # the mean axiom must hold where the closed forms approach 0/0; means
        # with a t-coefficient of 1 hug the max to within double resolution
        a = 1.0
        for gap in (2.2e-6, 1.8e-6, 9e-7, 1e-8):
            v = eval_mean(spec, a, a + gap)
            assert a <= v <= a + gap


# mu = the first six odd Taylor terms of sinh: its terms past y**9 matter
SINH6 = MuGenerated(tuple(F(1, math.factorial(2 * n + 1)) for n in range(6)))


def _sinh6(y: float) -> F:
    """mu(y) of SINH6, exactly, at the float y."""
    y = F(y)
    return sum(c * y ** (2 * n + 1) for n, c in enumerate(SINH6.odd_coeffs))


class TestMuGenerated:
    """A mu-generated mean is |b - a| / mu(|ln(b/a)|) for the odd polynomial
    mu, at every distance from the diagonal."""

    @pytest.mark.parametrize("a,b", [(1.0, 100.0), (2.0, 3.0), (0.01, 5.0), (1.0, 1.0 + 1e-9)])
    def test_mean_is_the_polynomial_quotient(self, a, b):
        expected = (b - a) / float(_sinh6(math.log(b / a)))
        assert eval_mean(SINH6, a, b) == pytest.approx(expected, rel=1e-13)

    def test_named_value(self):
        # all six terms: 99 / mu(ln 100) = 1.98316, not the 2.0030 of a
        # series cut after y**9
        assert eval_mean(SINH6, 1.0, 100.0) == pytest.approx(1.9831589181167, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-9, 0.4, 3.0])
    def test_associated_function(self, x):
        expected = 2 * math.sinh(x) / float(_sinh6(2 * x))
        assert eval_f(SINH6, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("odd", [(1, -1), (1, -3, 1), (1, 0, 0, -2)])
    def test_mu_with_positive_root_has_no_value(self, odd):
        # mu = y - y**3 vanishes at y = 1, where the mean is undefined; a
        # quotient clamped into [a, b] would read 2.0 at (1, 2) and 1.0 at
        # (1, e**2), and divide by zero at (1, e).
        spec = MuGenerated(odd)
        for a, b in ((1.0, 2.0), (1.0, math.e), (1.0, math.e**2), (1.0, 1.0 + 1e-9)):
            with pytest.raises(ValueError, match="positive root"):
                eval_mean(spec, a, b)
        for x in (0.5, 1e-9):
            with pytest.raises(ValueError, match="positive root"):
                eval_f(spec, x)
        with pytest.raises(ValueError, match="positive root"):
            compare_scan(spec, PowerMean(F(1)), GridSpec(0.1, 1.0, 5))


class TestNearDiagonalAccuracy:
    """Each family's one closed form against mpmath at 50 digits, at
    relative gaps b/a - 1 from 1e-5 down to 3e-16 and base points 1, 3.7
    and 1234.5.  An error of one unit is 2**-52 of the true value (one ulp
    at values in [1, 2)).  eval_f gets half a unit more than eval_mean:
    its numerator is the platform's sinh, which glibc returns 0.67 units
    high at x = 1e-8.  The worst errors here are 1.89 (eval_mean, M5) and
    2.35 (eval_f); off this grid, random gaps find up to 2.5 for M5."""

    GAPS = [10.0**-k for k in range(5, 16)] + [3e-16]
    # M_{-1/2,1/2} has alpha + r = 0: the logarithmic branch of D.
    SPECS = CATALOG + [SINH6, MAlphaR(F(-1, 2), F(1, 2))]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_eval_mean(self, spec):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        with mpmath.workdps(50):
            for a in (1.0, 3.7, 1234.5):
                for gap in self.GAPS:
                    b = a + a * gap
                    true = mpmath_mean(spec, a, b)
                    units = abs(eval_mean(spec, a, b) - true) / true / _EPS
                    assert units <= 2, (a, gap, float(units))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_eval_f(self, spec):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        with mpmath.workdps(50):
            for x in self.GAPS:
                true = mpmath_mean(spec, mpmath.exp(-x), mpmath.exp(x))
                units = abs(eval_f(spec, x) - true) / true / _EPS
                assert units <= 2.5, (x, float(units))

    @pytest.mark.parametrize("p", [F(1, 1000), F(-1, 1000)], ids=str)
    def test_eval_mean_of_a_power_mean_of_small_p(self, p):
        # the power factor is taken by log1p and expm1, so the digits of a
        # small |p|*y survive: at most 2.9 units here
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        spec = PowerMean(p)
        with mpmath.workdps(60):
            for a, b in [(1.0, 1.5), (1.0, 3.0), (1.0, 100.0), (0.5, 1e6)]:
                true = mpmath_mean(spec, a, b)
                units = abs(eval_mean(spec, a, b) - true) / true / _EPS
                assert units <= 4, (a, b, float(units))

    @pytest.mark.parametrize(
        ("p", "bound", "far"),
        [(F(3), 2.5, 700.0), (F(1, 3), 2.5, 700.0), (F(-13, 6), 2.5, 700.0),
         (F(40), 2.5, 700.0), (F(1000), 2.5, 700.0), (F(-1000), 2.5, 700.0),
         (F(1, 1000), 150.0, 1000.0), (F(-1, 1000), 150.0, 1000.0)],
        ids=str,
    )
    def test_eval_f_of_a_power_mean_far_from_the_diagonal(self, p, bound, far):
        # B_p at (exp(-x), exp(x)) neither loses digits to cosh(p*x)**(1/p)
        # nor overflows at large p*x, and stays finite past exp(x)'s range
        # while f_M is (up to x = 1000 at p = +-1/1000, where exp(-2x)
        # underflows).  At p = +-1/1000 the log of the power factor reaches
        # ln(2)*1000 and exp carries its rounding: 16 units at worst up to
        # x = 700, 132 at x = 1000, where f_M is one exp of 434.
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        spec = PowerMean(p)
        far_out = [x for x in (400.0, 700.0, 1000.0) if x <= far]
        with mpmath.workdps(50):
            for x in self.GAPS + [0.1, 0.5, 1.0, 3.0, 10.0, 50.0] + far_out:
                true = mpmath_mean(spec, mpmath.exp(-x), mpmath.exp(x))
                units = abs(eval_f(spec, x) - true) / true / _EPS
                assert units <= bound, (x, float(units))


class TestDoubleRange:
    """eval_mean at the ends of the double range against mpmath: a finite
    value in [lo, hi], L_alpha's included where sinh(alpha*y) overflows and
    D(y) is taken by its log.  y = ln(hi/lo) reaches 1454 here, and its
    rounding costs L_alpha about alpha*y/2 units and B_p of small |p| about
    y/4 (406 and 279 at y = 921, 361 for B_{-1/10^6} at y = 1423, where exp
    of its power factor alone would overflow); every other family stays
    within 3.9 units."""

    POINTS = [(1e-200, 1e200), (1e-300, 1e300), (5e-324, 1.0),
              (1e-310, 1e308), (5e-324, 1.7e308)]
    SPECS = CATALOG + [SINH6] + [PowerMean(F(s, d)) for d in (1000, 10**6) for s in (1, -1)]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_eval_mean(self, spec):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        for lo, hi in self.POINTS:
            y = math.log(hi) - math.log(lo)
            value = eval_mean(spec, lo, hi)
            assert math.isfinite(value) and lo <= value <= hi, (lo, hi, value)
            if isinstance(spec, LAlpha):
                bound = 6 + float(spec.alpha) * y
            elif isinstance(spec, PowerMean) and abs(spec.p) < F(1, 3):
                bound = 6 + y / 2
            else:
                bound = 6
            with mpmath.workdps(60):
                true = mpmath_mean(spec, lo, hi)
                units = abs(value - true) / true / _EPS
            assert units <= bound, (lo, hi, float(units))


    @pytest.mark.parametrize(
        "spec",
        [LAlpha(F(0)), M1, M4, M5, LAlpha(F(1, 4)), LAlpha(F(1, 2)), MAlphaR(F(-1, 2), F(2))],
        ids=str,
    )
    def test_eval_f_past_exp_range(self, spec):
        # A quotient mean's f_M = 2*sinh(x)/D(2x) stays finite past x =
        # 709.8, where sinh(x) overflows, for as long as f_M itself is
        # finite: M1, M4 and M5 overflow between 711 and 713, M_{-1/2,2} by
        # 716.5.  Where sinh(2*alpha*x) overflows in L_alpha's D(2x), f_M
        # is exp of the difference of the logs: L_{1/2}'s is 1 at x = 711.
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        for x in (700.5, 705.0, 711.0, 713.0, 715.0, 716.5):
            with mpmath.workdps(50):
                true = mpmath_mean(spec, mpmath.exp(-x), mpmath.exp(x))
            if true > sys.float_info.max:
                with pytest.raises(OverflowError):
                    eval_f(spec, x)
                continue
            units = abs(eval_f(spec, x) - true) / true / _EPS
            assert units <= 4, (x, float(units))


class TestMAlphaROverflow:
    """M_{alpha,r}'s D(y) = expm1(s*log1p(r*y))/(r + alpha), s = (r +
    alpha)/r, overflows once its exponent X = s*log1p(r*y) passes 709.8:
    for M_{1,1/1000} past y = 1032, so at (1e-300, 1e300) and x = 700 and
    709 but not at (1e-10, 1e300), y = 713.8.  There D is taken by its log.
    The rounding of X, which f_M and M carry through one exp, costs up to
    1.2*X units here (X reaches 886), as the closed form's does where it
    does not overflow."""

    SPEC = MAlphaR(F(1), F(1, 1000))

    @classmethod
    def bound(cls, y):
        s = float((cls.SPEC.r + cls.SPEC.alpha) / cls.SPEC.r)
        return 6 + 1.5 * s * math.log1p(float(cls.SPEC.r) * y)

    @pytest.mark.parametrize(("lo", "hi"), [(1e-300, 1e300), (1e-10, 1e300)], ids=str)
    def test_eval_mean(self, lo, hi):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        y = math.log(hi) - math.log(lo)
        value = eval_mean(self.SPEC, lo, hi)
        assert math.isfinite(value) and lo <= value <= hi
        with mpmath.workdps(60):
            true = mpmath_mean(self.SPEC, lo, hi)
            units = abs(value - true) / true / _EPS
        assert units <= self.bound(y), float(units)

    @pytest.mark.parametrize("x", [700.0, 709.0], ids=str)
    def test_eval_f(self, x):
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        with mpmath.workdps(50):
            true = mpmath_mean(self.SPEC, mpmath.exp(-x), mpmath.exp(x))
            units = abs(eval_f(self.SPEC, x) - true) / true / _EPS
        assert units <= self.bound(2.0 * x), float(units)


class TestMonotonicityInAlpha:
    def test_l_family_decreasing(self):
        a, b = 2.0, 5.0
        alphas = [F(k, 10) for k in range(0, 11)]
        values = [eval_mean(LAlpha(al), a, b) for al in alphas]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_s_family_increasing(self):
        a, b = 2.0, 5.0
        alphas = [F(k, 10) for k in range(0, 11)]
        values = [eval_mean(SAlpha(al), a, b) for al in alphas]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestDenominatorBranches:
    def test_series_matches_closed_form_near_zero(self):
        from meanstab.numeric import _denominator_closed
        from oracles import denominator_series_value

        specs = [s for s in CATALOG if not isinstance(s, PowerMean)]
        for spec in specs:
            for y in (1e-5, 1e-6, 1e-7):
                closed = _denominator_closed(spec, y)
                series = denominator_series_value(spec, y)
                assert abs(closed - series) <= 1e-13 * abs(closed), (spec, y)

    def test_no_log_form_where_d_cannot_overflow(self):
        # Only L_alpha's and M_{alpha,r}'s D overflow; any other family's
        # log form is the overflow it stands for.
        from meanstab.numeric import _log_denominator

        with pytest.raises(OverflowError, match="math range error"):
            _log_denominator(M2, 1000.0)


class TestEvalF:
    def test_classic_values(self):
        assert eval_f(PowerMean(F(0)), 1.7) == 1.0
        assert eval_f(PowerMean(F(1)), 2.0) == pytest.approx(math.cosh(2.0), rel=1e-14)
        assert eval_f(M1, 1.0) == pytest.approx(2 * math.sinh(1) / math.log(3), rel=1e-14)

    @pytest.mark.parametrize("spec", CATALOG, ids=str)
    def test_consistency_with_eval_mean(self, spec):
        for x in (1e-4, 0.3, 1.0, 2.5, 6.0):
            lhs = eval_f(spec, x)
            rhs = eval_mean(spec, math.exp(-x), math.exp(x))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eval_f(M1, 0.0)

    @pytest.mark.parametrize("x", [711.0, 1000.0, 1e6], ids=str)
    def test_l_half_is_one_past_the_sinh_range(self, x):
        # L_{1/2}(a, b) = sqrt(ab), though sinh(x) in its D(2x) overflows
        mpmath = pytest.importorskip("mpmath")
        from oracles import mpmath_mean

        with mpmath.workdps(50):
            assert mpmath_mean(LAlpha(F(1, 2)), mpmath.exp(-x), mpmath.exp(x)) == 1
        assert eval_f(LAlpha(F(1, 2)), x) == 1.0


class TestEvalResultant:
    def test_stable_mean_composition(self):
        v = eval_resultant(PowerMean(F(2)), PowerMean(F(2)), PowerMean(F(2)), 1.0, 9.0)
        assert v == pytest.approx(math.sqrt(41), rel=1e-13)

    def test_log_sandwich_value(self):
        v = eval_resultant(ALIASES["A"], ALIASES["L"], ALIASES["G"], 2.0, 8.0)
        assert v == pytest.approx(6.0 / math.log(4.0), rel=1e-12)

    @pytest.mark.parametrize("spec", CATALOG, ids=str)
    def test_geometric_outer_identity(self, spec):
        # R(A, m, G)(a, b) = A(sqrt a, sqrt b) * m(sqrt a, sqrt b)
        rng = random.Random(11)
        for _ in range(8):
            a = rng.uniform(0.05, 20.0)
            b = rng.uniform(0.05, 20.0)
            lhs = eval_resultant(ALIASES["A"], spec, ALIASES["G"], a, b)
            sa, sb = math.sqrt(a), math.sqrt(b)
            rhs = 0.5 * (sa + sb) * eval_mean(spec, sa, sb)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCompareScan:
    GRID = GridSpec(1e-3, 10.0, 10000)

    def test_classic_chain(self):
        chain = ["H", "G", "L", "P", "A", "T"]
        for low, high in zip(chain, chain[1:]):
            report = compare_scan(ALIASES[low], ALIASES[high], self.GRID)
            assert report.verdict == "m1<m2", (low, high)
            assert report.min_gap > 0

    def test_s_alpha_below_arithmetic(self):
        report = compare_scan(SAlpha(F(7, 10)), ALIASES["A"], self.GRID)
        assert report.verdict == "m1<m2"

    def test_chain_small_alpha(self):
        # 0 < alpha < 1/2: G < L_a < L < S_a < A
        a = F(1, 3)
        for m1, m2 in [
            (ALIASES["G"], LAlpha(a)),
            (LAlpha(a), ALIASES["L"]),
            (ALIASES["L"], SAlpha(a)),
            (SAlpha(a), ALIASES["A"]),
        ]:
            assert compare_scan(m1, m2, self.GRID).verdict == "m1<m2"

    def test_chain_large_alpha(self):
        # 1/2 < alpha < 1: H < L_a < G < L < S_a < T
        a = F(3, 4)
        for m1, m2 in [
            (ALIASES["H"], LAlpha(a)),
            (LAlpha(a), ALIASES["G"]),
            (ALIASES["G"], ALIASES["L"]),
            (ALIASES["L"], SAlpha(a)),
            (SAlpha(a), ALIASES["T"]),
        ]:
            assert compare_scan(m1, m2, self.GRID).verdict == "m1<m2"

    def test_m_chain(self):
        # M4 < M5 < M1 < M3 and L < M4 < A, L < M2 < M3
        for m1, m2 in [
            (M4, M5),
            (M5, M1),
            (M1, M3),
            (ALIASES["L"], M4),
            (M4, ALIASES["A"]),
            (ALIASES["L"], M2),
            (M2, M3),
        ]:
            assert compare_scan(m1, m2, self.GRID).verdict == "m1<m2"

    def test_crossing_witness_arithmetic_vs_m1(self):
        report = compare_scan(ALIASES["A"], M1, self.GRID)
        assert report.verdict == "crossing"
        assert any(lo <= 2.0 <= hi or lo >= 1.0 for lo, hi in report.witnesses)

    def test_crossing_s_alpha_in_true_window(self):
        # Non-comparability of S_alpha with A is real for
        # sqrt(2)/2 < alpha < pi/4: above the diagonal near 0, below at
        # infinity (the limit ratio is 4*alpha/pi).
        report = compare_scan(SAlpha(F(18, 25)), ALIASES["A"], self.GRID)
        assert report.verdict == "crossing"

    def test_equal_means(self):
        # an exact 0.0 difference at every grid point is no sign change
        for name in ("A", "L"):
            report = compare_scan(ALIASES[name], ALIASES[name], self.GRID)
            assert report.verdict == "equal"
            assert report.witnesses == ()
            assert report.min_gap == 0.0

    def test_spellings_of_one_mean_are_equal_with_no_scan(self, monkeypatch):
        monkeypatch.setattr(numeric, "eval_f", None)
        for m1, m2 in [(ALIASES["H"], LAlpha(F(1))), (LAlpha(F(-1)), LAlpha(F(1))),
                       (ALIASES["G"], LAlpha(F(1, 2))), (ALIASES["L"], LAlpha(F(0))),
                       (ALIASES["A"], ALIASES["A"])]:
            report = compare_scan(m1, m2, self.GRID)
            assert (report.verdict, report.witnesses, report.min_gap) == ("equal", (), 0.0)

    def test_a_pair_outside_the_table_is_scanned(self, monkeypatch):
        # L_{-1/3} = L_{1/3} is no row of the table: the scan reads "equal"
        # from an exact 0.0 difference at every grid point
        calls = []
        real = numeric.eval_f
        monkeypatch.setattr(numeric, "eval_f", lambda spec, x: calls.append(x) or real(spec, x))
        report = compare_scan(LAlpha(F(-1, 3)), LAlpha(F(1, 3)), self.GRID)
        assert (report.verdict, report.witnesses, report.min_gap) == ("equal", (), 0.0)
        assert len(calls) == 2 * self.GRID.count

    def test_s_alpha_09_dominates_arithmetic(self):
        # For alpha > pi/4 the limit ratio 4*alpha/pi exceeds 1 and the
        # difference is single-signed: S_0.9 > A on the whole grid.
        report = compare_scan(SAlpha(F(9, 10)), ALIASES["A"], self.GRID)
        assert report.verdict == "m2<m1"

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 1)

    def test_grid_scale_is_linear_or_logarithmic(self):
        with pytest.raises(ValueError, match="'linear' or 'logarithmic'"):
            GridSpec(1.0, 2.0, 10, scale="cubic")


# B_p, L_alpha and S_alpha (negative alpha included), M1-M5, M_{alpha,r} with
# r + alpha below, at and above 0, and mu (a zero top coefficient included)
BOUNDARY_SPECS = [
    *(PowerMean(p) for p in (F(1), F(0), F(-1), F(5, 2), F(1, 1000), F(-1, 1000))),
    *(LAlpha(a) for a in (F(0), F(1, 3), F(3, 4), F(1), F(-1, 2))),
    *(SAlpha(a) for a in (F(0), F(1, 2), F(1), F(-1, 2), F(-1), F(7, 10))),
    M1, M2, M3, M4, M5,
    MAlphaR(F(1, 2), F(1)),
    MAlphaR(F(-1, 3), F(2)),
    MAlphaR(F(-1, 2), F(1, 2)),
    MAlphaR(F(-1, 2), F(1, 4)),
    MAlphaR(F(-1), F(1, 3)),
    MAlphaR(F(1), F(1)),
    MAlphaR(F(0), F(3)),
    MuGenerated((F(1),)),
    MuGenerated((F(1), F(1, 6))),
    MuGenerated((F(1), F(1, 6), F(0))),
    MuGenerated((F(1), F(0), F(1))),
    MuGenerated((F(1), F(-1), F(1))),
    SINH6,
]


class TestBoundaryLimit:
    @pytest.mark.parametrize("spec", BOUNDARY_SPECS, ids=str)
    def test_one_over_d_at_infinity_matches_the_table(self, spec):
        from meanstab.numeric import _denominator_closed

        if not isinstance(spec, PowerMean):
            d_inf = _denominator_closed(spec, math.inf)
            assert d_inf == math.inf or 0 < d_inf < math.inf, d_inf
        expected = oracles.mean_boundary_by_table(spec)
        assert math.isclose(boundary_limit(spec).value, expected, rel_tol=1e-15)

    @pytest.mark.parametrize("spec", [None, "M1", F(1, 2), (M1, M2)], ids=repr)
    def test_a_non_spec_raises_type_error(self, spec):
        with pytest.raises(TypeError):
            eval_mean(spec, 1.0, 2.0)
        if not isinstance(spec, tuple):  # a triple is a resultant limit
            with pytest.raises(TypeError):
                boundary_limit(spec)

    def test_m1_vanishes(self):
        report = boundary_limit(M1)
        assert report.value == 0.0 and report.is_exact

    def test_m1_resultant_closed_form(self):
        report = boundary_limit((PowerMean(F(1)), M1, PowerMean(F(1))))
        assert report.is_exact
        assert report.value == pytest.approx(0.25 / math.log1p(math.log(2)), rel=1e-14)

    def test_m_alpha_r_negative_sum(self):
        spec = MAlphaR(F(-1, 2), F(1, 4))
        report = boundary_limit(spec)
        assert report.value == pytest.approx(0.25, abs=1e-12)

    def test_closed_form_matches_sampling_where_fast(self):
        # B_2 approaches its boundary value fast; extrapolation must agree.
        from meanstab.numeric import _mean_boundary_closed

        spec = PowerMean(F(2))
        closed = _mean_boundary_closed(spec)
        samples = [eval_mean(spec, 10.0**-k, 1 - 10.0**-k) for k in (6, 7, 8)]
        assert closed == pytest.approx(samples[-1], rel=1e-4)
        assert closed == pytest.approx(2 ** -0.5, rel=1e-12)

    def test_seiffert_limit(self):
        assert boundary_limit(SAlpha(F(1))).value == pytest.approx(2 / math.pi, rel=1e-12)

    def test_mu_without_positive_root_is_closed_form_zero(self):
        # mu = y + y**3/6 grows without bound, so the limit is exactly 0; the
        # extrapolation oracle lands within 1e-3 of it.
        spec = MuGenerated((F(1), F(1, 6)))
        report = boundary_limit(spec)
        assert report.method == "closed-form" and report.value == 0.0
        assert oracles.boundary_by_extrapolation(spec).value == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("p, q", [(1, 1), (2, F(1, 2)), (F(1, 2), 2), (-1, 3), (6, -2), (0, 0)])
    def test_mu_of_y_is_the_logarithmic_mean(self, p, q):
        # mu = y generates L = S_0, so every limit agrees to the last bit.
        mu, log_mean = MuGenerated((F(1),)), SAlpha(F(0))
        assert boundary_limit(mu) == boundary_limit(log_mean)
        assert boundary_limit((PowerMean(p), mu, PowerMean(q))) == boundary_limit(
            (PowerMean(p), log_mean, PowerMean(q))
        )

    @pytest.mark.parametrize(
        "odd, kind",
        [
            ((1, -1), RationalRoot),
            ((1, -3, 1), IntervalRoot),  # mu = y * (y**2 - y - 1)(y**2 + y - 1)
            ((1, -2, 1), RationalRoot),  # mu = y * (1 - y**2)**2, a double root
            ((1, 0, 0, -2), IntervalRoot),
        ],
        ids=["rational", "surd", "double", "interval"],
    )
    def test_mu_with_positive_root_is_not_resolved(self, odd, kind):
        mu = UniPoly(tuple(odd[n // 2] if n % 2 else 0 for n in range(2 * len(odd))))
        assert any(isinstance(r, kind) and r.bounds()[0] > 0 for r in isolate_real_roots(mu))
        spec = MuGenerated(odd)
        with pytest.raises(ValueError, match="not resolved"):
            boundary_limit(spec)
        with pytest.raises(ValueError, match="not resolved"):
            boundary_limit((PowerMean(F(1)), spec, PowerMean(F(1))))

    def test_mu_with_complex_roots_only_is_closed_form_zero(self):
        # 1 - y**2 + y**4 has no real root
        report = boundary_limit(MuGenerated((F(1), F(-1), F(1))))
        assert report == LimitReport(0.0, 0.0, "closed-form")

    @pytest.mark.parametrize(
        "expr",
        [
            PowerMean(F(2)),
            SAlpha(F(1)),
            M2,
            MAlphaR(F(-1, 2), F(1, 4)),
            (PowerMean(F(1)), M2, PowerMean(F(1))),
            (PowerMean(F(2)), SAlpha(F(1)), PowerMean(F(3))),
        ],
        ids=["B2", "T", "M2", "M_-1/2,1/4", "R(B1,M2,B1)", "R(B2,T,B3)"],
    )
    def test_extrapolation_oracle_agrees(self, expr):
        closed = boundary_limit(expr)
        assert closed.is_exact
        assert oracles.boundary_by_extrapolation(expr).value == pytest.approx(closed.value, abs=1e-3)

    def test_a_composition_past_the_sinh_range_is_resolved(self):
        # B_{1/1050}(0, 1) = 2**-1050, where L_1's sinh(ln(2**1050))
        # overflows: its log gives L_1 = H there, and the limit is
        # H(2**-1050, 1)/2 = 2**-1050/(1 + 2**-1050)
        mpmath = pytest.importorskip("mpmath")
        value = boundary_limit((PowerMean(F(1)), LAlpha(F(1)), PowerMean(F(1, 1050)))).value
        assert value == boundary_limit((PowerMean(F(1)), PowerMean(F(-1)),
                                        PowerMean(F(1, 1050)))).value
        with mpmath.workdps(50):
            nu = mpmath.mpf(2) ** -1050
            assert value == float(nu / (1 + nu))

    def test_logarithmically_slow_sequence_not_resolved(self):
        # R(M1, M1, M1)(s, 1-s) drifts like 1/log(log(1/s)); honest refusal
        # beats a confidently wrong number.
        with pytest.raises(ValueError, match="not resolved"):
            boundary_limit((M1, M1, M1))


class TestDecay:
    GRID = GridSpec(100.0, 1e5, 40, "logarithmic")

    def test_l_alpha_next_exponent(self):
        report = verify_expansion_decay(LAlpha(F(1, 3)), 4, 10.0, self.GRID)
        assert report.expected_exponent == -5
        assert report.slope == pytest.approx(-5.0, abs=0.15)

    def test_arithmetic_mean_is_exact(self):
        report = verify_expansion_decay(PowerMean(F(1)), 4, 1.0, self.GRID)
        assert report.exact

    def test_exactness_comes_from_the_exact_expansion(self):
        # H = x - t^2/x has nonzero float remainders, yet its truncation is exact
        report = verify_expansion_decay(PowerMean(F(-1)), 2, 10.0, self.GRID)
        assert report.exact and not report.noise_floor
        # M1's float remainders vanish at t = 1e-300, yet its expansion goes on
        report = verify_expansion_decay(M1, 2, 1e-300, self.GRID)
        assert not report.exact and report.noise_floor
        assert report.expected_exponent == -2

    def test_decay_needs_a_logarithmic_grid(self):
        with pytest.raises(ValueError, match="logarithmic grid"):
            check_decay_setup(10.0, GridSpec(100.0, 1e5, 40))

    @pytest.mark.parametrize("t", [-5.0, 0.0, 100.0, 1e3])
    def test_t_must_lie_below_the_grid(self, t):
        with pytest.raises(ValueError, match="0 < t"):
            verify_expansion_decay(M1, 2, t, self.GRID)

    def test_m1_after_linear_term(self):
        report = verify_expansion_decay(M1, 1, 1.0, self.GRID)
        assert report.expected_exponent == -1
        assert report.slope == pytest.approx(-1.0, abs=0.15)

    def test_noise_floor_reported(self):
        # truncating far beyond double precision leaves only noise
        report = verify_expansion_decay(PowerMean(F(2)), 10, 0.1, self.GRID)
        assert report.noise_floor
        assert report.slope is None

import json
import random
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from meanstab import catalog, cli, numeric, polynomials, solver
from meanstab.catalog import (
    ALIASES,
    LAlpha,
    M1,
    M2,
    M3,
    M4,
    M5,
    MAlphaR,
    MeanExpansion,
    MuGenerated,
    PowerMean,
    SAlpha,
    coincident,
    describe_spec,
    expand_mean,
    expand_power_mean,
    expand_stable,
)
from meanstab.numeric import boundary_limit, eval_mean, eval_resultant
from meanstab.polynomials import (
    IntervalRoot,
    QuadraticField,
    RationalRoot,
    UniPoly,
)
from meanstab.resultant import resultant_coeffs
from meanstab.series import _integer_form, _values
from meanstab.solver import (
    coefficient_polynomials,
    difference_expansion,
    first_order_locus,
    is_stable,
    optimal_parameters,
    stability_parameter_scan,
)


def root_value(root):
    """A root of the divisor-search oracle as the solver holds a parameter:
    a rational root's Fraction, or the surd, a value of Q(sqrt(s))."""
    return root.value if isinstance(root, RationalRoot) else root


def kind_of(parameter) -> str:
    """The kind a report gives a candidate's parameter."""
    return "quadratic-surd" if isinstance(parameter, QuadraticField) else "exact-rational"


class TestDifferenceExpansion:
    def test_log_mean_exact_sandwiches(self):
        log = expand_mean(SAlpha(F(0)), 12)
        assert difference_expansion(log, F(1), F(0), 12).is_zero
        assert difference_expansion(log, F(-1), F(1), 12).is_zero

    def test_m2_quadratic_coefficient(self):
        m2 = expand_mean(M2, 6)
        rng = random.Random(3)
        for _ in range(6):
            p = F(rng.randint(-5, 5), rng.randint(1, 3))
            q = F(rng.randint(-5, 5), rng.randint(1, 3))
            diff = difference_expansion(m2, p, q, 4)
            assert diff.coeffs[2] == (5 - p - 2 * q) / 8

    def test_sign_and_first_nonzero(self):
        m2 = expand_mean(M2, 6)
        diff = difference_expansion(m2, F(0), F(0), 4)
        assert diff.first_nonzero == 2
        assert diff.coeffs[diff.first_nonzero] > 0  # (5 - 0 - 0)/8

    @pytest.mark.parametrize("surd_q", [False, True], ids=["surd-p", "surd-q"])
    def test_one_operand_in_a_quadratic_field(self, surd_q):
        # The double sums at sqrt(2) beside a rational operand, in Q(sqrt(2)),
        # against difference_expansion at rational operands: the t^k
        # coefficient is a polynomial of degree below k in either operand,
        # read through nine integer points and evaluated at sqrt(2).
        mean = expand_mean(SAlpha(F(1, 2)), 8)
        surd, rational = QuadraticField(F(0), F(1), F(2)), F(1, 3)
        pair = (lambda x: (rational, x)) if surd_q else (lambda x: (x, rational))
        diff = oracles.difference_by_double_sums(mean.coeffs, *pair(surd), 8)
        assert any(isinstance(c, QuadraticField) for c in diff)
        samples = [difference_expansion(mean, *pair(F(x)), 8).coeffs for x in range(9)]
        for k in range(9):
            column = oracles.lagrange_interpolate([(x, c[k]) for x, c in enumerate(samples)])
            assert column.degree < max(k, 1)
            assert diff[k] == column(surd)


class TestDifferenceOnIntegerForms:
    """difference_expansion runs B_p, B_q, the resultant and the difference
    on integer numerators; it equals mean - R(B_p, M, B_q) by the double
    sums."""

    @staticmethod
    def reference(mean, p, q, order):
        return tuple(oracles.difference_by_double_sums(mean.coeffs, p, q, order))

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    )
    def test_random_means_and_powers(self, data, order, extra, even):
        coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=7)
        tail = data.draw(st.lists(coefficients, min_size=order + extra, max_size=order + extra))
        if even:
            tail[::2] = [F(0)] * len(tail[::2])
        mean = MeanExpansion((F(1), *tail))
        powers = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        p, q = data.draw(powers), data.draw(powers)
        diff = difference_expansion(mean, p, q, order)
        reference = self.reference(mean, p, q, order)
        assert diff.coeffs == reference
        assert all(type(c) is F for c in diff.coeffs)
        assert (diff.p, diff.q) == (p, q)

    @pytest.mark.parametrize("spec", [ALIASES["L"], ALIASES["HZ1/4"], M2], ids=str)
    def test_catalog_means_on_the_locus(self, spec):
        mean = expand_mean(spec, 16)
        locus = first_order_locus(mean)
        for p in (F(-3), F(1, 2), F(5, 3)):
            q = locus.q_of(p)
            diff = difference_expansion(mean, p, q, 14)
            assert diff.coeffs == self.reference(mean, p, q, 14)
            assert diff.coeffs[2] == 0

    def test_mixed_mean(self):
        mean = expand_mean(M1, 10)
        diff = difference_expansion(mean, F(2), F(-1, 3), 10)
        assert diff.coeffs == self.reference(mean, F(2), F(-1, 3), 10)
        assert diff.coeffs[1] == mean.coefficient(1) / 2

    def test_order_past_the_mean_is_refused(self):
        with pytest.raises(ValueError, match="cannot extend"):
            difference_expansion(expand_mean(M2, 4), F(1), F(1), 5)


class TestFirstOrderLocus:
    def test_catalog_loci(self):
        cases = [
            (LAlpha(F(1, 3)), F(1, 2) - F(2, 9)),
            (SAlpha(F(1, 3)), F(1, 2) + F(2, 9)),
            (M2, F(5, 2)),
            (M4, F(3, 2)),
            (SAlpha(F(0)), F(1, 2)),
        ]
        for spec, intercept in cases:
            locus = first_order_locus(expand_mean(spec, 6))
            assert locus.slope == F(-1, 2)
            assert locus.intercept == intercept

    def test_locus_kills_quadratic_term(self):
        m = expand_mean(SAlpha(F(2, 5)), 6)
        locus = first_order_locus(m)
        for p in (F(-2), F(0), F(3, 4)):
            diff = difference_expansion(m, p, locus.q_of(p), 4)
            assert diff.coeffs[2] == 0

    def test_mixed_parity_rejected(self):
        for spec in (M1, M5):
            with pytest.raises(ValueError, match="parameter-independent"):
                first_order_locus(expand_mean(spec, 6))


def shifted(form, k, delta):
    """The integer form with delta added to its t**k coefficient."""
    nums, den = form
    delta = F(delta)
    nums = [c * delta.denominator for c in nums]
    nums[k] += delta.numerator * den
    return nums, den * delta.denominator


class TestCoefficientPolynomial:
    def test_l_alpha_third(self):
        m = expand_mean(LAlpha(F(1, 3)), 8)
        poly = coefficient_polynomials(m, first_order_locus(m), 4, 4)[4]
        # proportional to p^2 - 209/81 with factor 5/3456
        assert poly.coeffs == (F(5, 3456) * F(-209, 81), F(0), F(5, 3456))

    def test_m2_roots(self):
        m = expand_mean(M2, 8)
        poly = coefficient_polynomials(m, first_order_locus(m), 4, 4)[4]
        assert poly.coeffs == (F(-85, 384), F(0), F(5, 384))  # 5(p^2-17)/384

    @pytest.mark.parametrize("low", [1, 0, -2])
    def test_bands_start_at_the_t2_index(self, low):
        m = expand_mean(M2, 8)
        with pytest.raises(ValueError, match="t\\^2 index"):
            coefficient_polynomials(m, first_order_locus(m), low, 4)

    def test_log_mean_q_form(self):
        m = expand_mean(SAlpha(F(0)), 8)
        locus = first_order_locus(m)
        poly = coefficient_polynomials(m, locus, 4, 4)[4]
        assert poly.coeffs == (F(-1, 384), F(0), F(1, 384))
        # re-expressed through q = (1-p)/2 this is q(q-1)/96
        for q in (F(2), F(-1, 3), F(7, 5)):
            p = 1 - 2 * q
            assert poly(p) == q * (q - 1) / 96

    def test_resampling_invariance(self):
        # interpolation through different sample sets gives the same polynomial
        m = expand_mean(M2, 8)
        locus = first_order_locus(m)
        poly = coefficient_polynomials(m, locus, 4, 4)[4]
        pts = []
        for i in (7, 10, 13, 15, 19):
            p = F(i, 7)
            diff = difference_expansion(m, p, locus.q_of(p), 4)
            pts.append((p, diff.coeffs[4]))
        assert oracles.lagrange_interpolate(pts) == poly

    @pytest.mark.parametrize(
        "spec",
        [LAlpha(F(1, 3)), SAlpha(F(2, 5)), PowerMean(F(3, 2)), M2],
        ids=["L_alpha", "S_alpha", "B_p", "M2"],
    )
    def test_band_matches_per_order_oracle(self, spec):
        m = expand_mean(spec, 12)
        locus = first_order_locus(m)
        band = coefficient_polynomials(m, locus, 3, 12)
        assert band == {
            k: oracles.coefficient_polynomial(m, k, locus) for k in range(3, 13)
        }

    def test_surplus_sample_catches_a_bad_value(self, monkeypatch):
        # In the band at order 8 (p = -5..4) the t^4 polynomial interpolates
        # p = -5..-1 and must match the other five samples; p = 3 is one of
        # them, and a route at order 4 alone (p = -3..2) never samples it.
        m = expand_mean(M2, 8)
        locus = first_order_locus(m)
        real = solver._difference_form
        bad_p = F(3)

        def corrupted(m_form, p, q, order):
            form = real(m_form, p, q, order)
            return shifted(form, 4, 1) if p == bad_p else form

        monkeypatch.setattr(solver, "_difference_form", corrupted)
        with pytest.raises(ArithmeticError, match="degree bound violated"):
            coefficient_polynomials(m, locus, 4, 8)

    @pytest.mark.parametrize(
        "spec",
        [SAlpha(F(0)), PowerMean(F(0)), PowerMean(F(-13, 6))],
        ids=["L", "G", "B_-13/6"],
    )
    def test_reach_sixteen_matches_per_order_oracle(self, spec):
        m = expand_mean(spec, 16)
        locus = first_order_locus(m)
        band = coefficient_polynomials(m, locus, 3, 16)
        assert band == {
            k: oracles.coefficient_polynomial(m, k, locus) for k in range(3, 17)
        }

    @pytest.mark.parametrize("sample", [0, 5, 9], ids=lambda i: f"sample{i}")
    def test_top_column_corruption_raises(self, monkeypatch, sample):
        # The t^8 column of the band at order 8 has ten samples for a degree
        # bound of 7: only Delta^8 = 0 and one surplus sample guard it.
        m = expand_mean(M2, 8)
        locus = first_order_locus(m)
        real = solver._difference_form
        bad_p = F(sample - 5)

        def corrupted(m_form, p, q, order):
            form = real(m_form, p, q, order)
            return shifted(form, 8, F(1, 10**9)) if p == bad_p else form

        monkeypatch.setattr(solver, "_difference_form", corrupted)
        with pytest.raises(ArithmeticError, match="degree bound violated"):
            coefficient_polynomials(m, locus, 4, 8)

    @pytest.mark.parametrize("excess", [0, 1])
    def test_certificate_agrees_with_interpolation(self, monkeypatch, excess):
        # Adding p^(k-1) to column k keeps every sample on a polynomial of
        # degree k-1; adding p^k does not.  The forward-difference band and
        # the oracle's interpolation of each column accept and reject alike.
        m = expand_mean(M2, 8)
        locus = first_order_locus(m)
        clean = coefficient_polynomials(m, locus, 4, 8)
        real = solver._difference_form
        k = 6

        def bent(m_form, p, q, order):
            form = real(m_form, p, q, order)
            return shifted(form, k, p ** (k - 1 + excess)) if order >= k else form

        # The oracle's difference_expansion reads its samples, truncated at
        # each column, through the same private function.
        monkeypatch.setattr(solver, "_difference_form", bent)

        def by_columns(m, locus, low, high):
            return {j: oracles.coefficient_polynomial(m, j, locus) for j in range(low, high + 1)}

        routes = (coefficient_polynomials, by_columns)
        if excess:
            for route in routes:
                with pytest.raises(ArithmeticError, match="degree bound violated"):
                    route(m, locus, 4, 8)
        else:
            band, reference = (route(m, locus, 4, 8) for route in routes)
            assert band == reference
            assert band == {**clean, k: clean[k] + UniPoly((0,) * (k - 1) + (1,))}


class TestOrderBands:
    """Which orders the search reads past the closed columns: it samples no
    band, and its one route past t^6 is one Stolarsky reference for the
    pair, built at max_order."""

    @staticmethod
    def reference_orders(monkeypatch, spec, max_order, given=False):
        """The orders of the references for the spec's expansion, with the
        spec given to the search if given."""
        options = {"spec": spec} if given else {}
        return TestOrderBands.references(
            monkeypatch, expand_mean(spec, max_order), max_order, **options
        )[0]

    @staticmethod
    def references(monkeypatch, mean, max_order, **options):
        """The orders of the Stolarsky references the search builds, and
        their forms."""
        orders, forms = [], []
        real = solver._stolarsky_form

        def counting(r, s, order):
            orders.append(order)
            forms.append(real(r, s, order))
            return forms[-1]

        monkeypatch.setattr(solver, "_stolarsky_form", counting)
        optimal_parameters(mean, max_order, **options)
        return orders, forms

    def test_early_search_stays_below_order_seven(self, monkeypatch):
        # S_{1/10}'s surd roots read t^6 in closed form: no reference
        orders = self.reference_orders(monkeypatch, SAlpha(F(1, 10)), 14)
        assert orders == []
        # where t^5 and t^6 vanish at surd roots, the pair takes one
        # reference at max_order, and no band opens
        orders, _ = self.references(monkeypatch, _c6_zero(14), 14)
        assert orders == [14]

    def test_deep_search_of_a_power_mean_opens_no_band(self, monkeypatch):
        # the pivot t^4 is a closed column, and its roots p = -1, 1 are the
        # identity points of A = B_1 = E_{2,1}: one comparison with it reads
        # them, and none with the spec, which is its own reference
        assert self.reference_orders(monkeypatch, ALIASES["A"], 16) == [16]
        assert self.reference_orders(monkeypatch, ALIASES["A"], 16, given=True) == []

    def test_rational_roots_past_the_first_reach_open_no_band(self, monkeypatch):
        # t^5 and t^6 vanish at the constructed mean's rational roots p = -2,
        # 2: one reference at max_order reads both
        orders, _ = self.references(monkeypatch, _c6_zero(64, F(4)), 64)
        assert orders == [64]
        # L's roots p = -1, 1 are the identity points of L = E_{1,0}: one
        # comparison reads them, and none with the spec
        assert self.reference_orders(monkeypatch, ALIASES["L"], 64) == [64]
        assert self.reference_orders(monkeypatch, ALIASES["L"], 64, given=True) == []

    def test_rational_survivor_at_t6_opens_no_band(self, monkeypatch):
        # the rational roots of L_{3/10} survive at t^6, read in closed form
        orders = self.reference_orders(monkeypatch, LAlpha(F(3, 10)), 16)
        assert orders == []
        verdict = optimal_parameters(expand_mean(LAlpha(F(3, 10)), 16), 16)
        assert [(c.p, c.achieved_order, c.leading) for c in verdict.candidates] == [
            (F(-38, 25), 6, F(-1456, 48828125)), (F(38, 25), 6, F(-1456, 48828125))
        ]

    def test_vanishing_on_the_locus_opens_no_band(self, monkeypatch):
        # a_2 = -1/2: the columns come from one comparison with G = E_{0,0},
        # and with the spec from none
        assert self.reference_orders(monkeypatch, ALIASES["G"], 16) == [16]
        assert self.reference_orders(monkeypatch, ALIASES["G"], 16, given=True) == []

    def test_the_first_reach_leaves_the_search_alone(self, monkeypatch):
        # the first reach is the stability probe's only, and the search does
        # not read it (tests/test_source_rules.py): a mean whose surd roots
        # read neither t^5 nor t^6 takes one reference at max_order;
        # S_{1/10} reads t^6 in closed form
        spec = SAlpha(F(1, 10))
        means = [(expand_mean(spec, 8), spec), (_c6_zero(8), None)]
        schedules = [list(self.references(monkeypatch, mean, 8)[0]) for mean, _ in means]
        assert schedules == [[], [8]]
        verdicts = [optimal_parameters(mean, 8, spec=s) for mean, s in means]
        assert [(v.relation, [(kind_of(c.p), c.achieved_order, c.leading) for c in v.candidates])
                for v in verdicts] == [
            ("candidate-sub", [("quadratic-surd", 6, F(6986069, 731250000000))] * 2),
            ("candidate-sub", [("quadratic-surd", 8, F(2057969, 537477120))] * 2),
        ]

    @pytest.mark.parametrize("max_order", [3, 5, 8, 13, 16, 25])
    @pytest.mark.parametrize(
        "spec",
        [ALIASES["G"], ALIASES["P"], M2, M4, LAlpha(F(1, 3)), PowerMean(F(-13, 6)), None],
        ids=lambda s: "c6=0" if s is None else describe_spec(s),
    )
    def test_even_mean_asks_only_for_even_orders(self, monkeypatch, spec, max_order):
        mean = _c6_zero(max_order) if spec is None else expand_mean(spec, max_order)
        orders, forms = self.references(monkeypatch, mean, max_order)
        # no band opens, and a pair that the closed columns do not settle
        # takes one reference, at max_order
        assert set(orders) <= {max_order}
        # the premise: the reference is even, at a surd pair too
        assert all(not any(nums[1::2]) for nums, _ in forms)
        # t^3..t^6 are closed columns.  G's locus (G = B_0), the surd roots
        # of the constructed mean and the identity points of B_{-13/6},
        # where every closed column vanishes, build their reference past t^6
        # alone, and below it nothing survives through max_order; the other
        # means' roots read t^6 in closed form
        deep = spec is None or isinstance(spec, PowerMean)
        assert orders == [max_order] * (deep and max_order > solver.CLOSED_ORDER)

    @pytest.mark.parametrize("odd", [3, 5])
    def test_mixed_mean_without_t_term_starts_from_the_closed_columns(self, monkeypatch, odd):
        # M2 with a_odd = 1/7: a mixed mean with a_1 = 0 reads t^3, and t^4
        # when a_3 = 0, in closed form; at a_3 = 0 its surd roots read t^5 in
        # closed form too, and no band opens
        coeffs = list(expand_mean(M2, 16).coeffs)
        coeffs[odd] = F(1, 7)
        mean = MeanExpansion(tuple(coeffs))
        assert any(mean.coeffs[1::2]) and mean.coefficient(1) == 0
        orders, _ = self.references(monkeypatch, mean, 16)
        assert orders == []
        verdict = optimal_parameters(mean, 16)
        assert verdict.relation == "candidate-sub"
        if odd == 3:
            # a_3 - a_3/8: the t^3 coefficient of R(B_p, M, B_q) at a_1 = 0
            assert verdict.fixed_leading_order == 3 and verdict.fixed_leading == F(1, 8)
        else:
            assert [(type(c.p), c.achieved_order, c.leading) for c in verdict.candidates] == [
                (QuadraticField, 5, F(31, 224))
            ] * 2

    @pytest.mark.parametrize(
        "spec, max_order",
        [(ALIASES["G"], 32), (LAlpha(F(1, 2)), 48), (ALIASES["G"], 64)],
        ids=["G-32", "L_1/2-48", "G-64"],
    )
    def test_deep_vanishing_search_opens_no_band(self, monkeypatch, spec, max_order):
        # the difference vanishes on the whole locus, which one comparison
        # with G shows, and the spec, G itself, with none: no band
        assert self.reference_orders(monkeypatch, spec, max_order) == [max_order]
        assert self.reference_orders(monkeypatch, spec, max_order, given=True) == []
        verdict = optimal_parameters(expand_mean(spec, max_order), max_order, spec=spec)
        assert verdict.relation == "stabilizable" and verdict.candidates == ()
        assert verdict.notes == (
            f"difference vanishes identically on the locus through order {max_order}",
        )

    def test_search_needs_order_three(self):
        m = expand_mean(M2, 6)
        for max_order in (0, 1, 2):
            with pytest.raises(ValueError, match="max_order >= 3"):
                optimal_parameters(m, max_order)

    def test_search_needs_the_expansion_through_max_order(self):
        with pytest.raises(ValueError, match="shorter than the requested search order"):
            optimal_parameters(expand_mean(M2, 6), 8)


class TestLeavingG:
    """The rule for a_2 = -1/2 against routes it does not share: if M first
    leaves G at n, by delta, the difference on the locus q = -p/2 vanishes
    below n and is the constant (1 - 2**-n)*delta at n."""

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(3, 14), even=st.booleans(), data=st.data())
    def test_first_surviving_column(self, order, even, data):
        n = data.draw(st.integers(3, 16))
        n += even and n % 2
        sign = data.draw(st.sampled_from([-1, 1]))
        delta = sign * data.draw(st.fractions(F(1, 12), 2, max_denominator=12))
        c = list(expand_power_mean(0, max(order, n)).coeffs)
        c[n] += delta
        c[n + 1 :] = [F(0) if even and k % 2 else data.draw(_SMALL) for k in range(n + 1, len(c))]
        mean = MeanExpansion(tuple(c))
        # the difference through min(n, order): zero, then the constant at n
        top = min(n, order)
        expected = [F(0)] * (top + 1)
        if n <= order:
            expected[n] = (1 - F(1, 2**n)) * delta
        polys = coefficient_polynomials(mean, first_order_locus(mean), 2, order)
        assert [polys[k] for k in range(2, top + 1)] == [UniPoly((e,)) for e in expected[2:]]
        # the search reads the same from its comparison with G
        verdict = optimal_parameters(mean, order)
        if n <= order:
            assert (verdict.fixed_leading_order, verdict.fixed_leading) == (n, expected[n])
        else:
            assert verdict.relation == "stabilizable"
        if order > 8:
            return
        # the double sums on independently expanded power means
        for _ in range(2):
            p = data.draw(st.fractions(-3, 3, max_denominator=6))
            diff = oracles.difference_by_double_sums(mean.coeffs, p, -p / 2, order)
            assert diff[: top + 1] == expected


class TestClosedColumns:
    """For a_1 = 0 and r = 2*a_2 + 1 != 0 the search takes its pivot from
    closed columns: t^3 is (7/8)*a_3 and, at a_3 = 0, t^4 is a quadratic in
    p.  Against the band route and the double-sum oracle."""

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(4, 14), even=st.booleans(), data=st.data())
    def test_pivot_columns_equal_the_band(self, order, even, data):
        a2 = data.draw(st.fractions(-3, 3, max_denominator=12).filter(lambda a: a != F(-1, 2)))
        a3 = F(0) if even else data.draw(st.sampled_from([F(0), F(1, 7)]) | _SMALL)
        tail = [F(0) if even and k % 2 else data.draw(_SMALL) for k in range(4, order + 1)]
        mean = MeanExpansion((F(1), F(0), a2, a3, *tail))
        band = coefficient_polynomials(mean, first_order_locus(mean), 3, 4)
        verdict = optimal_parameters(mean, order)
        if a3 != 0:
            # a constant pivot at t^3, with no root to isolate
            assert band[3].degree == 0
            assert (verdict.fixed_leading_order, verdict.fixed_leading) == (3, band[3](0))
        else:
            # the search reads the t^4 pivot's roots from w = -c4/r; the
            # band's roots in the oracle's closed form are the reference
            assert band[3].is_zero and band[4].degree == 2
            roots = [root_value(r) for r in oracles.isolate_real_roots_by_divisor_search(band[4])]
            assert sorted((c.p for c in verdict.candidates), key=float) == roots
            if not roots:
                sign = "candidate-sub" if band[4](0) > 0 else "candidate-super"
                assert (verdict.fixed_leading_order, verdict.relation) == (4, sign)

    #: Square factors past the prime-product gcd's primes (10**4), so that
    #: they stay in the radicand.
    LARGE_SQUARES = (10007**2, 99991**2, (9973 * 10007) ** 2)

    @settings(max_examples=120, deadline=None)
    @given(r=st.fractions(-4, 4, max_denominator=12).filter(bool), data=st.data())
    def test_pivot_pair_equals_the_isolated_roots(self, r, data):
        # The t^4 pivot (c4 + r*p**2)/128, solved as a polynomial by the
        # oracle's closed form, against the pair the search reads from w =
        # -c4/r.
        x = data.draw(st.fractions(F(1, 60), 60, max_denominator=60))
        w = data.draw(st.sampled_from([-x, F(0), x * x, x, x * self.LARGE_SQUARES[0],
                                       x * self.LARGE_SQUARES[1], x * self.LARGE_SQUARES[2]]))
        c4 = -w * r
        a4 = (c4 - 9 * r**3 + 15 * r**2 + 10 * r - 15) / 120
        # a5 = 1: both roots survive at t^5, so the candidates keep root order
        mean = MeanExpansion((F(1), F(0), (r - 1) / 2, F(0), a4, F(1)))
        verdict = optimal_parameters(mean, 5)
        pivot = UniPoly((c4 / 128, 0, r / 128))
        roots = [root_value(x) for x in oracles.isolate_real_roots_by_divisor_search(pivot)]
        candidates = verdict.candidates
        assert [c.p for c in candidates] == roots
        if w < 0:
            assert candidates == () and verdict.fixed_leading_order == 4
            return
        assert len(roots) == (1 if w == 0 else 2)
        for c in candidates:
            # q is the locus image of p, in the field of p
            assert c.q == verdict.locus.q_of(c.p) and type(c.q) is type(c.p)
        if isinstance(roots[0], QuadraticField):
            # -sqrt(w) and q there are the conjugates of sqrt(w) and q there
            (p1, q1), (p2, q2) = ((c.p, c.q) for c in candidates)
            assert p1.b < 0 < q1.b and q2.b < 0 < p2.b
            for a, b in ((p1, p2), (q1, q2)):
                assert a == QuadraticField(b.a, -b.b, b.s)



class TestIdentityPoints:
    """A mean that agrees with B_r, r != 0, through t^4 has the pivot roots
    p = r and p = -r, where R(B_p, B_r, B_q) = B_r.  If it first leaves B_r
    at n by delta, the candidates there read (n, (1 - 2**-n)*delta): from
    the closed columns at n = 5 and 6, else from one comparison with B_r =
    E_{2r,r}, with no band."""

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(4, 14), even=st.booleans(), data=st.data())
    def test_candidates_at_plus_and_minus_r(self, order, even, data):
        r = data.draw(st.fractions(-3, 3, max_denominator=8).filter(lambda x: x != 0))
        n = data.draw(st.integers(5, 16))
        n += even and n % 2
        sign = data.draw(st.sampled_from([-1, 1]))
        delta = sign * data.draw(st.fractions(F(1, 12), 2, max_denominator=12))
        c = list(expand_power_mean(r, max(order, n)).coeffs)
        c[n] += delta
        c[n + 1 :] = [F(0) if even and k % 2 else data.draw(_SMALL) for k in range(n + 1, len(c))]
        mean = MeanExpansion(tuple(c))
        expected = (n, (1 - F(1, 2**n)) * delta) if n <= order else (None, None)
        verdict = optimal_parameters(mean, order)
        candidates = verdict.candidates
        assert {(cand.p, cand.q) for cand in candidates} == {(r, r), (-r, 2 * r)}
        assert all((cand.achieved_order, cand.leading) == expected for cand in candidates)
        if n > order:
            assert verdict.relation == "stabilizable"
        if order > 8:
            return
        # the double sums on independently expanded power means
        for cand in candidates:
            diff = oracles.difference_by_double_sums(mean.coeffs, cand.p, cand.q, order)
            first = next((k for k, d in enumerate(diff) if d), None)
            assert (first, None if first is None else diff[first]) == expected


class TestIdentityPointsOfL:
    """L's pivot roots p = -1, 1 are its identity points, R(H, L, A) = L and
    R(A, L, G) = L: a mean that first leaves L at n >= 5 by delta reads
    (n, (1 - 2**-n)*delta) at both, from the closed columns at n = 5 and 6,
    else from one comparison with L = E_{1,0}."""

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(4, 12), data=st.data())
    def test_candidates_at_plus_and_minus_one(self, order, data):
        n = data.draw(st.integers(5, 14))
        sign = data.draw(st.sampled_from([-1, 1]))
        delta = sign * data.draw(st.fractions(F(1, 12), 2, max_denominator=12))
        c = list(expand_mean(ALIASES["L"], max(order, n)).coeffs)
        c[n] += delta
        c[n + 1 :] = [data.draw(_SMALL) for _ in range(n + 1, len(c))]
        mean = MeanExpansion(tuple(c))
        expected = (n, (1 - F(1, 2**n)) * delta) if n <= order else (None, None)
        verdict = optimal_parameters(mean, order)
        candidates = verdict.candidates
        assert {(cand.p, cand.q) for cand in candidates} == {(-1, 1), (1, 0)}
        assert all((cand.achieved_order, cand.leading) == expected for cand in candidates)
        # the difference expansion at each root
        for cand in candidates:
            diff = difference_expansion(mean, cand.p, cand.q, order)
            first = diff.first_nonzero
            assert (first, None if first is None else diff.coeffs[first]) == expected


def _shifted_a(order, a5):
    """A = B_1 with a_4 - 1/40 and a_5 + a5: the t^4 pivot (p**2 - 4)/128 has
    the roots p = -2, 2, which are not identity points of B_1."""
    c = list(expand_mean(ALIASES["A"], order).coeffs)
    c[4] -= F(1, 40)
    c[5] += a5
    return MeanExpansion(tuple(c))


class TestRationalCandidatesAgainstBands:
    """A rational pair that the closed columns do not settle is read from
    one comparison with its Stolarsky reference, at max_order, and no band
    opens for it; the band route of the oracle gives the same candidates
    and relation."""

    SPECS = [
        ALIASES["A"],
        ALIASES["H"],
        ALIASES["L"],
        LAlpha(F(1)),
        LAlpha(F(-1)),
        PowerMean(F(2)),
        PowerMean(F(1, 2)),
        PowerMean(F(-13, 6)),
        MuGenerated((1, 0, 0, 1)),
        MuGenerated((1, 0, 0, 0, 1)),
        MuGenerated((1, 0, 0, 0, 0, 0, 2)),
    ]
    # means without a spec, by label
    UNNAMED = {
        "stable(1/4)": lambda order: expand_stable(F(1, 4), order),
        "A-shifted": lambda order: _shifted_a(order, F(1, 7)),
        "A-shifted-even": lambda order: _shifted_a(order, 0),
    }

    @staticmethod
    def expected_relation(spec, candidates):
        if any(c.achieved_order is None for c in candidates):
            return "stabilizable"
        best = max(c.achieved_order for c in candidates)
        top = next(c for c in candidates if c.achieved_order == best)
        probe = [(top.p, top.q)]
        return solver._sampled_relation(spec, 1 if top.leading > 0 else -1, probe)[0]

    @pytest.mark.parametrize("max_order", [12, 16, 24])
    @pytest.mark.parametrize(
        "spec", SPECS + list(UNNAMED), ids=lambda s: s if isinstance(s, str) else describe_spec(s)
    )
    def test_direct_route_matches_bands(self, monkeypatch, spec, max_order):
        if isinstance(spec, str):
            mean, spec = self.UNNAMED[spec](max_order), None
        else:
            mean = expand_mean(spec, max_order)
        expected = oracles.candidates_by_bands(mean, max_order)
        assert any(isinstance(c.p, F) for c in expected)
        # the search opens no band
        verdict = optimal_parameters(mean, max_order, spec=spec)
        assert sorted(verdict.candidates, key=lambda c: float(c.p)) == sorted(
            expected, key=lambda c: float(c.p)
        )
        assert verdict.relation == self.expected_relation(spec, expected)

    @pytest.mark.parametrize(
        "odd, order, leading",
        [((1, 0, 0, 1), 6, -63), ((1, 0, 0, 0, 1), 8, -255), ((1, 0, 0, 0, 0, 0, 2), 12, -8190)],
    )
    def test_mu_generated_survivors(self, odd, order, leading):
        spec = MuGenerated(odd)
        verdict = optimal_parameters(expand_mean(spec, 12), 12, spec=spec)
        assert verdict.candidates
        for cand in verdict.candidates:
            assert isinstance(cand.p, F)
            assert cand.achieved_order == order
            assert cand.leading == leading

    @pytest.mark.parametrize(
        "a5, order, leading", [(F(1, 7), 5, F(31, 224)), (0, 6, F(63, 5120))], ids=["a5", "even"]
    )
    def test_mixed_mean_at_a_rational_root_off_the_identity_points(
        self, monkeypatch, a5, order, leading
    ):
        verdict = optimal_parameters(_shifted_a(12, a5), 12)
        assert verdict.relation == "candidate-sub"
        candidates = [(c.p, c.q, c.achieved_order, c.leading)
                      for c in verdict.candidates]
        assert candidates == [(-2, F(5, 2), order, leading), (2, F(1, 2), order, leading)]

    @pytest.mark.parametrize("moved", [4, 6])
    @pytest.mark.parametrize("kind", ["rational", "surd"])
    def test_survivor_in_a_closed_column_raises(self, monkeypatch, kind, moved):
        real = solver._stolarsky_form

        def planted(r, s, order):
            nums, den = real(r, s, order)
            # E's e_4 or e_6 moved by 1, so that M leaves E's form in a
            # closed column, t^4 or t^6, though not E's closed head
            return [c + den * (n == moved) for n, c in enumerate(nums)], den

        monkeypatch.setattr(solver, "_stolarsky_form", planted)
        # the constructed means' rational roots p = -2, 2 and surd roots
        # p = -+sqrt(2) read neither t^5 nor t^6
        mean = _c6_zero(16, F(4) if kind == "rational" else F(2))
        with pytest.raises(ArithmeticError, match="in a closed column"):
            optimal_parameters(mean, 16)


def _pivot_with_roots(r, p_squared, order, tail):
    """A mean with a_1 = a_3 = 0 and r = 2*a_2 + 1 whose t^4 pivot
    (c_4 + r*p**2)/128 vanishes at p**2 = p_squared:
    B_r with a_4 moved by r*(r**2 - p_squared)/120 and the given coefficients
    from t^5 on, None where B_r's stays."""
    c = list(expand_power_mean(r, order).coeffs)
    c[4] += r * (r * r - p_squared) / 120
    c[5:] = [b if t is None else t for b, t in zip(c[5:], tail)]
    return MeanExpansion(tuple(c))


def _c6_zero(order, p_squared=F(2), r=F(1, 3)):
    """An even mean whose pivot roots p = +-sqrt(p_squared) read neither t^5
    nor t^6: B_r with the pivot moved to those roots, and a_6 moved so that
    the t^6 column vanishes modulo the pivot; a_6 enters that column with the
    slope 63/64 at every p."""
    top = max(order, 6)
    mean = _pivot_with_roots(r, p_squared, top, [None] * (top - 4))
    polys = coefficient_polynomials(mean, first_order_locus(mean), 4, 6)
    c = list(mean.coeffs)
    c[6] -= (polys[6] % polys[4]).coefficient(0) * F(64, 63)
    return MeanExpansion(tuple(c[: order + 1]))


class TestCandidateRootKinds:
    """The pivot is a constant or the t^4 quadratic in p, so every candidate
    the search returns has p and q rational or quadratic surds, whichever
    roots the quadratic has: surds, rationals other than +-r, the double
    root 0 or the identity points +-r.  The two roots are one pair +-sqrt(w),
    and they share the survivor at every order: the closed columns' through
    t^6, and past it where M leaves the pair's Stolarsky reference."""

    ROOTS = {
        "surd": lambda r, d: d.draw(st.sampled_from([2, 3, 5, 6, 7, 10])) * d.draw(_NONZERO) ** 2,
        "rational": lambda r, d: d.draw(_NONZERO.filter(lambda s: s not in (r, -r))) ** 2,
        "zero": lambda r, d: F(0),
        "identity": lambda r, d: r * r,
    }
    KINDS = {"surd": ["quadratic-surd"] * 2, "zero": ["exact-rational"]}

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(4, 12), even=st.booleans(), kind=st.sampled_from(sorted(ROOTS)),
           data=st.data())
    def test_candidates_are_rational_or_surd(self, order, even, kind, data):
        r = data.draw(st.fractions(-3, 3, max_denominator=8).filter(lambda x: x != 0))
        p_squared = self.ROOTS[kind](r, data)
        tail = [F(0) if even and k % 2 else data.draw(st.none() | _SMALL)
                for k in range(5, order + 1)]
        verdict = optimal_parameters(_pivot_with_roots(r, p_squared, order, tail), order)
        candidates = verdict.candidates
        assert [kind_of(c.p) for c in candidates] == self.KINDS.get(kind, ["exact-rational"] * 2)
        for c in candidates:
            assert {kind_of(c.p), kind_of(c.q)} <= {"exact-rational", "quadratic-surd"}
        if kind != "surd":
            assert {c.p**2 for c in candidates} == {p_squared}
        assert len({(c.achieved_order, c.leading) for c in candidates}) == 1


class TestSurdLeadingIsRational:
    """A surd candidate's first surviving coefficient is rational and the
    same at both conjugate roots.  On the t^4 pivot (r/128)*(p**2 - S) the
    column t^5 is the constant (31/32)*a_5 and the t^6 column's remainder
    modulo the pivot is a constant.  Past t^6 it is proven too (see
    optimal_parameters): the survivor is where M leaves the pair's
    Stolarsky mean, whose coefficients are rational at a pair of conjugates.
    In the band's terms the first later column whose remainder is not zero
    has a constant remainder, and the next one's is linear."""

    SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17]

    def near_power(self, seed):
        # B_r with a surd pivot and random shifts from t^5 on: odd ones in
        # three means of ten
        rng = random.Random(seed)
        order, mixed = rng.randint(8, 12), rng.random() < 0.3
        r = F(rng.choice([-1, 1]) * rng.randint(1, 24), rng.randint(1, 8))
        p_squared = rng.choice(self.SQUAREFREE) * F(rng.randint(1, 5), rng.randint(1, 4)) ** 2
        tail = [F(rng.randint(-12, 12), rng.randint(1, 12))
                if (k % 2 == 0 or mixed) and rng.random() < 0.5 else None
                for k in range(5, order + 1)]
        return _pivot_with_roots(r, p_squared, order, tail), order

    def test_seeded_near_power_means(self):
        orders = []
        for seed in range(400):
            mean, order = self.near_power(seed)
            candidates = optimal_parameters(mean, order).candidates
            assert [kind_of(c.p) for c in candidates] == ["quadratic-surd"] * 2, seed
            first, second = candidates
            assert type(first.leading) is F and first.leading == second.leading, seed
            assert first.achieved_order == second.achieved_order, seed
            if first.achieved_order == 5:
                assert first.leading == F(31, 32) * mean.coeffs[5], seed
            orders.append(first.achieved_order)
        assert sorted(set(orders)) == [5, 6]

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("survivor", [6, 8, 10])
    def test_constructed_later_survivors(self, seed, survivor):
        # An even mean whose remainders modulo the pivot vanish below the
        # survivor: a_k moved by delta moves column k by (1 - 2**-k)*delta.
        rng = random.Random(seed)
        tail = [None if k % 2 else F(rng.randint(-12, 12), rng.randint(1, 12)) for k in range(5, 13)]
        mean = _pivot_with_roots(F(1, 3), F(2), 12, tail)
        locus = first_order_locus(mean)
        for k in range(6, survivor, 2):
            polys = coefficient_polynomials(mean, locus, 4, 12)
            rest = polys[k] % polys[4]
            assert rest.degree == 0
            c = list(mean.coeffs)
            c[k] -= rest.coefficient(0) / (1 - F(1, 2**k))
            mean = MeanExpansion(tuple(c))
        polys = coefficient_polynomials(mean, locus, 4, 12)
        rests = [polys[k] % polys[4] for k in range(6, 13, 2)]
        # zero below the survivor, constant at it, linear past it
        assert [rest.degree for rest in rests] == (
            [-1] * ((survivor - 6) // 2) + [0] + [1] * ((12 - survivor) // 2))
        candidates = optimal_parameters(mean, 12).candidates
        assert [(kind_of(c.p), c.achieved_order, c.leading) for c in candidates] == [
            ("quadratic-surd", survivor, rests[survivor // 2 - 3].coefficient(0))
        ] * 2

    @pytest.mark.parametrize("seed", range(5))
    def test_t5_column(self, seed):
        rng = random.Random(seed)
        tail = [F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12)) for _ in range(5, 10)]
        mean = _pivot_with_roots(F(rng.randint(1, 9), 4), F(3), 9, tail)
        column = coefficient_polynomials(mean, first_order_locus(mean), 5, 9)[5]
        assert column == UniPoly((F(31, 32) * mean.coeffs[5],))
        candidates = optimal_parameters(mean, 9).candidates
        assert [(kind_of(c.p), c.achieved_order, c.leading) for c in candidates] == [
            ("quadratic-surd", 5, column.coefficient(0))
        ] * 2


class TestExpansionOverTheQuadraticField:
    """At a surd root p = (add + sign*sqrt(s))/div of the t^4 pivot P_4, the
    difference by the double sums over Q(sqrt(s)) reads every column: its
    t^k coefficient is the band's t^k polynomial reduced modulo P_4, c0 +
    c1*p, read as a + b*sqrt(s), and a Fraction exactly where c1 = 0.  The
    search's candidates equal those of the oracle's band route, on seeded
    near-power means and on means whose t^5 and t^6 columns vanish at the
    roots."""

    @staticmethod
    def c6_zero(seed):
        # _c6_zero at a seeded surd pair, r and order, with a_7.. shifted,
        # which leaves the columns through t^6 alone; odd shifts in three of ten
        rng = random.Random(seed)
        order, mixed = rng.randint(8, 12), rng.random() < 0.3
        r = F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
        p_squared = rng.choice(TestSurdLeadingIsRational.SQUAREFREE) * F(rng.randint(1, 4), rng.randint(1, 3)) ** 2
        c = list(_c6_zero(order, p_squared, r).coeffs)
        for k in range(7, order + 1):
            if (k % 2 == 0 or mixed) and rng.random() < 0.4:
                c[k] += F(rng.randint(-12, 12), rng.randint(1, 12))
        return MeanExpansion(tuple(c)), order

    @staticmethod
    def mean(index):
        # 24 near-power means, then 24 with c_6 = 0
        if index < 24:
            return TestSurdLeadingIsRational().near_power(index)
        return TestExpansionOverTheQuadraticField.c6_zero(index)

    @pytest.mark.parametrize("index", range(48))
    def test_expansion_equals_the_reduced_columns(self, index):
        mean, order = self.mean(index)
        locus = first_order_locus(mean)
        polys = coefficient_polynomials(mean, locus, 2, order)
        roots = oracles.isolate_real_roots_by_divisor_search(polys[4])
        assert [kind_of(root) for root in roots] == ["quadratic-surd"] * 2
        for root in roots:
            diff = oracles.difference_by_double_sums(mean.coeffs, root, locus.q_of(root), order)
            assert diff[:2] == [0, 0]
            for k in range(2, order + 1):
                rest = polys[k] % polys[4]
                assert diff[k] == rest(root), (index, k)
                assert type(diff[k]) is (F if rest.degree < 1 else QuadraticField)

    @pytest.mark.parametrize("index", range(48))
    def test_candidates_equal_the_bands(self, index):
        mean, order = self.mean(index)
        expected = oracles.candidates_by_bands(mean, order)
        candidates = optimal_parameters(mean, order).candidates
        assert [(c.p, c.q, c.achieved_order) for c in candidates] == [
            (c.p, c.q, c.achieved_order) for c in expected]
        for got, band in zip(candidates, expected):
            # the exact value, rational or in Q(sqrt(s))
            assert got.leading == band.leading and type(got.leading) is type(band.leading)


class TestStolarskyReference:
    """Past the closed columns both roots read where M leaves the Stolarsky
    mean of the pair (see optimal_parameters), one rational survivor for
    both: the candidates equal those of the oracle's band route, evaluated
    at each root, at every kind of pair (rational, surd, the identity points
    of B_r and the double root 0), with even tails and odd ones."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(TestCandidateRootKinds.ROOTS)), order=st.integers(7, 10),
           odd=st.booleans(), data=st.data())
    def test_candidates_equal_the_bands(self, kind, order, odd, data):
        r = data.draw(st.fractions(-3, 3, max_denominator=6).filter(bool))
        c = list(_c6_zero(order, TestCandidateRootKinds.ROOTS[kind](r, data), r).coeffs)
        for k in range(7, order + 1):
            if k % 2 == 0 or odd:
                c[k] += data.draw(st.just(F(0)) | _SMALL)
        mean = MeanExpansion(tuple(c))
        candidates = optimal_parameters(mean, order).candidates
        assert candidates == tuple(oracles.candidates_by_bands(mean, order))
        assert all(c.leading is None or type(c.leading) is F for c in candidates)



def _closed_head(rho, big_w):
    """The Stolarsky mean's e_2, e_4 and e_6 at rho = (x + y)/3 and W = (x -
    y)**2, as optimal_parameters derives them."""
    e2 = (rho - 1) / 2
    e4 = -(rho * big_w + 9 * rho**3 - 15 * rho**2 - 10 * rho + 15) / 120
    e6 = (rho * big_w**2 + 30 * rho**3 * big_w - 21 * rho**2 * big_w - 35 * rho * big_w
          + 81 * rho**5 - 189 * rho**4 - 210 * rho**3 + 525 * rho**2 + 133 * rho - 315) / 5040
    return e2, e4, e6


class TestStolarskyHead:
    """E_{x,y} through t^6 in closed form: e_1 = e_3 = e_5 = 0 and e_2, e_4,
    e_6 polynomials in rho = (x + y)/3 and W = (x - y)**2, against the
    catalog's form and the oracle's binomial series.  With them, the lemma
    at every rational point p of the locus, an identity point of E_p =
    E_{(3r+p)/2, (3r-p)/2}: the t^4 column there is (15/16)*(a_4 - e_4(r,
    p**2)), and a mean that leaves E_p at t^6 by delta has the difference
    (63/64)*delta there, as the search reads it (see optimal_parameters)."""

    RHO = st.fractions(-4, 4, max_denominator=12)
    SMALL = st.fractions(-2, 2, max_denominator=12)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["rational", "surd", "equal", "geometric"]), rho=RHO, data=st.data())
    def test_closed_head_equals_the_form(self, kind, rho, data):
        # W a rational square, a surd's square, 0 (E_{r,r}), or any of them
        # at rho = 0, where E = E_{x,-x} = G
        root = data.draw(st.fractions(F(1, 12), 6, max_denominator=12))
        surd = QuadraticField(F(0), root, F(data.draw(st.sampled_from([2, 3, 5, 6, 7, 10]))))
        s = {"rational": root, "surd": surd, "equal": F(0)}.get(kind)
        if s is None:
            rho, s = F(0), data.draw(st.sampled_from([F(0), root, surd]))
        x, y = (3 * rho + s) / 2, (3 * rho - s) / 2
        e2, e4, e6 = _closed_head(rho, s * s)
        head = (F(1), F(0), e2, F(0), e4, F(0), e6)
        assert _values(*catalog._stolarsky_form(x, y, 6)) == head
        assert oracles.stolarsky_by_binomials(x, y, 6) == head
        if rho == 0:
            assert (e4, e6) == (F(-1, 8), F(-1, 16))

    @settings(max_examples=60, deadline=None)
    @given(r=RHO, a4=SMALL, p=st.fractions(-6, 6, max_denominator=12))
    def test_t4_column_at_every_point_of_the_locus(self, r, a4, p):
        # the band's t^4 column at p, with a_3 = 0, is the lemma's
        mean = MeanExpansion((F(1), F(0), (r - 1) / 2, F(0), a4))
        column = coefficient_polynomials(mean, first_order_locus(mean), 4, 4)[4]
        assert column(p) == F(15, 16) * (a4 - _closed_head(r, p * p)[1])

    @settings(max_examples=40, deadline=None)
    @given(r=RHO, p=st.fractions(-4, 4, max_denominator=8), delta=SMALL, order=st.integers(6, 7))
    def test_leaving_the_reference_at_t6(self, r, p, delta, order):
        # E_p with a_6 moved by delta: the double sums at (p, q) on the
        # locus vanish below t^6 and are (63/64)*delta there, and the search
        # reads the same at the pair +-p, or on the whole locus at r = 0
        q = (3 * r - p) / 2
        coeffs = list(oracles.stolarsky_by_binomials((3 * r + p) / 2, q, order))
        coeffs[6] += delta
        diff = oracles.difference_by_double_sums(coeffs, p, q, order)
        assert diff[:7] == [0] * 6 + [F(63, 64) * delta]
        verdict = optimal_parameters(MeanExpansion(tuple(coeffs)), order)
        expected = (6, F(63, 64) * delta) if delta else (None, None)
        if r == 0:
            assert (verdict.fixed_leading_order, verdict.fixed_leading) == expected
        else:
            assert {c.p for c in verdict.candidates} == {p, -p}
            assert {(c.achieved_order, c.leading) for c in verdict.candidates} == {expected}

class TestClosedT5AndT6:
    """For a_1 = a_3 = 0 and r = 2*a_2 + 1 != 0, at both roots p = +-sqrt(w)
    of the t^4 pivot P_4, the t^5 column is (31/32)*a_5 and, at a_5 = 0, the
    t^6 column P_6 is the constant (63/64)*(a_6 - e_6(r, w)) modulo P_4, e_6
    that of the pair's Stolarsky mean (see optimal_parameters).  The search
    reads them with no band, no reference and no evaluation at a root:
    checked against the band route and against the double sums.  Where both
    vanish the search takes one Stolarsky reference for the pair, at
    max_order, and the survivor at t^8 is constant modulo P_4 too."""

    CLOSED = ("_stolarsky_form",)
    R = st.fractions(-3, 3, max_denominator=8).filter(lambda x: x != 0)

    @staticmethod
    def near_power(r, p_squared, order, even, data):
        # B_r with the pivot roots p**2 = p_squared, a_5 = 0 or drawn for a
        # mixed mean, and drawn coefficients from t^6 on
        a5 = F(0) if even else data.draw(st.just(F(0)) | _NONZERO)
        tail = [a5] + [F(0) if even and k % 2 else data.draw(_SMALL) for k in range(6, order + 1)]
        return _pivot_with_roots(r, p_squared, order, tail)

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(5, 14), even=st.booleans(), kind=st.sampled_from(["surd", "rational"]),
           data=st.data())
    def test_columns_equal_the_band(self, order, even, kind, data):
        r = data.draw(self.R)
        mean = self.near_power(r, TestCandidateRootKinds.ROOTS[kind](r, data), order, even, data)
        polys = coefficient_polynomials(mean, first_order_locus(mean), 4, min(order, 6))
        assert polys[5] == UniPoly((F(31, 32) * mean.coeffs[5],))
        if not polys[5].is_zero:
            expected = (5, polys[5].coefficient(0))
        elif order >= 6 and not (rest := polys[6] % polys[4]).is_zero:
            assert rest.degree == 0
            expected = (6, rest.coefficient(0))
        else:
            expected = None
        with pytest.MonkeyPatch.context() as mp:
            for name in self.CLOSED if expected else ():
                mp.setattr(solver, name, None)
            candidates = optimal_parameters(mean, order).candidates
        assert [kind_of(c.p) for c in candidates] == (
            ["quadratic-surd"] * 2 if kind == "surd" else ["exact-rational"] * 2)
        for c in candidates:
            if expected:
                assert (c.achieved_order, c.leading) == expected and type(c.leading) is F
            else:
                assert c.achieved_order is None or c.achieved_order > 6

    @pytest.mark.parametrize("max_order", [4, 5])
    @pytest.mark.parametrize("name", ["S3/7", "P", "A-shifted-even"])
    def test_nothing_survives_below_t6(self, name, max_order):
        # at max_order 4, or 5 with a_5 = 0, t^2, t^3, the pivot and t^5
        # vanish at both roots, surd or rational: no reference is built
        mean = {"S3/7": lambda: expand_mean(SAlpha(F(3, 7)), max_order),
                "P": lambda: expand_mean(ALIASES["P"], max_order),
                "A-shifted-even": lambda: _shifted_a(5, 0).truncated(max_order)}[name]()
        with pytest.MonkeyPatch.context() as mp:
            for route in self.CLOSED:
                mp.setattr(solver, route, None)
            verdict = optimal_parameters(mean, max_order)
        assert verdict.relation == "stabilizable"
        assert [c.achieved_order for c in verdict.candidates] == [None, None]
        # the double sums at each root vanish through max_order
        for c in verdict.candidates:
            assert not any(oracles.difference_by_double_sums(mean.coeffs, c.p, c.q, max_order))

    @settings(max_examples=30, deadline=None)
    @given(order=st.integers(6, 8), even=st.booleans(), data=st.data())
    def test_columns_equal_the_double_sums(self, order, even, data):
        r = data.draw(self.R)
        s = data.draw(_NONZERO.filter(lambda s: s not in (r, -r)))
        mean = self.near_power(r, s * s, order, even, data)
        expected = []
        for p in (-abs(s), abs(s)):
            diff = oracles.difference_by_double_sums(mean.coeffs, p, (3 * r - p) / 2, order)
            first = next((k for k, d in enumerate(diff) if d), None)
            expected.append((p, first, None if first is None else diff[first]))
        with pytest.MonkeyPatch.context() as mp:
            for name in self.CLOSED if expected[0][1] in (5, 6) else ():
                mp.setattr(solver, name, None)
            candidates = optimal_parameters(mean, order).candidates
        assert [(c.p, c.achieved_order, c.leading) for c in candidates] == expected

    @settings(max_examples=200, deadline=None)
    @given(r=R, w=st.fractions(0, 9, max_denominator=12), a6=st.fractions(-2, 2, max_denominator=12),
           on_e6=st.booleans())
    def test_integer_e6_column_equals_the_band(self, r, w, a6, on_e6):
        # the mean (1, 0, a_2, 0, a_4, 0, a_6) with a_4 from c_4 = -r*w, so
        # that p**2 = w at the pivot's roots, against the band's t^6 column
        # modulo the pivot; on_e6 moves a_6 to e_6(r, w), where that column,
        # (63/64)*(a_6 - e_6), vanishes
        assume(w != r * r)
        a2 = (r - 1) / 2
        a4 = (-r * w - 9 * r**3 + 15 * r**2 + 10 * r - 15) / 120

        def c6_of(a6):
            mean = MeanExpansion((F(1), F(0), a2, F(0), a4, F(0), a6))
            polys = coefficient_polynomials(mean, first_order_locus(mean), 4, 6)
            rest = polys[6] % polys[4]
            assert rest.degree < 1
            return mean, rest.coefficient(0)

        if on_e6:
            a6 = -c6_of(F(0))[1] * F(64, 63)
        mean, c6 = c6_of(a6)
        assert (c6 == 0) == on_e6
        assert c6 == F(63, 64) * (a6 - _closed_head(r, w)[2])
        with pytest.MonkeyPatch.context() as mp:
            for name in self.CLOSED if c6 else ():
                mp.setattr(solver, name, None)
            verdict = optimal_parameters(mean, 6)
        assert verdict.candidates
        for c in verdict.candidates:
            assert c.p * c.p == w
            # at a_6 = e_6 the roots' own expansions vanish through max_order 6
            assert (c.achieved_order, c.leading) == ((6, c6) if c6 else (None, None))

    def test_surd_roots_past_t6_take_one_reference(self, monkeypatch):
        # at c_6 = 0 the survivor at t^8 is constant modulo P_4: the same
        # rational at both conjugate roots, read from one comparison with
        # E_{(1+sqrt(2))/2, (1-sqrt(2))/2}
        mean = _c6_zero(16)
        polys = coefficient_polynomials(mean, first_order_locus(mean), 4, 8)
        rests = [polys[k] % polys[4] for k in (5, 6, 7, 8)]
        assert [rest.degree for rest in rests] == [-1, -1, -1, 0]
        orders = TestOrderBands.references(monkeypatch, mean, 16)[0]
        assert orders == [16]
        candidates = optimal_parameters(mean, 16).candidates
        assert [(kind_of(c.p), c.achieved_order, c.leading) for c in candidates] == [
            ("quadratic-surd", 8, rests[3].coefficient(0))
        ] * 2
        assert type(candidates[0].leading) is F

    def test_rational_roots_past_t6_take_one_reference(self, monkeypatch):
        # at c_6 = 0 the rational pair p = -+2 is read from one comparison
        # with E_{3/2,-1/2}, at max_order
        mean = _c6_zero(16, F(4))
        polys = coefficient_polynomials(mean, first_order_locus(mean), 4, 8)
        rest = polys[8] % polys[4]
        assert (polys[6] % polys[4]).is_zero and rest.degree == 0
        orders = TestOrderBands.references(monkeypatch, mean, 16)[0]
        assert orders == [16]
        candidates = optimal_parameters(mean, 16).candidates
        assert [(c.p, c.achieved_order, c.leading) for c in candidates] == [
            (-2, 8, rest.coefficient(0)), (2, 8, rest.coefficient(0))
        ]

    def test_closed_t6_agrees_at_both_roots(self, monkeypatch):
        # M2's candidates p = -+sqrt(17) both survive at t^6 with -11/180,
        # read in closed form with no reference
        monkeypatch.setattr(solver, "_stolarsky_form", None)
        verdict = optimal_parameters(expand_mean(M2, 8), 8)
        assert verdict.relation == "candidate-super" and verdict.notes == ()
        assert [(float(c.p) > 0, c.achieved_order, c.leading) for c in verdict.candidates] == [
            (positive, 6, F(-11, 180)) for positive in (False, True)
        ]


_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _solve_pool_specs() -> dict:
    """The means of the solve workloads' golden jobs (solve-early's L, S and
    mixed strata and solve-deep), with A, G, H, L, P, T, M1-M5, B_{-13/6} and
    M_{1/3,3/2}, by name."""
    texts = [(name, {}) for name in ("A", "G", "H", "L", "P", "T", "M1", "M2", "M3", "M4", "M5",
                                     "powermean:-13/6", "malphar:1/3,3/2")]
    for workload in ("solve-deep", "solve-early"):
        for job in json.loads((_GOLDEN / f"{workload}.json").read_text(encoding="utf-8")):
            args = cli._parse(job.split())
            texts.append((args.mean, cli._mean_options(args)))
    specs = (cli.parse_mean_spec(text, options) for text, options in texts)
    return {describe_spec(spec): spec for spec in specs}


_POOL_SPECS = _solve_pool_specs()


class TestClosedReach:
    """With a spec, the search needs a_1..a_6 only (CLOSED_ORDER): the closed
    columns read no further, and the route that does, the comparison with
    the pair's Stolarsky reference, expands the spec through max_order."""

    @pytest.mark.parametrize("name", sorted(_POOL_SPECS))
    def test_short_expansion_gives_the_full_verdict(self, name):
        spec = _POOL_SPECS[name]
        for n in range(3, 25):
            short = expand_mean(spec, min(n, solver.CLOSED_ORDER))
            assert optimal_parameters(short, n, spec=spec) == optimal_parameters(
                expand_mean(spec, n), n, spec=spec)

    def test_the_specs_reach_every_route(self, monkeypatch):
        # a_1, G's locus (r = 0), the identity pairs of B_r and of L, the
        # closed t^6 column, and the one reference of a constructed mean
        # whose t^5 and t^6 vanish at p = -+sqrt(2)
        references = []
        real = solver._stolarsky_form
        monkeypatch.setattr(solver, "_stolarsky_form",
                            lambda *args: references.append(args[2]) or real(*args))
        verdicts = {}
        for text in ("M1", "G", "A", "M2", "L"):
            spec = cli.parse_mean_spec(text, {})
            assert describe_spec(spec) in _POOL_SPECS
            verdicts[text] = optimal_parameters(expand_mean(spec, 6), 24, spec=spec)
        assert verdicts["M1"].fixed_leading_order == 1
        assert verdicts["G"].notes[0].startswith("difference vanishes identically on the locus")
        assert [c.achieved_order for c in verdicts["A"].candidates] == [None, None]
        assert [c.achieved_order for c in verdicts["M2"].candidates] == [6, 6]
        assert [(c.p, c.achieved_order) for c in verdicts["L"].candidates] == [
            (-1, None), (1, None)]
        assert references == []  # G, A and L are their own references: no form
        verdict = optimal_parameters(_c6_zero(24), 24)
        assert [kind_of(c.p) for c in verdict.candidates] == ["quadratic-surd"] * 2
        assert references == [24]

    def test_a_mean_past_its_expansion_comes_from_the_spec(self, monkeypatch):
        # mu = y + y**9/9! agrees with L through t^6 but is not L by the
        # table of coincidences, so leaving L = E_{1,0} at its identity
        # points p = -+1 reads M through max_order, from the spec past the
        # short expansion: the verdict of the full expansion with no spec,
        # and the candidates of the oracle's bands
        spec = MuGenerated((F(1), F(0), F(0), F(0), F(1, 362880)))
        assert coincident(spec) != ALIASES["L"]
        expanded, real = [], solver._mean_form
        monkeypatch.setattr(solver, "_mean_form", lambda *args: expanded.append(args) or real(*args))
        verdict = optimal_parameters(expand_mean(spec, 6), 16, spec=spec)
        assert expanded == [(spec, 16)]
        assert verdict.relation == "candidate-super"
        assert [(c.p, c.q, c.achieved_order, c.leading) for c in verdict.candidates] == [
            (-1, 1, 8, F(-17, 24192)), (1, 0, 8, F(-17, 24192))]
        assert list(verdict.candidates) == oracles.candidates_by_bands(expand_mean(spec, 16), 16)
        unspecified = optimal_parameters(expand_mean(spec, 16), 16)
        assert (unspecified.relation, unspecified.candidates) == (verdict.relation, verdict.candidates)

    @pytest.mark.parametrize("max_order", [7, 8, 9])
    def test_a_form_one_short_comes_from_the_spec(self, max_order):
        # the same mean just past the closed columns: a form through
        # max_order - 1 is read from the spec, as one through t^6 is
        spec = MuGenerated((F(1), F(0), F(0), F(0), F(1, 362880)))
        full = optimal_parameters(expand_mean(spec, max_order), max_order, spec=spec)
        for reach in (solver.CLOSED_ORDER, max_order - 1):
            assert solver._search(catalog._mean_form(spec, reach), max_order, spec) == full

    @pytest.mark.parametrize("max_order", range(3, 11))
    def test_a_shorter_mean_raises(self, max_order):
        reach = min(max_order, solver.CLOSED_ORDER)
        optimal_parameters(expand_mean(M2, reach), max_order, spec=M2)
        with pytest.raises(ValueError, match="shorter than the requested search order"):
            optimal_parameters(expand_mean(M2, reach - 1), max_order, spec=M2)


class TestProbesUntilOneDecides:
    """_sampled_relation evaluates its probes in order and stops at the first
    whose boundary difference supports the asymptotic sign; the relation and
    evidence are those of evaluating every probe up front."""

    @pytest.mark.parametrize("name", sorted(_POOL_SPECS))
    def test_lazy_equals_eager(self, name, monkeypatch):
        spec = _POOL_SPECS[name]
        a2 = expand_mean(spec, 2).coeffs[2]
        locus_probe = [(1, 3 * a2 + 1)]  # p = 1 on q = 3*a_2 + (3 - p)/2
        m_limit = boundary_limit(spec).value
        for probes in (solver._BOUNDARY_SAMPLES, locus_probe):
            # every probe's evidence up front, M's limit taken anew at each
            evidence = []
            for p, q in probes:
                try:
                    pair = [boundary_limit(x).value for x in (spec, (PowerMean(p), spec, PowerMean(q)))]
                    evidence.append(solver.BoundaryEvidence(*pair, "closed-form"))
                except ValueError:
                    evidence.append(solver.BoundaryEvidence(None, None, "unavailable"))
            signs = [e.difference_sign for e in evidence]
            for asym in (1, -1):
                # the first supporting probe, else the first conflicting one
                # ("neither"), else the first
                base = "candidate-sub" if asym > 0 else "candidate-super"
                expected = ((base, evidence[signs.index(asym)]) if asym in signs
                            else ("neither", evidence[signs.index(-asym)]) if -asym in signs
                            else (base, evidence[0]))
                calls, limits = [], []
                with monkeypatch.context() as mp:
                    real = solver._boundary_evidence
                    mp.setattr(solver, "_boundary_evidence",
                               lambda *args: calls.append(args) or real(*args))
                    real_limit = solver.boundary_limit
                    mp.setattr(solver, "boundary_limit",
                               lambda expr: limits.append(expr) or real_limit(expr))
                    assert solver._sampled_relation(spec, asym, probes) == expected
                reached = signs.index(asym) + 1 if asym in signs else len(probes)
                # M's own limit is taken once, and given to every probe
                assert limits == [spec]
                assert calls == [(spec, *probe, m_limit) for probe in probes[:reached]]

    @pytest.mark.parametrize("informative", [True, False], ids=["next-decides", "none-informative"])
    def test_an_unavailable_probe_is_skipped(self, monkeypatch, informative):
        # The first probe's triple overflows: its evidence is unavailable,
        # with no difference sign, so the next probe that supports the sign
        # decides.  With no informative probe after it (every later limit
        # M's own), the first probe's evidence is reported.
        probes, m_limit = solver._BOUNDARY_SAMPLES, boundary_limit(M2).value
        unavailable = solver.BoundaryEvidence(None, None, "unavailable")
        assert unavailable.difference_sign is None
        second = solver._boundary_evidence(M2, *probes[1], m_limit)
        asym = second.difference_sign
        assert asym in (1, -1)
        calls, real = [], solver._resultant_boundary_closed

        def first_overflows(*args):
            calls.append(args)
            if len(calls) == 1:
                raise OverflowError("math range error")
            return real(*args) if informative else m_limit

        monkeypatch.setattr(solver, "_resultant_boundary_closed", first_overflows)
        base = "candidate-sub" if asym > 0 else "candidate-super"
        relation = solver._sampled_relation(M2, asym, probes)
        assert relation == (base, second if informative else unavailable)
        assert len(calls) == (2 if informative else len(probes))


class TestClosedOuterStepInTheSolver:
    """A band sample expands B_q and applies B_p in closed form, and reads
    only B_q's expansion; the search's verdicts equal those with its
    Stolarsky reference taken from the binomial series of the oracle."""

    DEEP = [ALIASES[n] for n in ("A", "G", "H", "L")] + [
        LAlpha(F(a)) for a in ("1/2", "-1/2", "1", "-1")
    ] + [PowerMean(F(p)) for p in ("2", "-2", "3", "1/2", "-1/2", "1/3", "3/2", "-5/3", "7/4",
                                   "-13/6")]
    EARLY = [ALIASES[n] for n in ("HZ1/4", "P", "T")] + [
        M2, M4, M3, LAlpha(F(1, 3)), LAlpha(F(2, 5)), SAlpha(F(1, 3)), SAlpha(F(3, 7))
    ]
    #: p**2 at the pivot roots of the _c6_zero means, surds +-sqrt(2) and
    #: rationals +-2: neither t^5 nor t^6 reads them, so the pair takes its
    #: reference, as the power means above do and the others, which the
    #: closed columns settle, do not.
    C6_ZERO = [F(2), F(4)]

    @pytest.mark.parametrize("max_order", [12, 16, 24])
    @pytest.mark.parametrize(
        "spec", DEEP + EARLY + C6_ZERO,
        ids=lambda s: f"c6_zero({s})" if isinstance(s, F) else describe_spec(s),
    )
    def test_verdict_matches_the_horner_route(self, monkeypatch, spec, max_order):
        constructed = isinstance(spec, F)
        mean = _c6_zero(max_order, spec) if constructed else expand_mean(spec, max_order)
        closed = optimal_parameters(mean, max_order)
        calls = []

        def by_binomials(r, s, order):
            calls.append(order)
            return _integer_form(oracles.stolarsky_by_binomials(r, s, order), order)

        monkeypatch.setattr(solver, "_stolarsky_form", by_binomials)
        assert optimal_parameters(mean, max_order) == closed
        if constructed:
            assert calls == [max_order]  # one for the pair

    @pytest.mark.parametrize("reach", [3, 6, 12, 16])
    @pytest.mark.parametrize("spec", [M2, ALIASES["L"], M1], ids=describe_spec)
    def test_a_band_expands_only_b_q(self, monkeypatch, spec, reach):
        calls = []
        real = catalog._power_mean_form

        def counting(p, order):
            calls.append((p, order))
            return real(p, order)

        monkeypatch.setattr(solver, "_power_mean_form", counting)
        monkeypatch.setattr(catalog, "_power_mean_form", counting)
        mean = MeanExpansion((F(1), F(0)) + expand_mean(spec, reach).coeffs[2:])
        locus = first_order_locus(mean)
        coefficient_polynomials(mean, locus, 2, reach)
        x0 = -((reach + 2) // 2)
        assert calls == [(locus.q_of(F(x0 + i)), reach) for i in range(reach + 2)]

    @pytest.mark.parametrize("p", [F(0), F(1), F(-1), F(3), F(-13, 6), F(7, 4)], ids=str)
    def test_stability_of_a_power_mean_matches_the_horner_route(self, p):
        order = 16
        exp = expand_mean(PowerMean(p), order)
        horner = resultant_coeffs(exp.coeffs, exp.coeffs, exp.coeffs, order)
        assert horner == exp.coeffs
        assert is_stable(PowerMean(p), order).is_stable


class TestOptimalParameters:
    def test_l_alpha_third(self):
        a = F(1, 3)
        m = expand_mean(LAlpha(a), 8)
        v = optimal_parameters(m, 8, spec=LAlpha(a))
        assert v.relation == "candidate-super"
        assert v.locus.intercept == F(1, 2) - 2 * a**2
        expected_leading = -F(1, 720) * a**2 * (a**2 - 1) * (4 * a**2 - 1) ** 3
        for cand in v.candidates:
            assert isinstance(cand.p, QuadraticField)
            assert cand.p.radicand / cand.p.div**2 == F(209, 81)
            assert cand.achieved_order == 6
            assert cand.leading == expected_leading

    def test_s_alpha_third(self):
        a = F(1, 3)
        m = expand_mean(SAlpha(a), 8)
        v = optimal_parameters(m, 8, spec=SAlpha(a))
        assert v.relation == "candidate-sub"
        p_sq = (1 - 12 * a**2 + 112 * a**4 - 64 * a**6) / (1 + 4 * a**2)
        leading = F(1, 720) * a**2 * (1 + a**2) * (1 - 16 * a**2 + 16 * a**4) ** 2 / (
            1 + 4 * a**2
        )
        assert p_sq == F(701, 1053)
        for cand in v.candidates:
            assert cand.p.radicand / cand.p.div**2 == p_sq
            assert cand.achieved_order == 6
            assert cand.leading == leading

    def test_m2(self):
        m = expand_mean(M2, 8)
        v = optimal_parameters(m, 8, spec=M2)
        assert v.relation == "candidate-super"
        for cand in v.candidates:
            # q is a root of q^2 - 5q + 2
            q = cand.q
            assert (q.add, q.radicand, q.div) == (F(5), F(17), F(2))
            assert cand.achieved_order == 6
            assert cand.leading == F(-11, 180)

    def test_m4(self):
        m = expand_mean(M4, 8)
        v = optimal_parameters(m, 8, spec=M4)
        assert v.relation == "candidate-sub"
        for cand in v.candidates:
            # q is a root of q^2 - 3q - 3, i.e. (3 +- sqrt(21))/2
            q = cand.q
            assert (q.add, q.radicand, q.div) == (F(3), F(21), F(2))
            assert cand.achieved_order == 6
            # exact leading value 13/320, confirmed independently by direct
            # float evaluation of the difference at the optimal parameters
            assert cand.leading == F(13, 320)

    def test_m4_leading_against_direct_evaluation(self):
        import math

        q = (3 + math.sqrt(21)) / 2
        p = 3 - 2 * q
        pm = PowerMean(F(p).limit_denominator(10**12))
        qm = PowerMean(F(q).limit_denominator(10**12))
        x, t = 80.0, 1.0
        d = eval_mean(M4, x - t, x + t) - eval_resultant(pm, M4, qm, x - t, x + t)
        assert abs(d * x**5 - 13 / 320) < 0.002

    def test_geometric_mean_family(self):
        m = expand_mean(LAlpha(F(1, 2)), 12)
        v = optimal_parameters(m, 12, spec=LAlpha(F(1, 2)))
        assert v.relation == "stabilizable"
        # the whole locus q = -p/2 works
        assert v.locus.intercept == 0 and v.locus.slope == F(-1, 2)

    def test_geometric_family_is_exact(self):
        # R(B_p, G, B_{-p/2}) = G, spot-checked numerically
        g = PowerMean(F(0))
        val = eval_resultant(PowerMean(F(2)), g, PowerMean(F(-1)), 2.0, 8.0)
        assert abs(val - 4.0) < 1e-12

    def test_log_mean_points(self):
        m = expand_mean(SAlpha(F(0)), 12)
        v = optimal_parameters(m, 12, spec=SAlpha(F(0)))
        assert v.relation == "stabilizable"
        pairs = {
            (c.p, c.q)
            for c in v.candidates
            if isinstance(c.p, F) and c.achieved_order is None
        }
        assert pairs == {(F(1), F(0)), (F(-1), F(1))}

    def test_harmonic_mean_points(self):
        m = expand_mean(LAlpha(F(1)), 12)
        v = optimal_parameters(m, 12, spec=LAlpha(F(1)))
        assert v.relation == "stabilizable"
        pairs = {(c.p, c.q) for c in v.candidates}
        assert (F(1), F(-2)) in pairs

    def test_mixed_parity_verdicts(self):
        for spec, relation in [
            (M1, "neither"),
            (M5, "neither"),
            (MAlphaR(F(1, 2), F(1)), "candidate-super"),
            (MAlphaR(F(-1, 2), F(1)), "neither"),
        ]:
            m = expand_mean(spec, 6)
            v = optimal_parameters(m, 6, spec=spec)
            assert v.relation == relation, spec
            assert v.fixed_leading == m.coefficient(1) / 2

    def test_m3_is_sub_candidate(self):
        m = expand_mean(M3, 6)
        v = optimal_parameters(m, 6, spec=M3)
        assert v.relation == "candidate-sub"

    def test_rational_root_verdicts(self):
        v = optimal_parameters(expand_mean(ALIASES["L"], 64), 64)
        assert (v.relation, [c.p for c in v.candidates]) == ("stabilizable", [-1, 1])
        v = optimal_parameters(expand_mean(LAlpha(F(3, 10)), 16), 16)
        assert (v.relation, [c.achieved_order for c in v.candidates]) == ("candidate-super", [6, 6])
        v = optimal_parameters(_shifted_a(12, F(1, 7)), 12)
        assert [(x.achieved_order, x.leading) for x in v.candidates] == [(5, F(31, 224))] * 2

    def test_surd_root_survivor_past_t6(self):
        mean = TestVerdictsWithARouteRemoved.bumped(
            expand_power_mean(F(1, 3), 12), {4: F(-17, 3240), 6: F(-799, 174960)})
        v = optimal_parameters(mean, 12)
        assert [(kind_of(x.p), x.achieved_order, x.leading) for x in v.candidates] == [
            ("quadratic-surd", 8, F(2057969, 537477120))] * 2

    @pytest.mark.parametrize("max_order", [12, 16])
    @pytest.mark.parametrize(
        "spec",
        [ALIASES[n] for n in ("A", "H", "L", "P", "T")]
        + [M2, M4, LAlpha(F(3, 10)), SAlpha(F(1, 10)), PowerMean(F(-13, 6))],
        ids=describe_spec,
    )
    def test_each_q_is_the_locus_image_of_its_p(self, spec, max_order):
        # q is read in the field of p, Q or Q(sqrt(s)), with the same
        # canonical radicand as the root of the pivot
        v = optimal_parameters(expand_mean(spec, max_order), max_order, spec=spec)
        assert len(v.candidates) == 2
        for c in v.candidates:
            assert type(c.p) in (F, QuadraticField) and type(c.q) is type(c.p)
            assert c.q == v.locus.q_of(c.p)
            if isinstance(c.q, QuadraticField):
                assert c.q.s == c.p.s and c.q.div > 0
            assert float(c.q) == pytest.approx(
                float(v.locus.intercept) + float(v.locus.slope) * float(c.p), rel=1e-12)


def _bumped(mean: MeanExpansion, index: int) -> MeanExpansion:
    coeffs = list(mean.coeffs)
    coeffs[index] += 1
    return MeanExpansion(tuple(coeffs))


class TestBoundaryWithoutSpec:
    """Boundary evidence needs a mean spec; without one the verdict carries
    none, whichever path decided it."""

    @pytest.mark.parametrize(
        "mean, note",
        [
            (expand_mean(M1, 8), "does not depend on (p, q)"),
            (MeanExpansion((F(1), F(0), F(1, 6), F(1, 10)) + (F(0),) * 5), "constant in p"),
            (_bumped(expand_mean(M2, 8), 4), "no real zero"),
            (expand_mean(M2, 8), None),
            (expand_mean(LAlpha(F(1, 2)), 8), "vanishes identically"),
        ],
        ids=["parameter-free", "constant", "fixed-sign", "candidates", "stabilizable"],
    )
    def test_no_boundary_without_spec(self, mean, note):
        verdict = optimal_parameters(mean, 8)
        assert verdict.boundary is None
        if note is None:
            assert verdict.candidates and verdict.relation.startswith("candidate-")
        else:
            assert note in verdict.notes[0]

    def test_candidate_path_with_spec_has_evidence(self):
        verdict = optimal_parameters(expand_mean(M2, 8), 8, spec=M2)
        assert verdict.candidates
        assert verdict.boundary is not None
        assert verdict.boundary.label != "unavailable"

    def test_a_probe_past_the_sinh_range_has_evidence(self):
        # B_{1/1050}(0, 1) = 2**-1050, where L_1's sinh(ln(2**1050))
        # overflows and its log is taken: the evidence is that of L_1 = H
        evidence = [solver._boundary_evidence(spec, 1, F(1, 1050), boundary_limit(spec).value)
                    for spec in (LAlpha(F(1)), PowerMean(F(-1)))]
        assert evidence[0].label == "closed-form"
        assert evidence[0] == evidence[1]

    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_a_triple_without_a_limit_is_unavailable(self, monkeypatch, error):
        # boundary_limit turns both into ValueError; the solver, which takes
        # the triple's closed form directly, catches both
        def failing(*args):
            raise error("math range error")

        monkeypatch.setattr(solver, "_resultant_boundary_closed", failing)
        evidence = solver._boundary_evidence(M2, 1, 1, boundary_limit(M2).value)
        assert evidence == solver.BoundaryEvidence(None, None, "unavailable")


class TestMuBoundaryEvidence:
    """A mu-generated mean carries closed-form boundary evidence when mu has
    no positive root, and "unavailable" when it has one."""

    @pytest.mark.parametrize("odd, label", [((1, -1), "unavailable"), ((1, F(1, 6)), "closed-form")])
    def test_evidence_label(self, odd, label):
        spec = MuGenerated(odd)
        verdict = optimal_parameters(expand_mean(spec, 12), 12, spec=spec)
        assert verdict.relation == "candidate-sub"
        assert verdict.boundary.label == label

    @pytest.mark.parametrize(
        "odd", [(1, 0, 0, 1), (1, F(1, 6)), (1, -1), (1, F(1, 6), F(-2, 5), 3)]
    )
    def test_mu_roots_are_isolated_once_per_spec(self, monkeypatch, odd):
        c = MuGenerated(odd).odd_coeffs
        mu = UniPoly(tuple(c[n // 2] if n % 2 else 0 for n in range(2 * len(c))))
        isolated = []
        real = polynomials.isolate_real_roots

        def counting(f):
            if f == mu:
                isolated.append(f)
            return real(f)

        for module in (polynomials, catalog, numeric, solver):
            if hasattr(module, "isolate_real_roots"):
                monkeypatch.setattr(module, "isolate_real_roots", counting)
        spec = MuGenerated(odd)
        optimal_parameters(expand_mean(spec, 12), 12, spec=spec)
        assert len(isolated) <= 1


class TestSignCoherence:
    def test_asymptotic_sign_matches_numeric_difference(self):
        rng = random.Random(71)
        specs = [
            LAlpha(F(1, 3)),
            SAlpha(F(1, 2)),
            SAlpha(F(0)),
            M2,
            M4,
            PowerMean(F(3)),
        ]
        x, t = 1.0e4, 1.0
        checked = 0
        for spec in specs:
            m = expand_mean(spec, 6)
            for _ in range(20):
                p = F(rng.randint(-4, 4), rng.randint(1, 3))
                q = F(rng.randint(-4, 4), rng.randint(1, 3))
                diff = difference_expansion(m, p, q, 6)
                if diff.first_nonzero is None or diff.first_nonzero > 2:
                    continue  # numerically invisible at double precision
                pm, qm = PowerMean(p), PowerMean(q)
                numeric = eval_mean(spec, x - t, x + t) - eval_resultant(
                    pm, spec, qm, x - t, x + t
                )
                assert (numeric > 0) == (diff.coeffs[diff.first_nonzero] > 0), (spec, p, q)
                checked += 1
        assert checked > 60


def _even_specs() -> list:
    """The benchmark's even stable pool and 35 random L_alpha and S_alpha."""
    specs = [LAlpha(F(2, 5)), LAlpha(F(1, 2)), LAlpha(F(3, 4)), SAlpha(F(3, 7)),
             SAlpha(F(5, 6)), PowerMean(F(5, 3)), PowerMean(F(-1, 3)), M2, M4]
    rng = random.Random(2207)
    while len(specs) < 44:
        d = rng.randint(1, 40)
        spec = rng.choice((LAlpha, SAlpha))(F(rng.randint(-d, d), d))
        if spec not in specs:
            specs.append(spec)
    return specs


_EVEN_SPECS = _even_specs()


class TestStability:
    def test_power_means_stable(self):
        rng = random.Random(73)
        for _ in range(10):
            p = F(rng.randint(-9, 9), rng.randint(1, 5))
            assert is_stable(PowerMean(p), 16).is_stable

    def test_l_alpha_stable_cases(self):
        for a in (F(1, 2), F(-1, 2), F(1), F(-1)):
            assert is_stable(LAlpha(a), 16).is_stable

    def test_rejections(self):
        for spec in [
            SAlpha(F(1, 4)),
            SAlpha(F(1, 2)),
            SAlpha(F(1)),
            M1,
            M2,
            M4,
            M5,
            MAlphaR(F(1, 2), F(1)),
        ]:
            report = is_stable(spec, 8)
            assert not report.is_stable
            assert report.defect != 0

    def test_s1_defect_location(self):
        report = is_stable(SAlpha(F(1)), 8)
        assert report.first_mismatch == 4

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            is_stable(M2, 2)

    @pytest.mark.parametrize("order", [4, 6, 8, 16, 33])
    @pytest.mark.parametrize("spec", _EVEN_SPECS, ids=describe_spec)
    def test_even_mean_against_the_power_mean_of_its_a2(self, spec, order):
        # B = B_{2 a_2 + 1} is the even fixed point of R(M, M, M), and the top
        # coefficient c_k moves r_k with slope 1/2 + 2**(1-k): the first defect
        # is where M leaves B, scaled by 1 - slope.
        m = expand_mean(spec, order).coeffs
        b = expand_power_mean(2 * m[2] + 1, order).coeffs
        k = next((n for n in range(order + 1) if m[n] != b[n]), None)
        report = is_stable(spec, order)
        assert report.is_stable == (k is None)
        if k is not None:
            assert report.first_mismatch == k
            assert report.defect == (F(1, 2) - F(2, 2**k)) * (m[k] - b[k])


_PROBE_SPECS = (
    [ALIASES[name] for name in ("A", "G", "H", "L", "P", "T", "HZ1/4")]
    + [M1, M2, M3, M4, M5]
    + [family(F(a)) for family in (LAlpha, SAlpha) for a in ("1", "-1", "1/3", "-2/3")]
    + [MAlphaR(F(a), F(r)) for a in ("1", "-1", "1/3", "-2/3") for r in ("1/2", "2")]
    + [PowerMean(F(p)) for p in ("0", "5/3", "-1/3", "1/2", "3", "-2", "7/3", "1/5",
                                 "-5/4", "9/4", "2")]
)


class TestStabilityProbe:
    """is_stable compares through the first reach, and through the order
    only when nothing differs there."""

    @staticmethod
    def recorded_orders(monkeypatch):
        orders = []
        real = solver._mean_form

        def recording(spec, order):
            orders.append(order)
            return real(spec, order)

        monkeypatch.setattr(solver, "_mean_form", recording)
        return orders

    @pytest.mark.parametrize("spec, first", [(M2, 4), (M5, 1), (MAlphaR(F(1), F(2)), 2)],
                             ids=["M2", "M5", "M_1,2"])
    def test_a_defect_in_the_probe_stops_there(self, monkeypatch, spec, first):
        orders = self.recorded_orders(monkeypatch)
        report = is_stable(spec, 64)
        assert orders == [6]
        assert (report.order, report.is_stable, report.first_mismatch) == (64, False, first)

    @pytest.mark.parametrize("spec", [PowerMean(F(0)), PowerMean(F(5, 3))], ids=describe_spec)
    def test_a_stable_mean_is_checked_again_through_the_order(self, monkeypatch, spec):
        orders = self.recorded_orders(monkeypatch)
        report = is_stable(spec, 16)
        assert orders == [6, 16]
        assert (report.order, report.is_stable, report.first_mismatch) == (16, True, None)

    @pytest.mark.parametrize("order", [4, 5, 6])
    @pytest.mark.parametrize("spec", [M2, M5, PowerMean(F(0))], ids=describe_spec)
    def test_an_order_within_the_probe_is_one_comparison(self, monkeypatch, spec, order):
        orders = self.recorded_orders(monkeypatch)
        is_stable(spec, order)
        assert orders == [order]

    def test_a_first_defect_past_the_probe_is_found(self, monkeypatch):
        # M2 becomes the power mean of its a_2 with c_8 moved by bump, which
        # moves the defect at 8 by (1/2 - 2**(-7)) * bump.
        real = solver._mean_form
        planted = F(3, 7)
        bump = planted / (F(1, 2) - F(2, 2**8))
        p = 2 * expand_mean(M2, 2).coefficient(2) + 1

        def planted_at_eight(spec, order):
            if spec != M2:
                return real(spec, order)
            coeffs = list(expand_power_mean(p, order).coeffs)
            if order >= 8:
                coeffs[8] += bump
            return _integer_form(coeffs, order)

        monkeypatch.setattr(solver, "_mean_form", planted_at_eight)
        report = is_stable(M2, 16)
        assert (report.order, report.is_stable, report.first_mismatch) == (16, False, 8)
        assert report.defect == planted
        assert is_stable(M2, 7).is_stable

    @pytest.mark.parametrize("order", [4, 5, 6, 7, 16, 33])
    @pytest.mark.parametrize("spec", _PROBE_SPECS, ids=describe_spec)
    def test_the_first_defect_is_that_of_the_full_order(self, spec, order):
        defects = oracles.stability_defects_by_resultant(spec, order)
        first = next((n for n, d in enumerate(defects) if d != 0), None)
        expected = (first is None, first, None if first is None else defects[first])
        report = is_stable(spec, order)
        assert (report.is_stable, report.first_mismatch, report.defect) == expected
        if first is not None:
            assert type(report.defect) is F

    @pytest.mark.parametrize("order", [4, 5, 6, 7, 16, 33])
    @pytest.mark.parametrize("spec", _PROBE_SPECS, ids=describe_spec)
    def test_defects_equal_the_mean_map_route(self, spec, order):
        # The defect form at the full order, past the probe's reach: it agrees
        # with M - R(M, M, M) through the first nonzero coefficient.
        defects = _values(*solver._defect_form(solver._mean_form(spec, order)))
        expected = oracles.stability_defects_by_resultant(spec, order)
        first = next((n for n, d in enumerate(expected) if d), order)
        assert len(defects) == len(expected) == order + 1
        assert defects[: first + 1] == tuple(expected[: first + 1])
        assert {type(d) for d in defects} == {F}

    @pytest.mark.parametrize("spec", _PROBE_SPECS, ids=describe_spec)
    def test_no_resultant_is_computed(self, monkeypatch, spec):
        # Truncated series are exact through their order, so the defects
        # through k are the first k + 1 of those through 33.
        defects = oracles.stability_defects_by_resultant(spec, 33)
        first = next((n for n, d in enumerate(defects) if d != 0), None)

        def refused(*args):
            raise AssertionError("a stability check computed a resultant")

        monkeypatch.setattr(solver, "_resultant", refused)
        for order in range(4, 34):
            report = is_stable(spec, order)
            if first is None or first > order:
                assert (report.is_stable, report.first_mismatch, report.defect) == (True, None, None)
            else:
                assert (report.is_stable, report.first_mismatch) == (False, first)
                assert report.defect == defects[first]

    @pytest.mark.parametrize("family, stable", [(LAlpha, [F(-1), F(-1, 2), F(1, 2), F(1)]),
                                                (SAlpha, [])], ids=["L", "S"])
    def test_no_resultant_is_computed_by_the_scan(self, monkeypatch, family, stable):
        def refused(*args):
            raise AssertionError("the stability scan computed a resultant")

        monkeypatch.setattr(solver, "_resultant", refused)
        roots = stability_parameter_scan(family.__name__, 24)
        assert [r.value for r in roots] == stable
        for alpha in stable:
            assert not any(oracles.stability_defects_by_resultant(family(alpha), 24))


_C1_OFF = st.fractions(-3, 3, max_denominator=9).filter(lambda c: c not in (0, 1, -1))
_SMALL = st.fractions(-2, 2, max_denominator=12)
_NONZERO = _SMALL.filter(bool)


class TestDefectForm:
    """The rule of is_stable against R(M, M, M) by the double sums, on
    arbitrary sequences in each of its three cases: the defect form agrees
    with M - R(M, M, M) through the first nonzero coefficient."""

    @staticmethod
    def check(c: list) -> None:
        order = len(c) - 1
        r = oracles.resultant_by_double_sums(c, c, c, order)
        expected = [a - b for a, b in zip(c, r)]
        first = next((n for n, d in enumerate(expected) if d), order)
        defects = _values(*solver._defect_form(_integer_form(c, order)))
        assert defects[: first + 1] == tuple(expected[: first + 1])

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(4, 10), data=st.data())
    def test_c1_zero_leaving_the_power_mean(self, order, data):
        a2 = data.draw(_SMALL)
        c = list(expand_power_mean(2 * a2 + 1, order).coeffs)
        n = data.draw(st.integers(3, order))
        c[n:] = [b + data.draw(_SMALL) for b in c[n:]]
        self.check(c)

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(4, 10), c1=st.sampled_from([F(1), F(-1)]), data=st.data())
    def test_c1_one_leaving_the_max_or_min(self, order, c1, data):
        n = data.draw(st.integers(2, order + 1))
        c = [F(1), c1] + [F(0)] * (n - 2) + [data.draw(_SMALL) for _ in range(n, order + 1)]
        self.check(c)

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(4, 10), c1=_C1_OFF, data=st.data())
    def test_c1_off_the_stable_values(self, order, c1, data):
        c = [F(1), c1] + [data.draw(_SMALL) for _ in range(2, order + 1)]
        self.check(c)


class TestParameterScan:
    def test_l_family(self):
        roots = stability_parameter_scan("LAlpha", order=16)
        assert [r.value for r in roots] == [F(-1), F(-1, 2), F(1, 2), F(1)]

    def test_s_family_empty(self):
        assert stability_parameter_scan("SAlpha", order=16) == []

    def test_candidate_reverified_at_higher_order(self):
        roots = stability_parameter_scan("LAlpha", order=20)
        assert F(1, 2) in {r.value for r in roots}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            stability_parameter_scan("XAlpha", 8)

    @staticmethod
    def band_of_scan(monkeypatch, family):
        """The (low, high) of the band the scan reads and its columns; the
        scan stops there."""

        class Read(Exception):
            pass

        real = solver._band

        def reading(sample, low, high):
            raise Read((low, high), real(sample, low, high))

        monkeypatch.setattr(solver, "_band", reading)
        with pytest.raises(Read) as read:
            stability_parameter_scan(family, 16)
        return read.value.args

    @staticmethod
    def bump_the_forms(monkeypatch, bump):
        """Adds bump(beta) to a_4 of every form the scan samples; a_4 enters
        the t^4 defect with slope 3/8."""
        real = solver._cosh_mean_form

        def bumped(beta, invert, order):
            values = list(_values(*real(beta, invert, order)))
            values[4] += F(8, 3) * bump(beta)
            return _integer_form(values, order)

        monkeypatch.setattr(solver, "_cosh_mean_form", bumped)

    @pytest.mark.parametrize("index", [4])
    @pytest.mark.parametrize("family", [LAlpha, SAlpha], ids=["L", "S"])
    def test_defect_polynomial_matches_lagrange_oracle(self, monkeypatch, family, index):
        expected = oracles.defect_polynomial_by_lagrange(family, index)
        assert self.band_of_scan(monkeypatch, family.__name__) == ((index, index), {index: expected})

    @pytest.mark.parametrize(
        "family, expected",
        [("L", (F(-1, 1080), F(-1, 72), F(4, 45), F(-2, 27))),
         ("S", (F(-1, 1080), F(1, 72), F(-1, 9), F(2, 27)))],
    )
    def test_defect_is_the_slope_formula(self, monkeypatch, family, expected):
        # (3/8)(a_4 - a_2(1 + a_2)(1 - 4 a_2)/6), cubic in beta, at every sample
        _, polys = self.band_of_scan(monkeypatch, family)
        assert polys[4] == UniPoly(expected)
        for beta in range(-3, 3):
            a = _values(*catalog._cosh_mean_form(F(beta), family == "S", 4))
            assert polys[4](beta) == F(3, 8) * (a[4] - a[2] * (1 + a[2]) * (1 - 4 * a[2]) / 6)

    @pytest.mark.parametrize("power, caught", [(3, False), (4, True)])
    def test_degree_bound_three_in_beta(self, monkeypatch, power, caught):
        # beta**3 is the highest power the scan reads; beta**4 must fail.
        extra = F(3, 7)
        self.bump_the_forms(monkeypatch, lambda beta: extra * beta**power)
        if caught:
            with pytest.raises(ArithmeticError, match="degree bound violated"):
                stability_parameter_scan("L", 16)
        else:
            expected = oracles.defect_polynomial_by_lagrange(LAlpha, 4)
            bump = UniPoly((0,) * power + (extra,))
            assert self.band_of_scan(monkeypatch, "L")[1] == {4: expected + bump}

    @pytest.mark.parametrize("beta", [-3, 0, 2])
    def test_a_sample_off_the_polynomial_is_caught(self, monkeypatch, beta):
        self.bump_the_forms(monkeypatch, lambda b: F(1, 10**9) if b == beta else 0)
        with pytest.raises(ArithmeticError, match="degree bound violated"):
            stability_parameter_scan("L", 16)

    @pytest.mark.parametrize("family", ["L", "S"])
    def test_scan_reads_only_the_t4_defect(self, monkeypatch, family):
        bands, forms = [], []
        real_band, real_form = solver._band, solver._cosh_mean_form
        monkeypatch.setattr(solver, "_band", lambda *a: bands.append(a[1:]) or real_band(*a))
        monkeypatch.setattr(solver, "_cosh_mean_form", lambda *a: forms.append(a) or real_form(*a))
        stability_parameter_scan(family, 16)
        assert bands == [(4, 4)]
        assert forms == [(F(beta), family == "S", 4) for beta in range(-3, 3)]

    @pytest.mark.parametrize(
        "planted, kinds, stable",
        [
            # beta = -1/sqrt(2), skipped; beta = 1/4, alpha = 1/2 (G, stable);
            # beta = 1/sqrt(2)
            (UniPoly((-1, 0, 2)) * UniPoly((F(-1, 4), 1)), [RationalRoot, QuadraticField],
             [F(1, 2)]),
            (UniPoly((-1, 0, 0, 4)), [IntervalRoot], []),  # beta = 4**(-1/3)
            (UniPoly((-1, 2)), [RationalRoot], []),  # beta = 1/2, alpha = 1/sqrt(2)
        ],
        ids=["surd", "interval", "rational-non-square"],
    )
    def test_root_in_the_unit_interval_without_rational_alpha_is_unresolved(
        self, monkeypatch, planted, kinds, stable
    ):
        # The scan reports rational alpha only; whatever else lies in [0, 1]
        # raises instead of being skipped, after the stable alpha below it.
        inside = [r for r in oracles.isolate_real_roots_by_divisor_search(planted)
                  if 0 < float(r.low if isinstance(r, IntervalRoot) else root_value(r)) < 1]
        assert [type(r) for r in inside] == kinds
        checked, real = [], solver.is_stable

        def recorded(spec, order):
            verdict = real(spec, order)
            checked.append((spec, verdict.is_stable))
            return verdict

        monkeypatch.setattr(solver, "is_stable", recorded)
        monkeypatch.setattr(solver, "_band", lambda sample, low, high: {4: planted})
        with pytest.raises(ArithmeticError, match="unresolved"):
            stability_parameter_scan("L", 16)
        assert checked == [(LAlpha(alpha), True) for alpha in stable]

    def test_a_defect_that_vanishes_identically_is_inconclusive(self, monkeypatch, capsys):
        # every sample of the t^4 defect 0: no polynomial in beta to solve
        monkeypatch.setattr(solver, "_defect_form", lambda m_form: ([0] * len(m_form[0]), 1))
        with pytest.raises(ArithmeticError, match="vanishes identically"):
            stability_parameter_scan("L", 16)
        assert cli.main(["scan", "--family", "L", "--order", "16"]) == 1
        out = capsys.readouterr().out
        assert json.loads(out)["error"] == {
            "type": "ArithmeticError", "message": "t^4 defect vanishes identically; scan inconclusive"}

    def test_scan_needs_order_four(self, monkeypatch):
        expanded = []
        for name in ("_mean_form", "_cosh_mean_form"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, real=real: expanded.append(a) or real(*a))
        for family in ("LAlpha", "SAlpha", "XAlpha"):
            for order in (0, 3):
                with pytest.raises(ValueError, match="order >= 4"):
                    stability_parameter_scan(family, order)
        assert expanded == []


class TestVerdictsWithARouteRemoved:
    """Verdicts reached with solver routes set to None: a call of one would
    raise TypeError, so each verdict shows which routes its inputs skip."""

    @staticmethod
    def remove(monkeypatch, *names):
        for name in names:
            monkeypatch.setattr(solver, name, None)

    @staticmethod
    def bumped(mean, shifts):
        coeffs = list(mean.coeffs)
        for index, delta in shifts.items():
            coeffs[index] += delta
        return MeanExpansion(tuple(coeffs))

    def test_g_and_l_half_without_the_difference_form(self, monkeypatch):
        self.remove(monkeypatch, "_difference_form")
        g = expand_mean(ALIASES["G"], 64)
        assert optimal_parameters(g, 64).relation == "stabilizable"
        assert optimal_parameters(expand_mean(LAlpha(F(1, 2)), 48), 48).relation == "stabilizable"
        v = optimal_parameters(self.bumped(MeanExpansion(g.coeffs[:17]), {6: F(1, 3)}), 16)
        assert (v.relation, v.fixed_leading_order, v.fixed_leading) == ("candidate-sub", 6, F(21, 64))

    def test_power_means_and_closed_columns_without_the_difference_form(self, monkeypatch):
        self.remove(monkeypatch, "_difference_form")
        v = [optimal_parameters(expand_mean(m, n), n)
             for m, n in ((ALIASES["A"], 16), (PowerMean(F(-13, 6)), 64))]
        assert [(x.relation, sorted(c.p for c in x.candidates),
                 {c.achieved_order for c in x.candidates}) for x in v] == [
            ("stabilizable", [-1, 1], {None}), ("stabilizable", [F(-13, 6), F(13, 6)], {None})]
        mean = self.bumped(expand_mean(PowerMean(F(3, 7)), 16), {8: F(1, 3)})
        v = optimal_parameters(mean, 16)
        assert [(x.achieved_order, x.leading) for x in v.candidates] == [(8, F(255, 256) / 3)] * 2
        coeffs = list(expand_mean(M2, 16).coeffs)
        coeffs[3] = F(1, 7)
        v = optimal_parameters(MeanExpansion(tuple(coeffs)), 16)
        assert (v.fixed_leading_order, v.fixed_leading) == (3, F(1, 8))

    @pytest.mark.parametrize("max_order", [16, 64])
    @pytest.mark.parametrize(
        "spec, c6",
        [(ALIASES["P"], F(1, 1152)), (M2, F(-11, 180)),
         (SAlpha(F(1, 10)), F(6986069, 731250000000)), (LAlpha(F(3, 10)), F(-1456, 48828125))],
        ids=["P", "M2", "S1/10", "L3/10"],
    )
    def test_closed_t6_without_an_expansion(self, monkeypatch, spec, c6, max_order):
        self.remove(monkeypatch, "difference_expansion", "_difference_form")
        v = optimal_parameters(expand_mean(spec, max_order), max_order)
        assert [(x.achieved_order, x.leading) for x in v.candidates] == [(6, c6)] * 2

    def test_closed_t5_without_an_expansion(self, monkeypatch):
        self.remove(monkeypatch, "difference_expansion", "_difference_form")
        v = optimal_parameters(_shifted_a(12, F(1, 7)), 12)
        assert [(x.achieved_order, x.leading) for x in v.candidates] == [(5, F(31, 224))] * 2

    @pytest.mark.parametrize("text, pairs", [
        ("A", [(-1, 2), (1, 1)]),
        ("G", None),
        ("H", [(-1, -1), (1, -2)]),
        ("L", [(-1, 1), (1, 0)]),
        ("lalpha:0", [(-1, 1), (1, 0)]),
        ("lalpha:1", [(-1, -1), (1, -2)]),
        ("lalpha:-1", [(-1, -1), (1, -2)]),
        ("lalpha:1/2", None),
        ("lalpha:-1/2", None),
        ("powermean:-13/6", [(F(-13, 6), F(-13, 6)), (F(13, 6), F(-13, 3))]),
    ])
    def test_a_spec_that_is_its_reference_builds_no_form(self, monkeypatch, text, pairs):
        # the identity points of G (no pair), B_r and L, at max_order 128
        # with the mean through t^6, and no form past it
        spec = cli.parse_mean_spec(text, {})
        mean = expand_mean(spec, solver.CLOSED_ORDER)
        self.remove(monkeypatch, "difference_expansion", "_power_mean_form", "_mean_form")
        v = optimal_parameters(mean, 128, spec=spec)
        note = ("difference vanishes identically on the locus through order 128" if pairs is None
                else "difference vanishes through order 128 at 2 parameter pair(s)")
        assert (v.relation, v.notes, v.boundary, v.fixed_leading) == (
            "stabilizable", (note,), None, None)
        assert [(c.p, c.q, c.achieved_order, c.leading) for c in v.candidates] == [
            (p, q, None, None) for p, q in pairs or ()]

    def test_stability_and_the_scan_without_a_resultant(self, monkeypatch):
        self.remove(monkeypatch, "_resultant")
        assert not is_stable(MAlphaR(1, 2), 64).is_stable
        assert not is_stable(M3, 64).is_stable
        assert is_stable(PowerMean(F(3, 7)), 96).is_stable
        assert [r.value for r in stability_parameter_scan("L", 24)] == [-1, F(-1, 2), F(1, 2), 1]

"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact criteria are asserted with zero tolerance; float criteria carry their
stated tolerances.  A few tempting-but-wrong constants are pinned as strict
xfail tests with the disproof summarized in each reason string: they assert
the rejected value, so any behaviour change surfaces loudly, while the main
criteria assert the values that survive both the exact engine and an
independent direct-evaluation cross-check.
"""

import math
import random
from fractions import Fraction as F

import pytest

from meanstab.catalog import (
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
    SAlpha,
    expand_mean,
    expand_power_mean,
    expand_quotient_mean,
    expand_stable,
)
from laurent import LaurentScalar
from meanstab.numeric import (
    GridSpec,
    compare_scan,
    eval_mean,
    eval_resultant,
    verify_expansion_decay,
)
from meanstab.resultant import resultant_coeffs, resultant_power_means
from meanstab.series import series_mul, series_power
from meanstab.solver import (
    coefficient_polynomials,
    difference_expansion,
    first_order_locus,
    is_stable,
    optimal_parameters,
    stability_parameter_scan,
)

from test_catalog import (
    CLASSIC_TABLES,
    l_alpha_display,
    m_alpha_r_head,
    s_alpha_display,
    stable_display,
)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# Criterion 1: coefficient-table reproduction (exact)


def test_criterion_1_coefficient_tables():
    rng = random.Random(101)
    for _ in range(10):
        p = F(rng.randint(-20, 20), rng.randint(1, 9))
        e = expand_power_mean(p, 4)
        assert e.coefficient(2) == (p - 1) / 2
        assert e.coefficient(4) == (p - 1) * (3 + p - 2 * p * p) / 24

    for a in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
        el = expand_mean(LAlpha(a), 8)
        for n, v in l_alpha_display(a).items():
            assert el.coefficient(n) == v
        es = expand_mean(SAlpha(a), 8)
        for n, v in s_alpha_display(a).items():
            assert es.coefficient(n) == v

    for index, table in CLASSIC_TABLES.items():
        e = expand_quotient_mean(ClassicMean(index), len(table) - 1)
        assert list(e.coeffs) == table

    for alpha, r in ((F(-1), F(1)), (F(1, 2), F(1)), (F(1, 3), F(2))):
        e = expand_quotient_mean(MAlphaR(alpha, r), 6)
        assert [e.coefficient(n) for n in range(1, 6)] == m_alpha_r_head(alpha, r)
    assert (
        expand_quotient_mean(MAlphaR(F(-1), F(1)), 8).coeffs
        == expand_quotient_mean(M1, 8).coeffs
    )

    for b in (F(-1, 2), F(1, 2), F(2, 3), F(-3, 8), F(5)):
        e = expand_stable(b, 8)
        assert e.coefficient(2) == b
        for n, v in stable_display(b).items():
            assert e.coefficient(n) == v

    report("1 coefficient tables (power, L/S families, M1..M5, M_(a,r), stable): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="rejects +alpha for the linear term of M_(alpha,r): the family's "
    "own reduction to M1 at (-1, 1) and direct evaluation near the diagonal "
    "both force -alpha",
)
def test_criterion_1_m_alpha_r_linear_term_as_printed():
    e = expand_quotient_mean(MAlphaR(F(1, 2), F(1)), 4)
    assert e.coefficient(1) == F(1, 2)


# ---------------------------------------------------------------------------
# Criterion 2: resultant closed forms (exact)


def test_criterion_2_resultant_closed_forms():
    from test_resultant import a1_closed, a2_closed, a3_closed, random_coeffs

    rng = random.Random(103)
    for _ in range(50):
        k = random_coeffs(rng, 3)
        m = random_coeffs(rng, 3)
        n = random_coeffs(rng, 3, a1_forbidden=(F(1), F(-1)))
        r = resultant_coeffs(k, m, n, 3)
        assert r[1] == a1_closed(k[1], m[1], n[1])
        assert r[2] == a2_closed(k, m, n)
        assert r[3] == a3_closed(k, m, n)

    for _ in range(20):
        p = F(rng.randint(-9, 9), rng.randint(1, 5))
        q = F(rng.randint(-9, 9), rng.randint(1, 5))
        a2m = F(rng.randint(-9, 9), rng.randint(1, 5))
        a4m = F(rng.randint(-9, 9), rng.randint(1, 5))
        even = MeanExpansion((F(1), F(0), a2m, F(0), a4m))
        r = resultant_power_means(p, q, even, 4)
        assert r.coefficient(2) == (2 * a2m + p + 2 * q - 3) / 8
        assert r.coefficient(4) == (
            24 * a4m
            + 12 * a2m * (-4 * p * q + p + 2 * q * (q + 1) + 1)
            - 2 * p**3
            + 3 * p**2
            + 2 * p * (7 - 6 * q)
            + 4 * q * (-4 * q**2 + 6 * q + 7)
            - 39
        ) / 384
        a1m = F(rng.randint(-9, 9), rng.randint(1, 5))
        a3m = F(rng.randint(-9, 9), rng.randint(1, 5))
        mixed = MeanExpansion((F(1), a1m, a2m, a3m))
        rm = resultant_power_means(p, q, mixed, 3)
        assert rm.coefficient(1) == a1m / 2
        assert rm.coefficient(3) == (2 * a3m - (p - 1) * (2 * q - 1) * a1m) / 16

    report("2 resultant closed forms (50 generic triples, 20 power-mean tuples): PASS")


# ---------------------------------------------------------------------------
# Criterion 3: stability classification (exact)


def test_criterion_3_stability():
    scan = stability_parameter_scan("LAlpha", order=16)
    assert [r.value for r in scan] == [F(-1), F(-1, 2), F(1, 2), F(1)]

    for spec in (
        SAlpha(F(1, 4)),
        SAlpha(F(1, 2)),
        SAlpha(F(1)),
        M1,
        M2,
        M3,
        M4,
        M5,
        MAlphaR(F(1, 2), F(1)),
    ):
        assert not is_stable(spec, 8).is_stable

    rng = random.Random(107)
    for _ in range(10):
        p = F(rng.randint(-15, 15), rng.randint(1, 7))
        assert is_stable(PowerMean(p), 16).is_stable

    report("3 stability classification (scan, rejections, power means to order 16): PASS")


# ---------------------------------------------------------------------------
# Criterion 4: every worked optimal-parameter example (exact)


def test_criterion_4_solver_examples():
    # L_alpha: locus q = (1-p)/2 - 2 a^2 and p^2 = 1 + 16 a^2 - 16 a^4
    for a in (F(1, 3), F(1, 4), F(2, 5)):
        m = expand_mean(LAlpha(a), 8)
        locus = first_order_locus(m)
        assert locus.slope == F(-1, 2)
        assert locus.intercept == F(1, 2) - 2 * a**2
        poly = coefficient_polynomials(m, locus, 4, 4)[4]
        p_sq = 1 + 16 * a**2 - 16 * a**4
        assert poly.coeffs[1] == 0 and poly(0) == -poly.coeffs[2] * p_sq
    assert 1 + 16 * F(1, 9) - 16 * F(1, 81) == F(209, 81)
    v = optimal_parameters(expand_mean(LAlpha(F(1, 3)), 8), 8, spec=LAlpha(F(1, 3)))
    for cand in v.candidates:
        assert cand.p.radicand / cand.p.div**2 == F(209, 81)
        assert cand.leading == -F(1, 720) * F(1, 9) * (F(1, 9) - 1) * (4 * F(1, 9) - 1) ** 3

    # S_alpha: locus q = (1-p)/2 + 2 a^2 and the rational function for p^2
    for a in (F(1, 3), F(1, 4), F(2, 5)):
        m = expand_mean(SAlpha(a), 8)
        locus = first_order_locus(m)
        assert locus.intercept == F(1, 2) + 2 * a**2
        poly = coefficient_polynomials(m, locus, 4, 4)[4]
        p_sq = (1 - 12 * a**2 + 112 * a**4 - 64 * a**6) / (1 + 4 * a**2)
        assert poly.coeffs[1] == 0 and poly(0) == -poly.coeffs[2] * p_sq
    v = optimal_parameters(expand_mean(SAlpha(F(1, 3)), 8), 8, spec=SAlpha(F(1, 3)))
    a = F(1, 3)
    expected = F(1, 720) * a**2 * (1 + a**2) * (1 - 16 * a**2 + 16 * a**4) ** 2 / (1 + 4 * a**2)
    for cand in v.candidates:
        assert cand.leading == expected

    # M2: q^2 - 5q + 2 = 0 and leading -11/180 t^6
    v = optimal_parameters(expand_mean(M2, 8), 8, spec=M2)
    for cand in v.candidates:
        q = cand.q
        assert q.div**2 * 1 - 0 == q.div**2  # quadratic surd
        assert (q.add, q.radicand, q.div) == (F(5), F(17), F(2))
        assert cand.achieved_order == 6 and cand.leading == F(-11, 180)

    # M4: q^2 - 3q - 3 = 0; leading 13/320 t^6, confirmed by direct
    # float evaluation of the difference at the optimal parameters
    v = optimal_parameters(expand_mean(M4, 8), 8, spec=M4)
    for cand in v.candidates:
        assert (cand.q.add, cand.q.radicand, cand.q.div) == (F(3), F(21), F(2))
        assert cand.achieved_order == 6 and cand.leading == F(13, 320)

    # logarithmic mean: q(q-1)/96 t^4 on the locus, and both exact sandwiches
    log = expand_mean(SAlpha(F(0)), 12)
    locus = first_order_locus(log)
    poly = coefficient_polynomials(log, locus, 4, 4)[4]
    for q in (F(3), F(-2, 7), F(9, 4)):
        assert poly(1 - 2 * q) == q * (q - 1) / 96
    assert difference_expansion(log, F(1), F(0), 12).is_zero
    assert difference_expansion(log, F(-1), F(1), 12).is_zero

    report("4 optimal-parameter examples (L_a, S_a, M2, M4, log mean): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="rejects 13/120 as the M4 leading coefficient: the exact engine "
    "and direct float evaluation of the difference both give 13/320 "
    "(0.0406..., while 13/120 = 0.1083...)",
)
def test_criterion_4_m4_leading_as_printed():
    v = optimal_parameters(expand_mean(M4, 8), 8)
    assert v.candidates[0].leading == F(13, 120)


# ---------------------------------------------------------------------------
# Criterion 5: parity, series properties, degenerate-case limits


def test_criterion_5_parity_and_fixed_point_properties():
    rng = random.Random(109)

    def even_coeffs(order):
        c = [F(1)] + [F(0)] * order
        for idx in range(2, order + 1, 2):
            c[idx] = F(rng.randint(-7, 7), rng.randint(1, 5))
        return c

    for _ in range(10):
        r = resultant_coeffs(even_coeffs(8), even_coeffs(8), even_coeffs(8), 8)
        assert all(r[n] == 0 for n in range(1, 9, 2))

    order = 8
    for _ in range(100):
        tail = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
        a = tuple([F(1)] + tail)
        while True:
            r = F(rng.randint(-6, 6), rng.randint(1, 4))
            s = F(rng.randint(-6, 6), rng.randint(1, 4))
            if r != 0 and s != 0:
                break
        prod = series_mul(series_power(a, r, order), series_power(a, s, order), order)
        assert prod == series_power(a, r + s, order)
        assert series_power(series_power(a, r, order), 1 / r, order) == a

    # Degenerate-case limit consistency to order 10 for both special values.
    window = 40
    eps = LaurentScalar.epsilon(window)
    lift = lambda c: LaurentScalar.constant(c, window)
    outer = expand_mean(PowerMean(F(1)), 10)
    middle = expand_mean(M2, 10)
    for inner_spec, target in ((M1, F(1)), (MAlphaR(F(1), F(1)), F(-1))):
        inner = expand_mean(inner_spec, 10)
        direct = resultant_coeffs(outer.coeffs, middle.coeffs, inner.coeffs, 10)
        perturbed = [lift(c) for c in inner.coeffs]
        perturbed[1] = lift(target) - (eps if target > 0 else -eps)
        germ = resultant_coeffs(
            [lift(c) for c in outer.coeffs],
            [lift(c) for c in middle.coeffs],
            perturbed,
            10,
        )
        assert tuple(g.limit() for g in germ) == tuple(direct)

    report("5 parity closure, power-series laws (100 random), degenerate limits to order 10: PASS")


# ---------------------------------------------------------------------------
# Criterion 6: numeric cross-validation


CATALOG_SPECS = [
    PowerMean(F(1)),
    PowerMean(F(0)),
    PowerMean(F(-1)),
    PowerMean(F(3)),
    PowerMean(F(-5, 2)),
    LAlpha(F(1, 4)),
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
    MAlphaR(F(1, 3), F(2)),
]


def test_criterion_6_numeric_cross_validation():
    x, t = 1000.0, 1.0
    order = 4
    for spec in CATALOG_SPECS:
        e = expand_mean(spec, order)
        direct = eval_mean(spec, x - t, x + t)
        assert abs(e.partial_sum(x, t) - direct) / direct <= 10.0 * x**-order, spec

    rng = random.Random(113)
    for spec in CATALOG_SPECS:
        for _ in range(5):
            a = rng.uniform(0.05, 30.0)
            b = rng.uniform(0.05, 30.0)
            lhs = eval_resultant(ALIASES["A"], spec, ALIASES["G"], a, b)
            sa, sb = math.sqrt(a), math.sqrt(b)
            rhs = 0.5 * (sa + sb) * eval_mean(spec, sa, sb)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    grid = GridSpec(1e-3, 10.0, 10000)
    chain = ["H", "G", "L", "P", "A", "T"]
    for low, high in zip(chain, chain[1:]):
        assert compare_scan(ALIASES[low], ALIASES[high], grid).verdict == "m1<m2"
    a_small, a_big = F(1, 3), F(3, 4)
    for m1, m2 in [
        (ALIASES["G"], LAlpha(a_small)),
        (LAlpha(a_small), ALIASES["L"]),
        (ALIASES["L"], SAlpha(a_small)),
        (SAlpha(a_small), ALIASES["A"]),
        (ALIASES["H"], LAlpha(a_big)),
        (LAlpha(a_big), ALIASES["G"]),
        (ALIASES["L"], SAlpha(a_big)),
        (SAlpha(a_big), ALIASES["T"]),
        (SAlpha(F(7, 10)), ALIASES["A"]),
    ]:
        assert compare_scan(m1, m2, grid).verdict == "m1<m2"

    assert compare_scan(ALIASES["A"], M1, grid).verdict == "crossing"
    # the S-family vs A non-comparability window is (sqrt2/2, pi/4)
    assert compare_scan(SAlpha(F(18, 25)), ALIASES["A"], grid).verdict == "crossing"

    report(
        "6 numeric cross-validation (series vs direct, composition identity, "
        "comparison chains, witnesses): PASS"
    )


@pytest.mark.xfail(
    strict=True,
    reason="no crossing exists at alpha = 0.9: the gap alpha*tanh(x) - "
    "arctan(tanh(alpha*x)) rises from 0 and falls to alpha - pi/4 > 0 with a "
    "single turning point, so S_0.9 > A everywhere; witnesses exist only for "
    "sqrt2/2 < alpha < pi/4",
)
def test_criterion_6_s_alpha_09_witness_as_stated():
    grid = GridSpec(1e-3, 10.0, 10000)
    assert compare_scan(SAlpha(F(9, 10)), ALIASES["A"], grid).verdict == "crossing"


# ---------------------------------------------------------------------------
# Criterion 7: remainder-decay verification


def test_criterion_7_decay():
    grid = GridSpec(100.0, 1e5, 40, "logarithmic")
    cases = {
        LAlpha(F(1, 3)): ((2, 1.0), (4, 10.0), (6, 12.0)),
        SAlpha(F(1, 3)): ((2, 1.0), (4, 10.0), (6, 12.0)),
        M2: ((2, 1.0), (4, 10.0), (6, 12.0)),
        M4: ((2, 1.0), (4, 10.0), (6, 12.0)),
    }
    for spec, runs in cases.items():
        for order, t in runs:
            rep = verify_expansion_decay(spec, order, t, grid)
            assert rep.expected_exponent is not None
            assert rep.slope is not None, (spec, order)
            assert abs(rep.slope - rep.expected_exponent) <= 0.15, (
                spec,
                order,
                rep.slope,
            )

    report("7 remainder decay slopes at three truncation orders per mean: PASS")
